//! Definition-level enumerations over instances.

use cq::{Fact, Instance};

/// Every subinstance of `instance`, the empty one and `instance` itself
/// included: the quantifier of Definition 3.1 made finite. Exponential, so
/// only tiny instances are allowed.
pub fn subsets(instance: &Instance) -> Vec<Instance> {
    let facts: Vec<&Fact> = instance.facts().collect();
    assert!(
        facts.len() <= 20,
        "subsets() is exponential; instance too large ({} facts)",
        facts.len()
    );
    let mut out = Vec::with_capacity(1 << facts.len());
    for mask in 0..(1usize << facts.len()) {
        let mut inst = Instance::new();
        for (i, f) in facts.iter().enumerate() {
            if mask & (1 << i) != 0 {
                inst.insert((*f).clone());
            }
        }
        out.push(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_enumerates_the_powerset() {
        let i = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("S", &["a"]),
        ]);
        let subs = subsets(&i);
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().any(|s| s.is_empty()));
        assert!(subs.iter().any(|s| s == &i));
    }
}
