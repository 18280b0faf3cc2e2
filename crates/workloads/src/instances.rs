//! Random and skewed database instances.

use cq::{Fact, Instance, Schema, Tuple, Value};
use rand::Rng;

/// Parameters for random instance generation.
#[derive(Clone, Copy, Debug)]
pub struct InstanceParams {
    /// Size of the active domain to draw values from.
    pub domain_size: usize,
    /// Number of facts per relation.
    pub facts_per_relation: usize,
}

impl Default for InstanceParams {
    fn default() -> Self {
        InstanceParams {
            domain_size: 10,
            facts_per_relation: 30,
        }
    }
}

fn value(i: usize) -> Value {
    Value::indexed("d", i)
}

/// A uniformly random instance over `schema`.
pub fn random_instance<R: Rng>(rng: &mut R, schema: &Schema, params: InstanceParams) -> Instance {
    assert!(params.domain_size >= 1);
    let mut facts = Vec::new();
    for rel in schema.relations() {
        for _ in 0..params.facts_per_relation {
            let tuple: Tuple = (0..rel.arity)
                .map(|_| value(rng.gen_range(0..params.domain_size)))
                .collect();
            facts.push(Fact::new(rel.name, tuple));
        }
    }
    Instance::from_facts(facts)
}

/// A skewed instance over `schema`: the first attribute of every fact follows
/// an approximate Zipf distribution (heavy hitters), the remaining attributes
/// are uniform. Used to exercise load imbalance in the one-round engine.
pub fn zipf_instance<R: Rng>(
    rng: &mut R,
    schema: &Schema,
    params: InstanceParams,
    exponent: f64,
) -> Instance {
    assert!(params.domain_size >= 1);
    // Precompute cumulative Zipf weights.
    let weights: Vec<f64> = (1..=params.domain_size)
        .map(|k| 1.0 / (k as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let draw_zipf = |rng: &mut R| -> usize {
        let u: f64 = rng.gen();
        cumulative.iter().position(|&c| u <= c).unwrap_or(0)
    };

    let mut facts = Vec::new();
    for rel in schema.relations() {
        for _ in 0..params.facts_per_relation {
            let tuple: Tuple = (0..rel.arity)
                .map(|pos| {
                    if pos == 0 {
                        value(draw_zipf(rng))
                    } else {
                        value(rng.gen_range(0..params.domain_size))
                    }
                })
                .collect();
            facts.push(Fact::new(rel.name, tuple));
        }
    }
    Instance::from_facts(facts)
}

/// Resolves a named workload instance spec over `schema`:
/// `random:<domain>:<facts>[:seed]` or
/// `zipf:<domain>:<facts>:<exponent-percent>[:seed]` (e.g. `zipf:50:400:150`
/// draws first attributes from a Zipf distribution with exponent 1.5).
///
/// Generation is deterministic: the default seed is 0.
pub fn named_instance(spec: &str, schema: &Schema) -> Result<Instance, String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut parts = spec.split(':');
    let family = parts.next().unwrap_or_default();
    let mut numbers = Vec::new();
    for part in parts {
        numbers.push(
            part.parse::<u64>()
                .map_err(|_| format!("instance spec '{spec}': '{part}' is not a number"))?,
        );
    }
    let params_from = |numbers: &[u64]| -> Result<InstanceParams, String> {
        let &[domain, facts] = &numbers[..2] else {
            unreachable!("caller checks arity")
        };
        if domain == 0 {
            return Err(format!(
                "instance spec '{spec}': domain size must be at least 1"
            ));
        }
        // Zero facts used to slip through and blow up downstream consumers
        // that assume a generated workload is non-empty; reject it at parse
        // time with the other arity/range errors instead.
        if facts == 0 {
            return Err(format!(
                "instance spec '{spec}': facts per relation must be at least 1"
            ));
        }
        Ok(InstanceParams {
            domain_size: domain as usize,
            facts_per_relation: facts as usize,
        })
    };
    match family {
        "random" => {
            if !(2..=3).contains(&numbers.len()) {
                return Err(format!(
                    "instance spec '{spec}': expected random:<domain>:<facts>[:seed]"
                ));
            }
            let params = params_from(&numbers)?;
            let seed = numbers.get(2).copied().unwrap_or(0);
            Ok(random_instance(&mut StdRng::seed_from_u64(seed), schema, params))
        }
        "zipf" => {
            if !(3..=4).contains(&numbers.len()) {
                return Err(format!(
                    "instance spec '{spec}': expected zipf:<domain>:<facts>:<exponent-percent>[:seed]"
                ));
            }
            let params = params_from(&numbers)?;
            let exponent = numbers[2] as f64 / 100.0;
            let seed = numbers.get(3).copied().unwrap_or(0);
            Ok(zipf_instance(
                &mut StdRng::seed_from_u64(seed),
                schema,
                params,
                exponent,
            ))
        }
        other => Err(format!(
            "unknown instance family '{other}' (expected random:<domain>:<facts>[:seed] or zipf:<domain>:<facts>:<exponent-percent>[:seed])"
        )),
    }
}

/// The complete binary relation `name` over the given values (all pairs).
pub fn complete_binary_relation(name: &str, values: &[&str]) -> Instance {
    Instance::from_facts(
        values
            .iter()
            .flat_map(|x| values.iter().map(move |y| Fact::from_names(name, &[x, y]))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_relations([("R", 2), ("S", 3)])
    }

    #[test]
    fn random_instances_respect_schema_and_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = InstanceParams {
            domain_size: 5,
            facts_per_relation: 20,
        };
        let inst = random_instance(&mut rng, &schema(), params);
        assert!(inst.is_well_formed());
        assert!(inst.adom().len() <= 5);
        // duplicates collapse, so at most 20 per relation
        assert!(inst.facts_of(cq::Symbol::new("R")).len() <= 20);
        assert!(!inst.is_empty());
    }

    #[test]
    fn zipf_instances_are_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let params = InstanceParams {
            domain_size: 50,
            facts_per_relation: 400,
        };
        let inst = zipf_instance(&mut rng, &Schema::from_relations([("R", 2)]), params, 1.5);
        // the most frequent first-attribute value should dominate
        let mut counts = std::collections::BTreeMap::new();
        for f in inst.facts() {
            *counts.entry(f.values[0]).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let avg = inst.len() as f64 / counts.len() as f64;
        assert!(
            (max as f64) > 2.0 * avg,
            "expected skew: max={max}, avg={avg:.1}"
        );
    }

    #[test]
    fn complete_binary_relation_has_all_pairs() {
        let inst = complete_binary_relation("R", &["a", "b", "c"]);
        assert_eq!(inst.len(), 9);
        assert!(inst.contains(&Fact::from_names("R", &["c", "a"])));
    }

    #[test]
    fn named_instance_specs_resolve() {
        let schema = schema();
        let random = named_instance("random:5:20", &schema).unwrap();
        assert!(random.is_well_formed());
        assert!(random.adom().len() <= 5);
        // deterministic: same spec, same instance; different seed differs
        assert_eq!(random, named_instance("random:5:20:0", &schema).unwrap());
        assert_ne!(random, named_instance("random:5:20:1", &schema).unwrap());

        let zipf = named_instance("zipf:50:400:150", &schema).unwrap();
        assert!(zipf.is_well_formed());

        for bad in [
            "random",
            "random:5",
            "random:0:20",
            "random:5:0",
            "random:5:20:1:9",
            "zipf:5:20",
            "zipf:5:0:150",
            "random:x:20",
            "uniform:5:20",
        ] {
            assert!(
                named_instance(bad, &schema).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_instance(
            &mut StdRng::seed_from_u64(3),
            &schema(),
            InstanceParams::default(),
        );
        let b = random_instance(
            &mut StdRng::seed_from_u64(3),
            &schema(),
            InstanceParams::default(),
        );
        assert_eq!(a, b);
    }
}
