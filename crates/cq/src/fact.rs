//! Facts: relation names applied to tuples of data values.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::intern::Symbol;
use crate::value::Value;

/// How many values a [`Tuple`] holds without a heap block: the most that
/// keeps `size_of::<Fact>()` at 32 bytes.
const INLINE: usize = 5;

/// The values of a [`Fact`]: a `[Value]` that lives inside the fact up to
/// arity 5 and in one boxed slice beyond.
///
/// Storage is the only difference from a slice: a tuple derefs to
/// `[Value]` and compares, orders and hashes as that slice (so
/// `HashSet<Tuple>` answers `contains(&[Value])`); the unused inline slots
/// are never observable. Build one with `collect()` — which fills the
/// inline slots without touching the heap — or `from` a `Vec`.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, values: [Value; INLINE] },
    Spilled(Box<[Value]>),
}

impl Tuple {
    fn inline(values: &[Value]) -> Tuple {
        let mut inline = [Value::PAD; INLINE];
        inline[..values.len()].copy_from_slice(values);
        Tuple(Repr::Inline {
            len: values.len() as u8,
            values: inline,
        })
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        if values.len() <= INLINE {
            Tuple::inline(&values)
        } else {
            Tuple(Repr::Spilled(values.into_boxed_slice()))
        }
    }
}

impl FromIterator<Value> for Tuple {
    /// Only a sixth value allocates.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut iter = iter.into_iter();
        let mut inline = [Value::PAD; INLINE];
        let mut len = 0;
        while let Some(value) = iter.next() {
            if len == INLINE {
                let mut spilled = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
                spilled.extend_from_slice(&inline);
                spilled.push(value);
                spilled.extend(iter);
                return Tuple::from(spilled);
            }
            inline[len] = value;
            len += 1;
        }
        Tuple::inline(&inline[..len])
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A fact `R(d₁, …, d_k)` over a database schema.
///
/// A fact is 32 bytes and, up to arity 5, owns no heap block (see
/// [`Tuple`]). Facts order by relation, then by values as a slice.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// The relation name.
    pub relation: Symbol,
    /// The tuple of data values.
    pub values: Tuple,
}

impl Fact {
    /// Builds a fact from a relation name and values.
    pub fn new(relation: impl Into<Symbol>, values: impl Into<Tuple>) -> Fact {
        Fact {
            relation: relation.into(),
            values: values.into(),
        }
    }

    /// Convenience constructor taking value names as strings.
    pub fn from_names(relation: &str, values: &[&str]) -> Fact {
        Fact {
            relation: Symbol::new(relation),
            values: values.iter().map(|v| Value::new(v)).collect(),
        }
    }

    /// The arity of the fact.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at argument position `position`, or `None` when the fact is
    /// shorter. Used by the secondary indexes of
    /// [`crate::Instance`], which must tolerate mixed-arity relations.
    pub fn value_at(&self, position: usize) -> Option<Value> {
        self.values.get(position).copied()
    }

    /// The distinct data values occurring in the fact (its active domain).
    pub fn adom(&self) -> Vec<Value> {
        let mut seen = Vec::new();
        for &v in &self.values {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;

    /// Both sides of the spill, and its edge.
    const ARITIES: [usize; 5] = [0, 1, 5, 6, 12];

    fn values(arity: usize, salt: usize) -> Vec<Value> {
        (0..arity)
            .map(|i| Value::indexed("t", (3 * i + salt) % 7))
            .collect()
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn a_fact_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Fact>(), 32);
        assert_eq!(std::mem::size_of::<Tuple>(), 24);
    }

    #[test]
    fn every_way_to_build_a_tuple_yields_the_same_slice() {
        for arity in ARITIES {
            let v = values(arity, 1);
            let collected: Tuple = v.iter().copied().collect();
            assert_eq!(collected.as_slice(), v.as_slice());
            assert_eq!(&*collected, v.as_slice());
            assert_eq!(collected.len(), arity);
            assert_eq!(collected, Tuple::from(v.clone()));
            assert_eq!(collected, collected.clone());
            assert!((&collected).into_iter().eq(&v));
            assert_eq!(format!("{collected:?}"), format!("{v:?}"));
            assert_eq!(Fact::new("R", v.clone()).arity(), arity);
        }
    }

    #[test]
    fn tuples_compare_order_and_hash_as_their_slices() {
        // every pair of arities — inline against spilled included — with a
        // common prefix of every length, so the shorter is a proper prefix
        for a_arity in ARITIES {
            for b_arity in ARITIES {
                for shared in 0..=a_arity.min(b_arity) {
                    let a = values(a_arity, 1);
                    let mut b = values(b_arity, 2);
                    b[..shared].copy_from_slice(&a[..shared]);
                    let (ta, tb) = (Tuple::from(a.clone()), Tuple::from(b.clone()));
                    assert_eq!(ta.cmp(&tb), a.cmp(&b), "{a:?} vs {b:?}");
                    assert_eq!(ta.partial_cmp(&tb), a.partial_cmp(&b));
                    assert_eq!(ta == tb, a == b);
                    assert_eq!(hash_of(&ta), hash_of(&a));
                    let (fa, fb) = (Fact::new("R", ta), Fact::new("R", tb));
                    assert_eq!(fa.cmp(&fb), a.cmp(&b), "facts order by values");
                    assert_eq!(hash_of(&fa), hash_of(&(fa.relation, a)));
                }
            }
        }
    }

    #[test]
    fn a_tuple_set_answers_slice_lookups() {
        let set: HashSet<Tuple> = ARITIES.map(|arity| values(arity, 1).into()).into();
        for arity in ARITIES {
            assert!(set.contains(values(arity, 1).as_slice()));
            assert_eq!(set.contains(values(arity, 2).as_slice()), arity == 0);
        }
    }

    #[test]
    fn facts_order_by_relation_then_values() {
        let (r, s) = (Symbol::new("OrdR"), Symbol::new("OrdS"));
        assert!(r < s, "symbols order by interning");
        let long = Fact::new(r, values(12, 1));
        let short = Fact::new(s, values(0, 1));
        assert!(long < short, "the relation decides first");
        assert!(Fact::new(r, values(5, 1)) < Fact::new(r, values(6, 1)));
    }

    #[test]
    fn fact_equality_is_structural() {
        let a = Fact::from_names("R", &["a", "b"]);
        let b = Fact::new("R", vec![Value::new("a"), Value::new("b")]);
        assert_eq!(a, b);
    }

    #[test]
    fn facts_with_same_values_but_different_relation_differ() {
        let a = Fact::from_names("R", &["a", "b"]);
        let b = Fact::from_names("S", &["a", "b"]);
        assert_ne!(a, b);
    }

    #[test]
    fn adom_deduplicates() {
        let f = Fact::from_names("R", &["a", "b", "a"]);
        assert_eq!(f.adom(), vec![Value::new("a"), Value::new("b")]);
        assert_eq!(f.arity(), 3);
    }

    #[test]
    fn value_at_is_positional_and_bounded() {
        let f = Fact::from_names("R", &["a", "b"]);
        assert_eq!(f.value_at(0), Some(Value::new("a")));
        assert_eq!(f.value_at(1), Some(Value::new("b")));
        assert_eq!(f.value_at(2), None);
    }

    #[test]
    fn display_is_readable() {
        let f = Fact::from_names("Edge", &["1", "2"]);
        assert_eq!(f.to_string(), "Edge(1, 2)");
    }
}
