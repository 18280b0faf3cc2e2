//! Declarative, rule-based distribution policies (Section 5.2 of the paper).
//!
//! A policy is specified by rules of the form
//!
//! ```text
//! T_R(z₁, …, z_k; y₁, …, y_m) ← R(y₁, …, y_m), B₁, …, B_k
//! ```
//!
//! where each `B_i` is either `bucket_i(x_i, z_i)` — the i-th address
//! component is the hash of the value bound to `x_i` — or `bucket*_i(z_i)` —
//! the i-th address component ranges over all buckets. A fact matching the
//! rule body is sent to every node whose address satisfies the constraints.

use std::fmt;

use cq::{Atom, Fact, Variable};

use crate::hash::HashScheme;
use crate::network::{Network, Node};
use crate::policy::DistributionPolicy;

/// One component of a rule's node address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddressTerm {
    /// `bucket_i(x, z_i)`: the address component is the hash of the value
    /// bound to the variable `x` (which must occur in the rule's atom).
    HashOfVar(Variable),
    /// `bucket*_i(z_i)`: the address component is unconstrained.
    AnyBucket,
}

/// A single distribution rule: facts matching `atom` are sent to all nodes
/// whose address satisfies the `address` constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistributionRule {
    /// The guard atom `R(y₁, …, y_m)`; repeated variables require equal values.
    pub atom: Atom,
    /// One address term per dimension of the address space.
    pub address: Vec<AddressTerm>,
}

/// Errors raised when constructing a [`RuleBasedPolicy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RulePolicyError {
    /// A rule's address has a different number of components than the policy
    /// has hash schemes (dimensions).
    DimensionMismatch {
        /// Index of the offending rule.
        rule: usize,
        /// Number of address components in the rule.
        found: usize,
        /// Number of dimensions of the policy.
        expected: usize,
    },
    /// A `HashOfVar` component refers to a variable that does not occur in
    /// the rule's atom, so no value would be available to hash.
    UnboundAddressVariable {
        /// Index of the offending rule.
        rule: usize,
        /// The unbound variable.
        variable: Variable,
    },
    /// The address space (product of bucket counts) is empty or too large to
    /// materialize as a network.
    AddressSpaceTooLarge {
        /// The product of bucket counts.
        size: usize,
        /// The maximum supported network size.
        limit: usize,
    },
}

impl fmt::Display for RulePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulePolicyError::DimensionMismatch {
                rule,
                found,
                expected,
            } => write!(
                f,
                "rule {rule} has {found} address components, expected {expected}"
            ),
            RulePolicyError::UnboundAddressVariable { rule, variable } => write!(
                f,
                "rule {rule} hashes variable {variable} which does not occur in its atom"
            ),
            RulePolicyError::AddressSpaceTooLarge { size: 0, .. } => {
                write!(f, "the address space is empty: a dimension has 0 buckets")
            }
            RulePolicyError::AddressSpaceTooLarge { size, limit } => {
                write!(f, "address space of size {size} exceeds the limit {limit}")
            }
        }
    }
}

impl std::error::Error for RulePolicyError {}

/// Maximum number of nodes a rule-based policy will materialize.
const MAX_NETWORK_SIZE: usize = 1 << 20;

/// A rule resolved against its atom once, at construction, so matching a
/// fact is position compares and arithmetic — no variable binding map.
#[derive(Clone, Debug)]
struct CompiledRule {
    /// `(position, earlier position)` of every repeated variable occurrence:
    /// the fact must carry equal values there.
    equal: Vec<(usize, usize)>,
    /// `(atom position, dimension)` of every `bucket_i(x, z_i)` component:
    /// the dimension's address digit is the hash of the value at the position.
    hashed: Vec<(usize, usize)>,
    /// The dimensions of the `bucket*_i(z_i)` components: every digit.
    free: Vec<usize>,
}

/// A distribution policy defined by declarative rules over a hashed address
/// space (the specification formalism of Section 5.2).
///
/// Node addresses are mixed-radix numbers over the schemes' bucket counts
/// (last dimension fastest): the node at address `(a₁, …, a_k)` is
/// `nodes[Σ aᵢ · strideᵢ]`.
#[derive(Clone, Debug)]
pub struct RuleBasedPolicy {
    rules: Vec<DistributionRule>,
    compiled: Vec<CompiledRule>,
    schemes: Vec<HashScheme>,
    strides: Vec<usize>,
    network: Network,
    nodes: Vec<Node>,
}

impl RuleBasedPolicy {
    /// Builds a policy from rules and one hash scheme per address dimension.
    pub fn new(
        rules: Vec<DistributionRule>,
        schemes: Vec<HashScheme>,
    ) -> Result<RuleBasedPolicy, RulePolicyError> {
        for (i, rule) in rules.iter().enumerate() {
            if rule.address.len() != schemes.len() {
                return Err(RulePolicyError::DimensionMismatch {
                    rule: i,
                    found: rule.address.len(),
                    expected: schemes.len(),
                });
            }
            for term in &rule.address {
                if let AddressTerm::HashOfVar(v) = term {
                    if !rule.atom.contains(*v) {
                        return Err(RulePolicyError::UnboundAddressVariable {
                            rule: i,
                            variable: *v,
                        });
                    }
                }
            }
        }
        let size = schemes
            .iter()
            .try_fold(1usize, |size, scheme| size.checked_mul(scheme.buckets()))
            .unwrap_or(usize::MAX);
        if size == 0 || size > MAX_NETWORK_SIZE {
            return Err(RulePolicyError::AddressSpaceTooLarge {
                size,
                limit: MAX_NETWORK_SIZE,
            });
        }
        let mut strides = vec![1usize; schemes.len()];
        for dim in (1..schemes.len()).rev() {
            strides[dim - 1] = strides[dim] * schemes[dim].buckets();
        }
        let nodes: Vec<Node> = (0..size)
            .map(|index| {
                let address: Vec<usize> = strides
                    .iter()
                    .zip(&schemes)
                    .map(|(stride, scheme)| index / stride % scheme.buckets())
                    .collect();
                Node::from_address(&address)
            })
            .collect();
        let compiled = rules.iter().map(CompiledRule::new).collect();
        Ok(RuleBasedPolicy {
            rules,
            compiled,
            schemes,
            strides,
            network: Network::new(nodes.iter().copied()),
            nodes,
        })
    }

    /// The rules of the policy.
    pub fn rules(&self) -> &[DistributionRule] {
        &self.rules
    }

    /// The hash schemes (one per address dimension).
    pub fn schemes(&self) -> &[HashScheme] {
        &self.schemes
    }

    /// The node for an explicit address, if it exists.
    pub fn node_at(&self, address: &[usize]) -> Option<Node> {
        if address.len() != self.schemes.len() {
            return None;
        }
        let mut index = 0;
        for ((&digit, scheme), stride) in address.iter().zip(&self.schemes).zip(&self.strides) {
            if digit >= scheme.buckets() {
                return None;
            }
            index += digit * stride;
        }
        self.nodes.get(index).copied()
    }

    /// The nodes whose address digit is 0 in every dimension of `pinned`,
    /// in address order.
    pub(crate) fn nodes_at_zero(&self, pinned: &[usize]) -> Vec<Node> {
        let digit =
            |index: usize, dim: usize| index / self.strides[dim] % self.schemes[dim].buckets();
        let nodes = self.nodes.iter().enumerate();
        nodes
            .filter(|&(index, _)| pinned.iter().all(|&dim| digit(index, dim) == 0))
            .map(|(_, &node)| node)
            .collect()
    }
}

impl CompiledRule {
    /// Resolves `rule`'s variables to atom positions (the policy
    /// constructor has already checked every hashed variable occurs).
    fn new(rule: &DistributionRule) -> CompiledRule {
        let args = &rule.atom.args;
        let first = |var: Variable| args.iter().position(|&arg| arg == var);
        let mut compiled = CompiledRule {
            equal: Vec::new(),
            hashed: Vec::new(),
            free: Vec::new(),
        };
        for (position, &var) in args.iter().enumerate() {
            if let Some(earlier) = first(var).filter(|&earlier| earlier != position) {
                compiled.equal.push((position, earlier));
            }
        }
        for (dim, term) in rule.address.iter().enumerate() {
            match term {
                AddressTerm::HashOfVar(var) => {
                    let position = first(*var).expect("hashed variables occur in the atom");
                    compiled.hashed.push((position, dim));
                }
                AddressTerm::AnyBucket => compiled.free.push(dim),
            }
        }
        compiled
    }
}

impl DistributionPolicy for RuleBasedPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    /// The addressing loop: every rule whose atom matches `fact` fixes the
    /// address digits it hashes and ranges over the ones it leaves free,
    /// visiting each node at the resulting mixed-radix position.
    fn for_each_node(&self, fact: &Fact, visit: &mut dyn FnMut(usize, Node)) {
        'rules: for (rule_index, (rule, compiled)) in
            self.rules.iter().zip(&self.compiled).enumerate()
        {
            if rule.atom.relation != fact.relation || rule.atom.arity() != fact.arity() {
                continue;
            }
            let values = &fact.values;
            if compiled.equal.iter().any(|&(a, b)| values[a] != values[b]) {
                continue;
            }
            // The constrained digits fix a base index ...
            let mut base = 0;
            for &(position, dim) in &compiled.hashed {
                match self.schemes[dim].bucket_of(values[position]) {
                    Some(bucket) => base += bucket * self.strides[dim],
                    // hash undefined on this value: rule does not fire
                    None => continue 'rules,
                }
            }
            // ... and the unconstrained ones range over all their buckets:
            // `choice` counts through them as a mixed-radix number.
            let buckets = |dim: &usize| self.schemes[*dim].buckets();
            for mut choice in 0..compiled.free.iter().map(buckets).product() {
                let mut index = base;
                for dim in &compiled.free {
                    index += choice % buckets(dim) * self.strides[*dim];
                    choice /= buckets(dim);
                }
                visit(rule_index, self.nodes[index]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{Instance, Value};

    fn rule(atom: Atom, address: Vec<AddressTerm>) -> DistributionRule {
        DistributionRule { atom, address }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::AnyBucket],
        );
        let err = RuleBasedPolicy::new(
            vec![r],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 1,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RulePolicyError::DimensionMismatch { .. }));
    }

    #[test]
    fn unbound_hash_variable_is_rejected() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("z"))],
        );
        let err = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 2,
                seed: 0,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RulePolicyError::UnboundAddressVariable { .. }
        ));
    }

    #[test]
    fn address_space_errors_name_their_cause() {
        let r = rule(
            Atom::from_names("R", &["x"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        for (buckets, message) in [
            (0, "the address space is empty: a dimension has 0 buckets"),
            (
                MAX_NETWORK_SIZE + 1,
                "address space of size 1048577 exceeds the limit 1048576",
            ),
        ] {
            let scheme = HashScheme::Modulo { buckets, seed: 0 };
            let err = RuleBasedPolicy::new(vec![r.clone()], vec![scheme]).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    fn single_dimension_hash_partitioning() {
        // One rule: R(x, y) hashed on x over 2 buckets.
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 2,
                seed: 0,
            }],
        )
        .unwrap();
        assert_eq!(p.network().len(), 2);

        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["a", "c"]);
        let f3 = Fact::from_names("S", &["a", "b"]);
        // facts with the same join key go to the same single node
        assert_eq!(p.nodes_for(&f1).len(), 1);
        assert_eq!(p.nodes_for(&f1), p.nodes_for(&f2));
        // facts of other relations are skipped
        assert!(p.nodes_for(&f3).is_empty());
    }

    #[test]
    fn any_bucket_broadcasts_along_that_dimension() {
        let r = rule(
            Atom::from_names("R", &["x"]),
            vec![
                AddressTerm::HashOfVar(Variable::new("x")),
                AddressTerm::AnyBucket,
            ],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 3,
                    seed: 1,
                },
            ],
        )
        .unwrap();
        assert_eq!(p.network().len(), 6);
        let f = Fact::from_names("R", &["a"]);
        // constrained in dim 0, broadcast over the 3 buckets of dim 1
        assert_eq!(p.nodes_for(&f).len(), 3);
    }

    #[test]
    fn repeated_variables_require_equal_values() {
        let r = rule(
            Atom::from_names("R", &["x", "x"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 4,
                seed: 0,
            }],
        )
        .unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("R", &["a", "a"])).len(), 1);
        assert!(p.nodes_for(&Fact::from_names("R", &["a", "b"])).is_empty());
    }

    #[test]
    fn partial_hash_functions_skip_unknown_values() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::IdentityOver(vec![Value::new("a")])],
        )
        .unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("R", &["a", "b"])).len(), 1);
        assert!(p.nodes_for(&Fact::from_names("R", &["z", "b"])).is_empty());
    }

    #[test]
    fn multiple_rules_accumulate_nodes() {
        // Two rules for the same relation hashed on different attributes
        // (this is what a Hypercube policy for R(x,y), S(y,z) looks like on R).
        let r1 = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![
                AddressTerm::HashOfVar(Variable::new("x")),
                AddressTerm::AnyBucket,
            ],
        );
        let r2 = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![
                AddressTerm::AnyBucket,
                AddressTerm::HashOfVar(Variable::new("y")),
            ],
        );
        let p = RuleBasedPolicy::new(
            vec![r1, r2],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 1,
                },
            ],
        )
        .unwrap();
        let f = Fact::from_names("R", &["a", "b"]);
        let nodes = p.nodes_for(&f);
        // rule 1 contributes a row of the grid (2 nodes), rule 2 a column (2 nodes),
        // overlapping in at most one node: between 3 and 4 nodes in total.
        assert!(nodes.len() >= 3 && nodes.len() <= 4, "got {}", nodes.len());
    }

    #[test]
    fn distribute_covers_all_matching_facts() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 3,
                seed: 0,
            }],
        )
        .unwrap();
        let inst = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "c"]),
            Fact::from_names("R", &["c", "d"]),
            Fact::from_names("S", &["ignored"]),
        ]);
        let dist = p.distribute(&inst);
        let stats = dist.stats(&inst);
        assert_eq!(stats.distinct_assigned, 3);
        assert_eq!(stats.skipped, 1);
    }
}
