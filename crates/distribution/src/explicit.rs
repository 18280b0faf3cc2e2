//! Explicitly enumerated (finite) distribution policies — the class `Pfin`.

use std::collections::{BTreeMap, BTreeSet};

use cq::{Fact, Instance};

use crate::network::{Network, Node};
use crate::policy::{DistributionPolicy, FinitePolicy};

/// A distribution policy given by exhaustive enumeration of `(fact, nodes)`
/// pairs, plus a default node set for unlisted facts.
///
/// With an empty default (the usual case) this is exactly the class `Pfin`
/// of the paper: the fact universe `facts(P)` is the set of explicitly
/// listed facts with a non-empty node set. A non-empty default is used to
/// model the "send everything else everywhere" policies that appear in the
/// proofs of Lemma 4.2 and Proposition C.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplicitPolicy {
    network: Network,
    assignments: BTreeMap<Fact, BTreeSet<Node>>,
    default_nodes: BTreeSet<Node>,
}

impl ExplicitPolicy {
    /// A policy over `network` that skips every fact (until assignments are added).
    pub fn new(network: Network) -> ExplicitPolicy {
        ExplicitPolicy {
            network,
            assignments: BTreeMap::new(),
            default_nodes: BTreeSet::new(),
        }
    }

    /// Sets the node set used for facts without an explicit assignment.
    /// Nodes are added to the network if missing, as [`assign`](Self::assign)
    /// does.
    pub fn with_default<I: IntoIterator<Item = Node>>(mut self, nodes: I) -> ExplicitPolicy {
        self.default_nodes = nodes.into_iter().collect();
        for &n in &self.default_nodes {
            self.network.add(n);
        }
        self
    }

    /// Assigns `fact` to exactly the given nodes (overwriting any previous
    /// assignment). Nodes are added to the network if missing.
    pub fn assign<I: IntoIterator<Item = Node>>(&mut self, fact: Fact, nodes: I) {
        let set: BTreeSet<Node> = nodes.into_iter().collect();
        for &n in &set {
            self.network.add(n);
        }
        self.assignments.insert(fact, set);
    }

    /// Explicitly skips `fact` (maps it to the empty node set).
    pub fn skip(&mut self, fact: Fact) {
        self.assignments.insert(fact, BTreeSet::new());
    }

    /// A policy that sends every fact of `universe` to every node.
    pub fn broadcast(network: &Network, universe: &Instance) -> ExplicitPolicy {
        let mut p = ExplicitPolicy::new(network.clone());
        for fact in universe.facts() {
            p.assign(fact.clone(), network.nodes());
        }
        p
    }

    /// A total broadcast policy: every fact, listed or not, goes to every
    /// node of `network`. Unlike [`ExplicitPolicy::broadcast`], which
    /// enumerates a concrete universe, this stays total when later rounds
    /// feed new facts back in.
    pub fn total_broadcast(network: &Network) -> ExplicitPolicy {
        ExplicitPolicy::new(network.clone()).with_default(network.nodes())
    }

    /// A policy that distributes the facts of `universe` round-robin over the
    /// nodes of `network` (each fact to exactly one node). On an empty
    /// network there is no node to send a fact to: every fact is skipped.
    pub fn round_robin(network: &Network, universe: &Instance) -> ExplicitPolicy {
        let nodes: Vec<Node> = network.nodes().collect();
        let mut p = ExplicitPolicy::new(network.clone());
        if nodes.is_empty() {
            return p;
        }
        for (i, fact) in universe.facts().enumerate() {
            p.assign(fact.clone(), [nodes[i % nodes.len()]]);
        }
        p
    }

    /// The single-node policy from the proof of Proposition C.2 (case m = 1):
    /// `skipped` is mapped to the empty set, every other fact (including
    /// unlisted ones) to the single node `n0`.
    pub fn skip_one(universe: &Instance, skipped: &Fact) -> ExplicitPolicy {
        let node = Node::numbered(0);
        let network = Network::new([node]);
        let mut p = ExplicitPolicy::new(network).with_default([node]);
        for fact in universe.facts() {
            if fact == skipped {
                p.skip(fact.clone());
            } else {
                p.assign(fact.clone(), [node]);
            }
        }
        p.skip(skipped.clone());
        p
    }

    /// The policy from the proofs of Lemma 4.2 and Proposition C.2
    /// (case m ≥ 2): for the facts `f₁, …, f_m` the network is
    /// `{κ₁, …, κ_m}`, `P(f_i) = N \ {κ_i}`, and every other fact is sent to
    /// all nodes.
    ///
    /// On any instance either all facts meet somewhere or the instance
    /// contains all of `facts`; no node ever holds all of `facts`.
    pub fn all_but_one(facts: &[Fact]) -> ExplicitPolicy {
        assert!(
            facts.len() >= 2,
            "all_but_one requires at least two facts (use skip_one for m = 1)"
        );
        let nodes: Vec<Node> = (0..facts.len()).map(Node::numbered).collect();
        let network = Network::new(nodes.iter().copied());
        let mut p = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        for (i, fact) in facts.iter().enumerate() {
            p.assign(
                fact.clone(),
                nodes
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, n)| n),
            );
        }
        p
    }

    /// Number of explicit assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the policy has no explicit assignments.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

impl DistributionPolicy for ExplicitPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn for_each_node(&self, fact: &Fact, visit: &mut dyn FnMut(usize, Node)) {
        let nodes = self.assignments.get(fact).unwrap_or(&self.default_nodes);
        for &node in nodes {
            visit(0, node);
        }
    }
}

impl FinitePolicy for ExplicitPolicy {
    fn fact_universe(&self) -> Instance {
        Instance::from_facts(
            self.assignments
                .iter()
                .filter(|(_, nodes)| !nodes.is_empty())
                .map(|(f, _)| f.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts3() -> Vec<Fact> {
        vec![
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "c"]),
            Fact::from_names("R", &["c", "a"]),
        ]
    }

    #[test]
    fn broadcast_sends_everything_everywhere() {
        let network = Network::with_size(3);
        let universe = Instance::from_facts(facts3());
        let p = ExplicitPolicy::broadcast(&network, &universe);
        for f in universe.facts() {
            assert_eq!(p.nodes_for(f).len(), 3);
        }
        assert_eq!(p.fact_universe(), universe);
    }

    #[test]
    fn round_robin_assigns_each_fact_once() {
        let network = Network::with_size(2);
        let universe = Instance::from_facts(facts3());
        let p = ExplicitPolicy::round_robin(&network, &universe);
        let mut counts = [0usize; 2];
        for f in universe.facts() {
            let nodes = p.nodes_for(f);
            assert_eq!(nodes.len(), 1);
            if nodes.contains(&Node::numbered(0)) {
                counts[0] += 1;
            } else {
                counts[1] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 3);
        assert!(counts[0] >= 1 && counts[1] >= 1);
    }

    #[test]
    fn round_robin_on_an_empty_network_skips_every_fact() {
        let universe = Instance::from_facts(facts3());
        let p = ExplicitPolicy::round_robin(&Network::default(), &universe);
        for f in universe.facts() {
            assert!(p.nodes_for(f).is_empty());
        }
        assert!(p.fact_universe().is_empty());
        assert!(p.distribute(&universe).nodes().next().is_none());
    }

    #[test]
    fn unlisted_facts_use_the_default() {
        let network = Network::with_size(2);
        let p = ExplicitPolicy::new(network.clone());
        assert!(p.nodes_for(&Fact::from_names("R", &["x", "y"])).is_empty());

        let p2 = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        assert_eq!(p2.nodes_for(&Fact::from_names("R", &["x", "y"])).len(), 2);
    }

    #[test]
    fn default_nodes_join_the_network() {
        let fresh = Node::new("fresh");
        let p = ExplicitPolicy::new(Network::with_size(2)).with_default([fresh]);
        assert!(p.network().contains(fresh));
        assert_eq!(p.network().len(), 3);
        let dist = p.distribute(&Instance::from_facts(facts3()));
        assert!(dist.nodes().eq(p.network().nodes()));
        assert_eq!(dist.chunk(fresh).len(), 3);
    }

    #[test]
    fn skip_one_policy_shape() {
        let facts = facts3();
        let universe = Instance::from_facts(facts.clone());
        let p = ExplicitPolicy::skip_one(&universe, &facts[0]);
        assert!(p.nodes_for(&facts[0]).is_empty());
        assert_eq!(p.nodes_for(&facts[1]).len(), 1);
        // unlisted facts still go to the single node
        assert_eq!(p.nodes_for(&Fact::from_names("S", &["z"])).len(), 1);
        // the skipped fact is not part of facts(P)
        assert!(!p.fact_universe().contains(&facts[0]));
    }

    #[test]
    fn all_but_one_policy_never_gathers_all_facts() {
        let facts = facts3();
        let p = ExplicitPolicy::all_but_one(&facts);
        assert_eq!(p.network().len(), 3);
        // every node misses exactly one of the listed facts
        for node in p.network().nodes() {
            let missing = facts
                .iter()
                .filter(|f| !p.nodes_for(f).contains(&node))
                .count();
            assert_eq!(missing, 1);
        }
        // the full set of listed facts never meets
        let all = Instance::from_facts(facts.clone());
        assert!(!p.facts_meet(&all));
        // but any proper subset meets somewhere
        let pair = Instance::from_facts(facts[..2].to_vec());
        assert!(p.facts_meet(&pair));
        // unlisted facts go everywhere
        assert_eq!(p.nodes_for(&Fact::from_names("S", &["q"])).len(), 3);
    }

    #[test]
    fn assign_overwrites_and_grows_network() {
        let mut p = ExplicitPolicy::new(Network::with_size(1));
        let f = Fact::from_names("R", &["a", "b"]);
        p.assign(f.clone(), [Node::new("extra")]);
        assert!(p.network().contains(Node::new("extra")));
        assert_eq!(p.nodes_for(&f).len(), 1);
        p.assign(f.clone(), [Node::numbered(0), Node::new("extra")]);
        assert_eq!(p.nodes_for(&f).len(), 2);
        p.skip(f.clone());
        assert!(p.nodes_for(&f).is_empty());
        assert!(p.fact_universe().is_empty());
    }
}
