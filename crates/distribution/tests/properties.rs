//! Property-based tests for distribution policies and the one-round and
//! multi-round engines, including the differential suites: parallel and
//! streaming reshuffle must agree exactly with the materialized
//! single-threaded `distribute`, a one-round-capped `MultiRoundEngine`
//! must agree exactly with `OneRoundEngine`, and the counting `stats` and
//! arithmetic `nodes_for` must agree exactly with the definitions they
//! replaced (kept here as oracles).

use std::collections::{BTreeMap, BTreeSet};

use cq::{Atom, ConjunctiveQuery, Fact, Instance, Value, Variable};
use distribution::{
    AddressTerm, Distribution, DistributionPolicy, DistributionRule, DistributionStats,
    ExplicitPolicy, HashScheme, HypercubePolicy, MultiRoundEngine, Network, Node, OneRoundEngine,
    RoundSchedule, RuleBasedPolicy,
};
use proptest::prelude::*;

/// Oracle: the reshuffle statistics by their definition — build the union
/// of the chunks, then count (what `stats` did before it counted the union
/// without building it).
fn stats_by_union(dist: &Distribution, original: &Instance) -> DistributionStats {
    let union = dist.union_of_chunks();
    let total_assigned: usize = dist.chunks().map(|(_, chunk)| chunk.len()).sum();
    DistributionStats {
        nodes: dist.nodes().count(),
        total_assigned,
        distinct_assigned: union.len(),
        max_load: dist.chunks().map(|(_, c)| c.len()).max().unwrap_or(0),
        skipped: original.facts().filter(|f| !union.contains(f)).count(),
        replication_factor: if union.is_empty() {
            0.0
        } else {
            total_assigned as f64 / union.len() as f64
        },
    }
}

/// Oracle: `nodes_for` of a rule-based policy by the paper's reading of a
/// rule — unify the fact with the rule's atom into a variable binding, list
/// the allowed buckets of every address dimension, enumerate their
/// cartesian product and look every address up (what `nodes_for` did before
/// it computed addresses by mixed-radix arithmetic).
fn nodes_for_by_unification(policy: &RuleBasedPolicy, fact: &Fact) -> BTreeSet<Node> {
    let mut nodes = BTreeSet::new();
    'rules: for rule in policy.rules() {
        if rule.atom.relation != fact.relation || rule.atom.arity() != fact.arity() {
            continue;
        }
        let mut binding: BTreeMap<Variable, Value> = BTreeMap::new();
        for (&var, &value) in rule.atom.args.iter().zip(&fact.values) {
            if *binding.entry(var).or_insert(value) != value {
                continue 'rules;
            }
        }
        let mut addresses: Vec<Vec<usize>> = vec![Vec::new()];
        for (term, scheme) in rule.address.iter().zip(policy.schemes()) {
            let allowed: Vec<usize> = match term {
                AddressTerm::HashOfVar(var) => scheme.bucket_of(binding[var]).into_iter().collect(),
                AddressTerm::AnyBucket => (0..scheme.buckets()).collect(),
            };
            addresses = addresses
                .iter()
                .flat_map(|prefix| {
                    allowed.iter().map(move |&bucket| {
                        let mut address = prefix.clone();
                        address.push(bucket);
                        address
                    })
                })
                .collect();
        }
        nodes.extend(addresses.iter().filter_map(|a| policy.node_at(a)));
    }
    nodes
}

/// A hash scheme from two small numbers: seeded modulo hashing, or the
/// partial identity hash over `d0 … d{buckets-1}` (undefined on the rest).
fn scheme(kind: usize, buckets: usize, seed: usize) -> HashScheme {
    if kind == 2 {
        HashScheme::IdentityOver((0..buckets).map(|v| Value::indexed("d", v)).collect())
    } else {
        HashScheme::Modulo {
            buckets,
            seed: seed as u64,
        }
    }
}

/// A strategy for rule-based policies over 1–3 address dimensions with 1–3
/// rules on `R0`/`R1` atoms of arity 1–3: variables repeat inside atoms,
/// address components mix `bucket` and `bucket*`, schemes mix total and
/// partial hashes.
fn rule_policy_strategy() -> impl Strategy<Value = RuleBasedPolicy> {
    let scheme_spec = (0..3usize, 1..4usize);
    let vars = (0..3usize, 0..3usize, 0..3usize);
    let picks = (0..4usize, 0..4usize, 0..4usize);
    let rule_spec = (0..2usize, 1..4usize, vars, picks);
    (
        proptest::collection::vec(scheme_spec, 1..4),
        proptest::collection::vec(rule_spec, 1..4),
    )
        .prop_map(|(schemes, rules)| {
            let dims = schemes.len();
            let rules = rules
                .into_iter()
                .map(|(rel, arity, (a, b, c), (p, q, r))| {
                    let args: Vec<Variable> = [a, b, c][..arity]
                        .iter()
                        .map(|&v| Variable::indexed("x", v))
                        .collect();
                    let address = [p, q, r][..dims]
                        .iter()
                        .map(|&pick| match pick {
                            0 => AddressTerm::AnyBucket,
                            k => AddressTerm::HashOfVar(args[(k - 1) % arity]),
                        })
                        .collect();
                    DistributionRule {
                        atom: Atom::new(format!("R{rel}").as_str(), args),
                        address,
                    }
                })
                .collect();
            let schemes = schemes
                .into_iter()
                .enumerate()
                .map(|(dim, (kind, buckets))| scheme(kind, buckets, dim))
                .collect();
            RuleBasedPolicy::new(rules, schemes).expect("generated rules are well-formed")
        })
}

/// A strategy for facts over `R0`/`R1` of arity 1–3 with values `d0 … d4`.
fn mixed_fact_strategy() -> impl Strategy<Value = Fact> {
    (0..2usize, 1..4usize, 0..5usize, 0..5usize, 0..5usize).prop_map(|(rel, arity, a, b, c)| {
        let values = [a, b, c].map(|v| Value::indexed("d", v));
        Fact::new(format!("R{rel}").as_str(), values[..arity].to_vec())
    })
}

/// The four policy shapes of the differential suites over a binary `R`
/// (broadcast, round-robin, single-key hash, hypercube), built for the
/// given instance and query.
fn policy_zoo(
    i: &Instance,
    q: &ConjunctiveQuery,
    nodes: usize,
    buckets: usize,
) -> Vec<(&'static str, Box<dyn DistributionPolicy>)> {
    let network = Network::with_size(nodes);
    // single-key hash: buckets on the first variable only, 1 elsewhere
    let dims = q.variables().len();
    let mut hash_buckets = vec![1usize; dims];
    hash_buckets[0] = buckets.max(1);
    vec![
        (
            "broadcast",
            Box::new(ExplicitPolicy::broadcast(&network, i)) as Box<dyn DistributionPolicy>,
        ),
        (
            "round_robin",
            Box::new(ExplicitPolicy::round_robin(&network, i)),
        ),
        (
            "hash",
            Box::new(HypercubePolicy::with_buckets(q, &hash_buckets).unwrap()),
        ),
        (
            "hypercube",
            Box::new(HypercubePolicy::uniform(q, buckets.max(1)).unwrap()),
        ),
    ]
}

/// A strategy for small instances over one binary relation `R`.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let fact = (0..6usize, 0..6usize);
    proptest::collection::vec(fact, 0..30).prop_map(|facts| {
        Instance::from_facts(
            facts
                .into_iter()
                .map(|(a, b)| Fact::new("R", vec![Value::indexed("d", a), Value::indexed("d", b)])),
        )
    })
}

/// A strategy for a small query over `R` (chain of length 1..4 with a random
/// number of head variables).
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (1usize..4, 0usize..3).prop_map(|(len, head)| {
        let var = |i: usize| cq::Variable::indexed("x", i);
        let body: Vec<cq::Atom> = (0..len)
            .map(|i| cq::Atom::new("R", vec![var(i), var(i + 1)]))
            .collect();
        let head_vars: Vec<cq::Variable> = (0..=len).take(head + 1).map(var).collect();
        ConjunctiveQuery::new(cq::Atom::new("T", head_vars), body).unwrap()
    })
}

proptest! {
    // Bounded and explicitly seeded: 48 deterministic cases per property so
    // `cargo test -q` is reproducible and fast.
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xD157_5EED))]

    /// A policy only ever assigns facts to nodes of its own network, and the
    /// distributed chunks partition-with-replication the non-skipped facts.
    #[test]
    fn distribution_respects_the_network(i in instance_strategy(), buckets in 1usize..4, q in query_strategy()) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        for fact in i.facts() {
            for node in policy.nodes_for(fact) {
                prop_assert!(policy.network().contains(node));
            }
        }
        let dist = policy.distribute(&i);
        let stats = dist.stats(&i);
        prop_assert_eq!(stats.distinct_assigned + stats.skipped, i.len());
        prop_assert!(stats.max_load <= stats.total_assigned);
        prop_assert!(dist.union_of_chunks().len() <= i.len());
    }

    /// Hypercube generosity (Lemma 5.7): the required facts of every
    /// satisfying valuation meet at the node addressed by the valuation.
    #[test]
    fn hypercube_generosity(i in instance_strategy(), buckets in 1usize..4, q in query_strategy()) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        for v in cq::satisfying_valuations(&q, &i).into_iter().take(25) {
            let node = policy.node_for_valuation(&v).unwrap();
            let meeting = policy.meeting_nodes(&v.required_facts(&q)).unwrap();
            prop_assert!(meeting.contains(&node));
        }
    }

    /// One-round evaluation is monotone in the policy: broadcasting gives the
    /// exact answer, any explicit sub-policy gives a subset of it.
    #[test]
    fn one_round_results_are_bounded_by_the_centralized_answer(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..5,
        seedmask in 0u64..u64::MAX,
    ) {
        let expected = cq::evaluate(&q, &i);
        let network = Network::with_size(nodes);

        let broadcast = ExplicitPolicy::broadcast(&network, &i);
        let b = OneRoundEngine::new(&broadcast).evaluate(&q, &i);
        prop_assert_eq!(&b.result, &expected);

        // A deterministic "random" single-assignment policy from the seed mask.
        let mut single = ExplicitPolicy::new(network.clone());
        for (k, fact) in i.facts().enumerate() {
            let node = Node::numbered(((seedmask >> (k % 32)) as usize ^ k) % nodes);
            single.assign(fact.clone(), [node]);
        }
        let s = OneRoundEngine::new(&single).evaluate(&q, &i);
        prop_assert!(expected.contains_all(&s.result));
    }

    /// The engine's per-node outputs are consistent with the union result.
    #[test]
    fn per_node_outputs_are_consistent(i in instance_strategy(), q in query_strategy(), buckets in 1usize..3) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        let outcome = OneRoundEngine::new(&policy).evaluate(&q, &i);
        let total: usize = outcome.per_node_output.values().sum();
        prop_assert!(outcome.result.len() <= total || outcome.result.is_empty());
        prop_assert!(outcome.max_node_output() <= outcome.result.len() || outcome.result.is_empty());
    }

    /// Differential: parallel and streaming reshuffle agree chunk-for-chunk
    /// with the materialized single-threaded `distribute`, across all four
    /// policy shapes.
    #[test]
    fn reshuffle_modes_agree_with_materialized_distribute(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
        workers in 2usize..5,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let reference = policy.distribute(&i);
            let parallel = policy.distribute_parallel(&i, workers);
            prop_assert_eq!(&reference, &parallel, "parallel distribute diverged for {}", name);

            let stream = policy.distribute_stream(&i, workers);
            prop_assert_eq!(
                &reference, &stream.materialize(),
                "streamed chunks diverged for {}", name
            );
            prop_assert_eq!(
                reference.stats(&i), stream.stats(&i),
                "stream stats diverged for {}", name
            );
            for (node, chunk) in reference.chunks() {
                prop_assert_eq!(
                    chunk, &stream.for_node_lazy(node),
                    "lazy chunk of {} diverged for {}", node, name
                );
                prop_assert_eq!(chunk, &policy.for_node_lazy(&i, node));
            }
        }
    }

    /// Differential: `stats` — of the materialized distribution and of the
    /// stream, against the instance they were built from (the stream's
    /// counted fast path), an equal copy of it, and an unrelated instance —
    /// equals the union-building definition. The zoo is extended by a
    /// policy that skips facts (round-robin over half of the instance).
    #[test]
    fn stats_agree_with_the_union_based_definition(
        i in instance_strategy(),
        other in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
        workers in 1usize..4,
    ) {
        let half = Instance::from_facts(i.facts().step_by(2).cloned());
        let skipping = ExplicitPolicy::round_robin(&Network::with_size(nodes), &half);
        let mut zoo = policy_zoo(&i, &q, nodes, buckets);
        zoo.push(("skipping", Box::new(skipping)));
        for (name, policy) in zoo {
            let dist = policy.distribute(&i);
            let stream = policy.distribute_stream(&i, workers);
            for original in [&i, &i.clone(), &other, &Instance::new()] {
                let expected = stats_by_union(&dist, original);
                prop_assert_eq!(dist.stats(original), expected, "distribution stats of {}", name);
                prop_assert_eq!(stream.stats(original), expected, "stream stats of {}", name);
            }
            if name == "skipping" {
                prop_assert_eq!(dist.stats(&i).skipped, i.len() - half.len());
            }
        }
    }

    /// Differential: the arithmetic `nodes_for` of rule-based policies
    /// equals rule unification + address enumeration, on policies with
    /// repeated variables, partial (`IdentityOver`) hashes and `bucket*`
    /// dimensions, and on facts of every arity (matching or not).
    #[test]
    fn rule_nodes_for_agrees_with_rule_unification(
        policy in rule_policy_strategy(),
        facts in proptest::collection::vec(mixed_fact_strategy(), 1..40),
    ) {
        for fact in &facts {
            let nodes = policy.nodes_for(fact);
            prop_assert_eq!(&nodes, &nodes_for_by_unification(&policy, fact), "{}", fact);
            prop_assert!(nodes.iter().all(|&node| policy.network().contains(node)));
        }
    }

    /// The same differential through `HypercubePolicy`, with a partial
    /// identity hash on some dimensions (values outside it are skipped).
    #[test]
    fn hypercube_nodes_for_agrees_with_rule_unification(
        i in instance_strategy(),
        q in query_strategy(),
        kinds in proptest::collection::vec((0..3usize, 1..4usize), 4..5),
    ) {
        let schemes = kinds
            .iter()
            .take(q.variables().len())
            .enumerate()
            .map(|(dim, &(kind, buckets))| scheme(kind, buckets, dim))
            .collect();
        let policy = HypercubePolicy::new(&q, schemes).unwrap();
        let scattered = HypercubePolicy::scattered_for(&q, &i).unwrap();
        for fact in i.facts() {
            for p in [&policy, &scattered] {
                prop_assert_eq!(p.nodes_for(fact), nodes_for_by_unification(p.as_rules(), fact));
            }
        }
    }

    /// Differential: a pooled engine with a sharded reshuffle produces the
    /// same outcome as the sequential one (modulo timings).
    #[test]
    fn pooled_engine_agrees_with_sequential_engine(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
        workers in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let sequential = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i);
            let pooled = OneRoundEngine::new(policy.as_ref())
                .workers(workers)
                .distribute_workers(workers)
                .evaluate(&q, &i);
            prop_assert_eq!(&sequential.result, &pooled.result, "result diverged for {}", name);
            prop_assert_eq!(&sequential.per_node_load, &pooled.per_node_load);
            prop_assert_eq!(&sequential.per_node_output, &pooled.per_node_output);
            prop_assert_eq!(sequential.stats, pooled.stats);
        }
    }

    /// Differential: a `MultiRoundEngine` capped at one round is exactly a
    /// `OneRoundEngine`, across all four policy shapes.
    #[test]
    fn single_round_multi_round_is_one_round(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let one = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i);
            let multi = MultiRoundEngine::new(RoundSchedule::repeat(policy.as_ref()))
                .rounds(1)
                .evaluate(&q, &i);
            prop_assert_eq!(multi.rounds_run(), 1);
            prop_assert_eq!(&multi.result, &one.result, "result diverged for {}", name);
            let round = &multi.rounds[0];
            prop_assert_eq!(&round.per_node_load, &one.per_node_load);
            prop_assert_eq!(&round.per_node_output, &one.per_node_output);
            prop_assert_eq!(round.stats, one.stats);
            prop_assert_eq!(round.workers, one.workers);
            prop_assert_eq!(multi.total_comm_volume(), one.stats.total_assigned);
        }
    }
}
