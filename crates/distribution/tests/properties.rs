//! Property-based tests for distribution policies and the one-round and
//! multi-round engines, including the differential suites: `distribute`
//! must build exactly the chunks `{f ∈ I : node ∈ nodes_for(f)}` of its
//! definition on every policy, a pooled engine must agree with the
//! sequential one, a one-round run must answer the union of its chunks'
//! answers (`Q(I)` under a parallel-correct policy), and the counting
//! `stats` and arithmetic
//! `nodes_for` must agree exactly with the definitions they replaced (kept
//! here as oracles).

use std::collections::{BTreeMap, BTreeSet};

use cq::{Atom, ConjunctiveQuery, Fact, Instance, Value, Variable};
use distribution::{
    AddressTerm, Distribution, DistributionPolicy, DistributionRule, DistributionStats,
    ExplicitPolicy, HashScheme, HypercubePolicy, InMemoryTransport, MultiQueryOutcome,
    MultiRoundEngine, Network, Node, NodeResult, OneRoundEngine, RoundSchedule, RuleBasedPolicy,
    RunPlan, Shipment, Transport, TransportError,
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

/// The policy shapes of the differential suites over a binary `R`
/// (broadcast, total broadcast, round-robin, round-robin over half of the
/// instance, single-key hash, hypercube), built for the given instance and
/// query. The total broadcast sends every fact through its default node
/// set; the half round-robin skips the other half (it visits no node).
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
    let half = Instance::from_facts(i.facts().step_by(2).cloned());
    vec![
        (
            "broadcast",
            Box::new(ExplicitPolicy::broadcast(&network, i)) as Box<dyn DistributionPolicy>,
        ),
        (
            "total_broadcast",
            Box::new(ExplicitPolicy::total_broadcast(&network)),
        ),
        (
            "round_robin",
            Box::new(ExplicitPolicy::round_robin(&network, i)),
        ),
        (
            "skipping",
            Box::new(ExplicitPolicy::round_robin(&network, &half)),
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

/// A policy zoo for split rounds of `q`: `(name, policy, parallel-correct
/// for q, splits)`. The Hypercube members built for `q` itself — uniform,
/// per-dimension buckets from `spread`, single-key hash join — split
/// exactly when `q` repeats a relation. An explicit broadcast, a Hypercube
/// policy of another query over `R` and the scattered member (identity
/// hashes over `adom(i)`, which are partial) stay plain.
fn split_zoo(
    i: &Instance,
    q: &ConjunctiveQuery,
    buckets: usize,
    spread: &[usize],
) -> Vec<(&'static str, Box<dyn DistributionPolicy>, bool, bool)> {
    let splits = q.has_self_joins();
    let dims = &spread[..q.variables().len()];
    // Over other variable names than every shape of `q`, so never `q`.
    let other = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let mut zoo = vec![
        (
            "uniform",
            Box::new(HypercubePolicy::uniform(q, buckets).unwrap()) as Box<dyn DistributionPolicy>,
            true,
            splits,
        ),
        (
            "with_buckets",
            Box::new(HypercubePolicy::with_buckets(q, dims).unwrap()),
            true,
            splits,
        ),
        (
            "hash_join",
            Box::new(HypercubePolicy::hash_join(q, buckets + 1).unwrap()),
            true,
            splits,
        ),
        (
            "explicit",
            Box::new(ExplicitPolicy::broadcast(&Network::with_size(2), i)),
            true,
            false,
        ),
        (
            "other_query",
            Box::new(HypercubePolicy::uniform(&other, buckets + 1).unwrap()),
            false,
            false,
        ),
    ];
    // Identity hashes over an empty active domain have no buckets at all.
    if !i.is_empty() {
        let scattered = HypercubePolicy::scattered_for(q, i).unwrap();
        zoo.push(("scattered", Box::new(scattered), true, false));
    }
    zoo
}

/// An in-memory transport that keeps every node's output of the round,
/// and the last full chunk each node was shipped: its resident shard.
#[derive(Default)]
struct Recording {
    inner: Option<InMemoryTransport>,
    outputs: BTreeMap<Node, Instance>,
    shards: BTreeMap<Node, Instance>,
}

impl Transport for Recording {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
    ) -> Result<(), TransportError> {
        self.inner
            .get_or_insert_with(|| InMemoryTransport::new(1))
            .begin_round(round, query)
    }

    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError> {
        if let Shipment::Full(chunk) = &shipment {
            self.shards.insert(node, (**chunk).clone());
        }
        self.inner
            .as_mut()
            .expect("the round began")
            .send(node, shipment)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.inner.as_mut().expect("the round began").barrier()
    }

    fn recv(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        let result = self.inner.as_mut().expect("the round began").recv(node)?;
        self.outputs.insert(node, result.output.clone());
        Ok(result)
    }
}

/// `n` random `R` facts over `d0`–`d{domain - 1}` (xorshift64, seeded), each
/// value its own loop too, so the relax queries' `R(y, y)` has rows.
fn seeded_instance(seed: u64, domain: u64, n: usize) -> Instance {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Value::indexed("d", (state % domain) as usize)
    };
    let edges = (0..n).map(|_| Fact::new("R", vec![next(), next()]));
    let loops = (0..domain as usize).map(|d| Fact::new("R", vec![Value::indexed("d", d); 2]));
    Instance::from_facts(edges.chain(loops))
}

/// Every round merge answers the bulk build of its node outputs, which a
/// [`Recording`] transport keeps: the disjoint home answers of a split
/// triangle round; the overlapping answers of relax's second query on the
/// shards its first left resident; and, over an arity-6 head, keys too
/// wide to pack.
#[test]
fn the_round_merge_is_the_bulk_build_of_the_node_outputs() {
    let bulk = |outputs: &BTreeMap<Node, Instance>| {
        Instance::from_facts(outputs.values().flat_map(Instance::facts).cloned())
    };
    let sum = |outputs: &BTreeMap<Node, Instance>| outputs.values().map(Instance::len).sum();
    let i = seeded_instance(0x5EED_2015, 12, 80);
    // disjoint: the split triangle round's home answers
    let triangle = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap();
    let policy = HypercubePolicy::uniform(&triangle, 2).unwrap();
    let mut transport = Recording::default();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));
    let run = engine.evaluate_via(&mut transport, &triangle, &i).unwrap();
    assert_eq!(*run.result, bulk(&transport.outputs));
    assert_eq!(*run.result, cq::evaluate(&triangle, &i));
    assert_eq!(run.result.len(), sum(&transport.outputs), "disjoint");
    assert!(run.result.len() > 10);
    // overlapping: relax's Q2 on the shards Q1's split round left resident
    let relax = [
        "T(x, z) :- R(x, y), R(y, z), R(y, y).",
        "T(x, z) :- R(x, y), R(y, z).",
    ]
    .map(|text| ConjunctiveQuery::parse(text).unwrap());
    let policy = HypercubePolicy::uniform(&relax[0], 3).unwrap();
    let mut transport = Recording::default();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));
    let run = engine
        .evaluate_queries_via(&mut transport, &relax, &i, &mut |_, _| true)
        .unwrap();
    let q2 = &run.per_query[1];
    assert_eq!(q2.elided_reshuffles, 1, "Q2 runs on the resident shards");
    assert_eq!(*q2.result, bulk(&transport.outputs));
    assert_eq!(*q2.result, cq::evaluate(&relax[1], &i));
    assert!(sum(&transport.outputs) > q2.result.len(), "overlapping");
    // spilled: an arity-6 head, on a plain round of a self-join-free query
    let wide = "T(a, b, c, d, e, f) :- R(a, b), S(b, c), U(c, d), V(d, e), W(e, f).";
    let wide = ConjunctiveQuery::parse(wide).unwrap();
    let renamed = ["R", "S", "U", "V", "W"].into_iter().flat_map(|relation| {
        i.facts()
            .map(move |f| Fact::new(relation, f.values.clone()))
    });
    let chain = Instance::from_facts(renamed);
    let policy = HypercubePolicy::uniform(&wide, 2).unwrap();
    let mut transport = Recording::default();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));
    let run = engine.evaluate_via(&mut transport, &wide, &chain).unwrap();
    assert_eq!(*run.result, bulk(&transport.outputs));
    assert_eq!(*run.result, cq::evaluate(&wide, &chain));
    assert!(run.result.len() > 10);
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
        prop_assert_eq!(&*b.result, &expected);

        // A deterministic "random" single-assignment policy from the seed mask.
        let mut single = ExplicitPolicy::new(network.clone());
        for (k, fact) in i.facts().enumerate() {
            let node = Node::numbered(((seedmask >> (k % 32)) as usize ^ k) % nodes);
            single.assign(fact.clone(), [node]);
        }
        let s = OneRoundEngine::new(&single).evaluate(&q, &i);
        prop_assert!(expected.contains_all(&s.result));
    }

    /// The engine's per-node outputs against the definitions, on path
    /// queries, triangles and a relax-shaped body with a loop atom. Split
    /// or plain, every node's load is the size of its chunk in
    /// `distribute`. Every round answers exactly what the scan oracle
    /// answers centrally when its policy is parallel-correct. A split
    /// round — a total Hypercube policy of the round's own query, which
    /// repeats a relation — answers at every node exactly the valuations
    /// whose home it is (`node_for_valuation`); with a full head the node
    /// outputs are then disjoint and sum to the result. Every other round
    /// is plain: node `n` answers `Q(chunk_n)` of the plain reshuffle.
    #[test]
    fn per_node_outputs_are_consistent(
        i in instance_strategy(),
        path in query_strategy(),
        shape in 0usize..3,
        buckets in 1usize..3,
        spread in proptest::collection::vec(1usize..4, 4..5),
    ) {
        let q = match shape {
            0 => path,
            1 => ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap(),
            _ => ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap(),
        };
        let oracle = oracle::evaluate(&q, &i);
        for (name, policy, parallel_correct, splits) in split_zoo(&i, &q, buckets, &spread) {
            let mut transport = Recording::default();
            let engine = MultiRoundEngine::new(RoundSchedule::repeat(policy.as_ref()));
            let mut run = engine.evaluate_via(&mut transport, &q, &i).unwrap();
            let outcome = run.rounds.remove(0);
            let outputs = transport.outputs;
            prop_assert_eq!(
                &*outcome.result,
                &Instance::from_facts(outputs.values().flat_map(Instance::facts).cloned()),
                "{}: the result is the union of the node outputs", name
            );
            if parallel_correct {
                prop_assert_eq!(&*outcome.result, &oracle, "{} on {}", name, q);
            }
            for (node, output) in &outputs {
                prop_assert_eq!(outcome.per_node_output[node], output.len(), "{}", name);
            }
            let dist = policy.distribute(&i);
            for (node, &load) in &outcome.per_node_load {
                prop_assert_eq!(load, dist.chunk(*node).len(), "{} at {}: load", name, node);
            }
            if splits {
                let hypercube = policy.as_hypercube().expect("only Hypercube policies split");
                let mut homes: BTreeMap<Node, Instance> = BTreeMap::new();
                for v in cq::satisfying_valuations(&q, &i) {
                    let home = hypercube.node_for_valuation(&v).expect("total hashes");
                    homes.entry(home).or_default().insert(v.derived_fact(&q));
                }
                for (node, output) in &outputs {
                    let home = homes.remove(node).unwrap_or_default();
                    prop_assert_eq!(output, &home, "{} at {}: home answers of {}", name, node, q);
                }
                prop_assert!(homes.is_empty(), "{}: a home node was not shipped", name);
                if q.is_full() {
                    let total: usize = outcome.per_node_output.values().sum();
                    prop_assert_eq!(total, outcome.result.len(), "{}: disjoint outputs", name);
                }
            } else {
                for (node, output) in &outputs {
                    let local = cq::evaluate(&q, dist.chunk(*node));
                    prop_assert_eq!(output, &local, "{} at {}: plain chunk of {}", name, node, q);
                }
            }
        }
    }

    /// `distribute` is `dist_P(I)` by definition: for every policy of the
    /// zoo and every node of its network, the node's chunk is exactly
    /// `{f ∈ I : node ∈ nodes_for(f)}`, and no other node gets a chunk.
    #[test]
    fn distribute_equals_the_definition(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let dist = policy.distribute(&i);
            prop_assert!(dist.nodes().eq(policy.network().nodes()), "nodes of {}", name);
            for node in policy.network().nodes() {
                let expected = Instance::from_facts(
                    i.facts().filter(|f| policy.nodes_for(f).contains(&node)).cloned(),
                );
                prop_assert_eq!(dist.chunk(node), &expected, "chunk of {} under {}", node, name);
            }
        }
    }

    /// Differential: `Distribution::stats` — against the instance it was
    /// built from, an equal copy of it, an unrelated instance and the empty
    /// one — and the engine's counted statistics of a round over the
    /// source equal the union-building definition.
    #[test]
    fn stats_agree_with_the_union_based_definition(
        i in instance_strategy(),
        other in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let dist = policy.distribute(&i);
            for original in [&i, &i.clone(), &other, &Instance::new()] {
                let expected = stats_by_union(&dist, original);
                prop_assert_eq!(dist.stats(original), expected, "distribution stats of {}", name);
            }
            let counted = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i).stats;
            prop_assert_eq!(counted, stats_by_union(&dist, &i), "engine stats of {}", name);
            if name == "skipping" {
                prop_assert_eq!(dist.stats(&i).skipped, i.len() / 2);
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

    /// Differential: a pooled engine produces the same outcome as the
    /// sequential one (modulo timings).
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
                .evaluate(&q, &i);
            prop_assert_eq!(&sequential.result, &pooled.result, "result diverged for {}", name);
            prop_assert_eq!(&sequential.per_node_load, &pooled.per_node_load);
            prop_assert_eq!(&sequential.per_node_output, &pooled.per_node_output);
            prop_assert_eq!(sequential.stats, pooled.stats);
        }
    }

    /// A one-round run answers `⋃ₙ Q(dist_P(I)(n))` (Definition 3.1's
    /// union, from `distribute` and a centralized evaluation per chunk) on
    /// every policy shape, and `Q(I)` — by the triejoin and by the scan
    /// oracle — where the policy is parallel-correct for the query: both
    /// broadcasts and the two Hypercube policies of `q`. `OneRoundEngine`
    /// is the round loop capped at one round, so comparing the two is a
    /// determinism check: two runs of one path report the same round.
    #[test]
    fn single_round_multi_round_is_one_round(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
    ) {
        let central = cq::evaluate(&q, &i);
        prop_assert_eq!(&central, &oracle::evaluate(&q, &i));
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let one = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i);
            let multi = MultiRoundEngine::new(RoundSchedule::repeat(policy.as_ref()))
                .rounds(1)
                .evaluate(&q, &i);
            let mut union = Instance::new();
            for (_, chunk) in policy.distribute(&i).chunks() {
                union.absorb(&cq::evaluate(&q, chunk));
            }
            prop_assert_eq!(&*multi.result, &union, "{}: not the union of the chunks' answers", name);
            if ["broadcast", "total_broadcast", "hash", "hypercube"].contains(&name) {
                prop_assert_eq!(&*multi.result, &central, "{} is parallel-correct for {}", name, q);
            }
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

/// The queries of the plan property: binary heads over `R`, so any of them
/// can feed back into `R`; two repeat `R` and split under their own
/// Hypercube.
const PLANNED_QUERIES: [&str; 4] = [
    "T(x, z) :- R(x, y), R(y, z).",
    "T(x, z) :- R(x, y), R(y, z), R(y, y).",
    "T(x, y) :- R(x, y).",
    "T(x, y) :- R(x, z), R(z, y), R(y, x).",
];

/// One decision of a run: `(query, round, kind, value)`, with `round`
/// `None` outside a round of the query's own loop.
type Decision = (usize, Option<usize>, &'static str, usize);

/// The decisions a traced run recorded below the span `root`: the elision
/// claims (`elision_claim`), `distribute`'s `parts`, `delta_round`,
/// `reshard`, `reshuffle_elided` and the resident round's node count.
fn recorded(events: &[obs::TraceEvent], root: u64) -> Vec<Decision> {
    let spans: BTreeMap<u64, &obs::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::Span)
        .map(|e| (e.id, e))
        .collect();
    let arg = |e: &obs::TraceEvent, key: &str| -> usize {
        match e.args.iter().find(|(k, _)| k == key) {
            Some((_, v)) if v == "true" => 1,
            Some((_, v)) if v == "false" => 0,
            Some((_, v)) => v.parse().expect("a count"),
            None => panic!("{} has no {key}", e.name),
        }
    };
    let mut decisions = Vec::new();
    for event in events.iter().filter(|e| e.pid == 0) {
        let span = event.kind == obs::EventKind::Span;
        let (kind, value) = match (event.name.as_str(), span) {
            ("elision_claim", false) => ("claim", arg(event, "transfers")),
            ("distribute", true) => ("parts", arg(event, "parts")),
            ("delta_round", true) => ("delta", arg(event, "round")),
            ("reshard", false) => ("reshard", arg(event, "round")),
            ("reshuffle_elided", false) => ("elided", 0),
            ("resident_round", true) => ("resident", arg(event, "nodes")),
            _ => continue,
        };
        let (mut query, mut round, mut below_root) = (None, None, false);
        let mut parent = if span { event.parent } else { event.id };
        while let Some(ancestor) = spans.get(&parent) {
            match ancestor.name.as_str() {
                "query" => query = query.or(Some(arg(ancestor, "index"))),
                "eval_round" => round = round.or(Some(arg(ancestor, "round"))),
                _ => {}
            }
            below_root |= ancestor.id == root;
            parent = ancestor.parent;
        }
        if kind == "claim" {
            query = Some(arg(event, "query"));
        }
        if below_root {
            decisions.push((query.unwrap_or(0), round, kind, value));
        }
    }
    decisions.sort();
    decisions
}

/// The nodes of `policy` a read pinning `pinned` runs on: every node when
/// nothing is pinned; else those whose Hypercube address (the node's name,
/// `node(a,b,…)`, one digit per dimension) is 0 in every pinned dimension.
fn pinned_nodes(policy: &dyn DistributionPolicy, pinned: &[Variable]) -> BTreeSet<Node> {
    let nodes = policy.network().nodes();
    let Some(hypercube) = policy.as_hypercube() else {
        assert!(pinned.is_empty(), "only a Hypercube's dimensions pin");
        return nodes.collect();
    };
    let dims: Vec<usize> = pinned
        .iter()
        .map(|v| hypercube.dimensions().iter().position(|d| d == v).unwrap())
        .collect();
    let address = |node: &Node| -> Vec<usize> {
        let digits = node
            .as_str()
            .trim_start_matches("node(")
            .trim_end_matches(')');
        digits.split(',').map(|d| d.parse().unwrap()).collect()
    };
    nodes
        .filter(|node| dims.iter().all(|&dim| address(node)[dim] == 0))
        .collect()
}

/// The decisions `plan` prescribes for a run whose per-query outcomes are
/// `outcome`. The run's rounds and its convergence are the guards the plan
/// leaves to the data, read off the outcome; the plan decides everything
/// else. Checks that every claim is about its anchor (the last query the
/// plan does not elide), that a `yes` over atom parts reads them exactly
/// when a (C3) witness exists, that every elision is backed by a `yes`
/// whose anchor left the resident shards, that every such `yes` is carried
/// out, and on the pinned node set.
fn planned(plan: &RunPlan<'_>, outcome: &MultiQueryOutcome, feedback: bool) -> Vec<Decision> {
    let mut decisions = Vec::new();
    // The query whose converged last slot the nodes hold.
    let mut resident = None;
    let queries = plan.queries();
    for (index, (query, run)) in queries.iter().zip(&outcome.per_query).enumerate() {
        let mut read = None;
        if let Some(claim) = &query.elide {
            decisions.push((index, None, "claim", usize::from(claim.transfers)));
            let anchor = (0..index).rev().find(|&j| !queries[j].elides());
            assert_eq!(Some(claim.anchor), anchor, "query {index}'s anchor");
            let last = queries[claim.anchor].slots.last().unwrap();
            let witness = || cq::c3_witness(&queries[claim.anchor].query, &query.query).is_some();
            let readable = last.parts() == 0 || witness();
            assert_eq!(
                claim.read.is_some(),
                claim.transfers && readable,
                "query {index}"
            );
            if let Some(r) = &claim.read {
                let nodes: BTreeSet<Node> = r.nodes.iter().copied().collect();
                assert_eq!(nodes, pinned_nodes(last.policy, &r.pinned), "query {index}");
            }
            read = claim
                .read
                .as_ref()
                .filter(|_| resident == Some(claim.anchor));
        }
        assert_eq!(run.elided_reshuffles == 1, read.is_some(), "query {index}");
        if let Some(read) = read {
            let nodes: BTreeSet<Node> = run.rounds[0].per_node_load.keys().copied().collect();
            let planned: BTreeSet<Node> = read.nodes.iter().copied().collect();
            assert_eq!(nodes, planned, "query {index} ran on other nodes");
            decisions.push((index, None, "elided", 0));
            decisions.push((index, None, "resident", read.nodes.len()));
            continue;
        }
        for round in 0..run.rounds_run() {
            let slot = query.slot(round);
            decisions.push((index, Some(round), "parts", slot.parts()));
            if feedback {
                let delta = round - slot.first_round;
                decisions.push((index, Some(round), "delta", delta));
                if delta == 0 && round > 0 {
                    decisions.push((index, Some(round), "reshard", round));
                }
            }
        }
        let last_slot = run.rounds_run() >= query.slots.len();
        resident = (run.converged && last_slot).then_some(index);
    }
    decisions.sort();
    decisions
}

/// An in-memory transport that logs every `begin_round` into `log`.
struct Logged<'l> {
    inner: InMemoryTransport,
    log: &'l std::cell::RefCell<Vec<&'static str>>,
}

impl Transport for Logged<'_> {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
    ) -> Result<(), TransportError> {
        self.log.borrow_mut().push("begin_round");
        self.inner.begin_round(round, query)
    }

    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError> {
        self.inner.send(node, shipment)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.inner.barrier()
    }

    fn recv(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.inner.recv(node)
    }
}

/// The span recorder is process-global: the one test of this binary that
/// traces holds this gate, and reads only the events below its own root.
static TRACE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x9_1A4))]

    /// Plan before data, over the policy zoo × query sequences × feedback ×
    /// round caps: the plan is built from the queries and the engine alone,
    /// every oracle call of a run precedes its first round, the decisions
    /// the run's trace records are the plan's, and the same plan carried
    /// out on another instance again elides only where it claims `yes`.
    #[test]
    fn runs_carry_out_the_plan_made_before_the_data(
        i in instance_strategy(),
        sequence in proptest::collection::vec(0usize..4, 1..4),
        entries in proptest::collection::vec(0usize..6, 1..3),
        verdicts in 0u32..65536,
        feedback in 0usize..2,
        rounds in 1usize..5,
        nodes in 1usize..4,
        buckets in 1usize..3,
    ) {
        let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let feedback = feedback == 1;
        let queries: Vec<ConjunctiveQuery> = sequence
            .iter()
            .map(|&k| ConjunctiveQuery::parse(PLANNED_QUERIES[k]).unwrap())
            .collect();
        let zoo = policy_zoo(&i, &queries[0], nodes, buckets);
        let schedule: Vec<&dyn DistributionPolicy> =
            entries.iter().map(|&k| zoo[k].1.as_ref()).collect();
        let mut engine = MultiRoundEngine::new(RoundSchedule::of(schedule)).rounds(rounds);
        if feedback {
            engine = engine.feedback_into("R");
        }
        let id = |q: &ConjunctiveQuery| PLANNED_QUERIES.iter().position(|t| *t == q.to_string());
        let verdict = |p: &ConjunctiveQuery, q: &ConjunctiveQuery| {
            let bit = 4 * id(p).unwrap() + id(q).unwrap();
            verdicts >> bit & 1 == 1
        };
        let plan = engine.plan(&queries, &mut |p, q| verdict(p, q));

        let log = std::cell::RefCell::new(Vec::new());
        let mut transport = Logged { inner: InMemoryTransport::new(1), log: &log };
        obs::start_trace();
        let root = obs::span!("case");
        let root_id = root.id();
        let outcome = engine
            .evaluate_queries_via(&mut transport, &queries, &i, &mut |p, q| {
                log.borrow_mut().push("oracle");
                verdict(p, q)
            })
            .unwrap();
        drop(root);
        let events = obs::end_trace();
        let log = log.into_inner();
        let first_round = log.iter().position(|&e| e == "begin_round").unwrap_or(log.len());
        prop_assert!(log[first_round..].iter().all(|&e| e != "oracle"), "{:?}", log);
        prop_assert_eq!(log.iter().filter(|&&e| e == "oracle").count(), plan.transfer_checks());
        prop_assert_eq!(outcome.transfer_checks, plan.transfer_checks());
        prop_assert_eq!(recorded(&events, root_id), planned(&plan, &outcome, feedback));

        let half = Instance::from_facts(i.facts().step_by(2).cloned());
        let again = engine.execute_via(&mut InMemoryTransport::new(2), &plan, &half).unwrap();
        planned(&plan, &again, feedback);
    }
}

/// A transport that evaluates nothing: it keeps the query each round
/// announces and the facts each node is sent, and answers nothing.
#[derive(Default)]
struct Shipped {
    announced: Option<ConjunctiveQuery>,
    chunks: BTreeMap<Node, Instance>,
}

impl Transport for Shipped {
    fn begin_round(
        &mut self,
        _round: usize,
        query: &ConjunctiveQuery,
    ) -> Result<(), TransportError> {
        self.announced = Some(query.clone());
        Ok(())
    }

    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError> {
        let Shipment::Delta(chunk) = shipment else {
            panic!("a feedback run ships deltas");
        };
        self.chunks.insert(node, (*chunk).clone());
        Ok(())
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    fn recv(&mut self, _node: Node) -> Result<NodeResult, TransportError> {
        let eval_time = std::time::Duration::ZERO;
        Ok(NodeResult {
            output: Instance::new(),
            eval_time,
        })
    }
}

/// What a feedback run's first round ships when its state is `facts`: the
/// engine's own reshuffle of `facts` under `policy` (split when the plan
/// splits), and the query the round announces.
fn delta_chunks(
    policy: &dyn DistributionPolicy,
    q: &ConjunctiveQuery,
    facts: &Instance,
) -> (ConjunctiveQuery, BTreeMap<Node, Instance>) {
    let mut transport = Shipped::default();
    MultiRoundEngine::new(RoundSchedule::repeat(policy))
        .feedback_into("R")
        .evaluate_via(&mut transport, q, facts)
        .unwrap();
    (
        transport.announced.expect("one round ran"),
        transport.chunks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x5_D317A))]

    /// Lemma 5.7 for delta rounds: under a Hypercube policy of the query
    /// itself, a split reshuffle of a state and then of a delta, stepped
    /// through one `DeltaNode` per node, derives each valuation only at
    /// its home. Every fact node `n` ships in the delta step is the answer
    /// of a valuation through a new fact whose home is `n`, and not one
    /// `n` shipped before; the home answers through a new fact, over all
    /// nodes, are exactly the central semi-naive step.
    ///
    /// And Corollary 5.8 for elided resident rounds: a query of the relax
    /// family, or the loops (a read that pins), run on the split shards
    /// of the query by a `yes` from any oracle reads them through its
    /// (C3) witness: every valuation of the read is derived at exactly one
    /// node, and the answers are the reference fixpoint's. Without a
    /// witness the claim is refused and the query reshuffles.
    #[test]
    fn split_delta_rounds_derive_each_valuation_at_its_home(
        state in instance_strategy(),
        delta in instance_strategy(),
        which in 0usize..3,
        buckets in 1usize..3,
        spread in proptest::collection::vec(1usize..4, 4..5),
    ) {
        let splittable: Vec<&str> = PLANNED_QUERIES
            .into_iter()
            .filter(|t| ConjunctiveQuery::parse(t).unwrap().has_self_joins())
            .collect();
        let q = ConjunctiveQuery::parse(splittable[which]).unwrap();
        let all = Instance::from_facts(state.facts().chain(delta.facts()).cloned());
        let fresh = delta.difference(&state);
        let step = cq::evaluate_seminaive_step(&q, &all, &fresh);
        for (name, policy, _, splits) in split_zoo(&all, &q, buckets, &spread) {
            if !splits {
                continue;
            }
            let hypercube = policy.as_hypercube().expect("only Hypercube policies split");
            let (split, first) = delta_chunks(policy.as_ref(), &q, &state);
            let (again, second) = delta_chunks(policy.as_ref(), &q, &delta);
            prop_assert_ne!(&split, &q, "{}: the round announces the split query", name);
            prop_assert_eq!(&split, &again);
            // The home answers of every node over the state, and over the
            // state and delta through at least one new fact.
            let mut homes: BTreeMap<Node, (Instance, Instance)> = BTreeMap::new();
            for v in cq::satisfying_valuations(&q, &all) {
                let home = hypercube.node_for_valuation(&v).expect("total hashes");
                let (old, new) = homes.entry(home).or_default();
                let body = v.required_facts(&q);
                if state.contains_all(&body) {
                    old.insert(v.derived_fact(&q));
                }
                if body.facts().any(|f| fresh.contains(f)) {
                    new.insert(v.derived_fact(&q));
                }
            }
            let mut union = Instance::new();
            let empty = (Instance::new(), Instance::new());
            for node in policy.network().nodes() {
                let (old, new) = homes.get(&node).unwrap_or(&empty);
                union.absorb(new);
                let mut delta_node = distribution::DeltaNode::new();
                let shipped = delta_node.step(&split, first.get(&node).unwrap_or(&empty.0));
                prop_assert_eq!(&shipped, old, "{} at {}: state round", name, node);
                let shipped = delta_node.step(&split, second.get(&node).unwrap_or(&empty.0));
                prop_assert_eq!(&shipped, &new.difference(old), "{} at {}: delta round", name, node);
            }
            prop_assert_eq!(&union, &step, "{}: the home answers are the central step", name);

            for text in ELIDED_QUERIES {
                let elided = ConjunctiveQuery::parse(text).unwrap();
                let queries = [q.clone(), elided.clone()];
                let engine = MultiRoundEngine::new(RoundSchedule::repeat(policy.as_ref()));
                let plan = engine.plan(&queries, &mut |_, _| true);
                let mut transport = Recording::default();
                let run = engine.execute_via(&mut transport, &plan, &all).unwrap();
                let claim = plan.queries()[1].elide.as_ref().expect("a claim");
                let witness = cq::c3_witness(&q, &elided).is_some();
                prop_assert_eq!(claim.read.is_some(), witness, "{}: {}", name, elided);
                prop_assert_eq!(run.elided_reshuffles(), usize::from(witness));
                // Refused, the query reshuffles under a policy of `q`.
                let Some(read) = &claim.read else { continue };
                let reference = engine.reference_fixpoint(&elided, &all).result;
                prop_assert_eq!(&*run.per_query[1].result, &reference, "{}: {}", name, elided);
                // The read over the plain relations: θ(Q′) itself.
                let atoms = read.query.body().iter().zip(&read.parts);
                let plain = atoms.map(|(atom, &k)| Atom::new(q.body()[k].relation, atom.args.clone()));
                let plain = read.query.with_body(plain.collect()).unwrap();
                let mut derived: BTreeMap<cq::Valuation, usize> = BTreeMap::new();
                let empty = Instance::new();
                for node in &read.nodes {
                    let shard = transport.shards.get(node).unwrap_or(&empty);
                    for v in cq::satisfying_valuations(&read.query, shard) {
                        *derived.entry(v).or_default() += 1;
                    }
                }
                let twice = derived.iter().find(|&(_, &n)| n > 1);
                prop_assert!(twice.is_none(), "{}: {} derives {:?} twice", name, elided, twice);
                let central: BTreeSet<cq::Valuation> =
                    cq::satisfying_valuations(&plain, &all).into_iter().collect();
                let found: BTreeSet<cq::Valuation> = derived.into_keys().collect();
                prop_assert_eq!(found, central, "{}: {}", name, elided);
            }
        }
    }
}

/// The queries the home-node property runs on the split shards of a
/// planned query: the relax family, and the loops alone, whose read of the
/// loop query's parts pins `x` and `z`.
const ELIDED_QUERIES: [&str; 3] = [
    "T(x, z) :- R(x, y), R(y, z).",
    "T(x, z) :- R(x, y), R(y, z), R(y, y).",
    "T(y) :- R(y, y).",
];

/// A one-round run under a broadcast policy returns what the scan oracle
/// evaluates centrally.
#[test]
fn both_evaluators_agree_on_a_broadcast() {
    let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let i = cq::parse_instance(
        "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(c, d). E(d, a). E(a, c).",
    )
    .unwrap();
    let network = Network::with_size(3);
    let p = ExplicitPolicy::broadcast(&network, &i);
    let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
    let oracle = oracle::evaluate(&q, &i);
    assert!(!oracle.is_empty());
    assert_eq!(*outcome.result, oracle);
}
