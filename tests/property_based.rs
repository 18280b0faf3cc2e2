//! Property-based tests spanning the whole stack: parallel-correctness,
//! transferability and the Hypercube machinery on randomly generated
//! queries, instances and policies.

use pcq::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random query from a seed using the workload generator (proptest
/// drives the seed and the shape parameters).
fn query_from(seed: u64, atoms: usize, variables: usize, head: usize) -> ConjunctiveQuery {
    workloads::random_query(
        &mut StdRng::seed_from_u64(seed),
        workloads::QueryParams {
            relations: 2,
            arity: 2,
            atoms,
            variables,
            head_variables: head,
            allow_self_joins: true,
        },
    )
}

fn instance_from(seed: u64, schema: &Schema, domain: usize, facts: usize) -> Instance {
    workloads::random_instance(
        &mut StdRng::seed_from_u64(seed),
        schema,
        workloads::InstanceParams {
            domain_size: domain,
            facts_per_relation: facts,
        },
    )
}

/// A random query over a unary, a binary and a ternary relation: self-joins
/// and variables repeated inside an atom come with the draw.
fn mixed_arity_query_from(seed: u64) -> ConjunctiveQuery {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let variables = rng.gen_range(2usize..5);
    let body: Vec<Atom> = (0..rng.gen_range(2usize..5))
        .map(|_| {
            let arity = rng.gen_range(1usize..4);
            let args = (0..arity).map(|_| Variable::indexed("x", rng.gen_range(0..variables)));
            Atom::new(["U", "R", "S"][arity - 1], args.collect())
        })
        .collect();
    let mut head: Vec<Variable> = body.iter().flat_map(|atom| atom.args.clone()).collect();
    head.truncate(rng.gen_range(0usize..3));
    ConjunctiveQuery::new(Atom::new("T", head), body).expect("safe by construction")
}

/// Definition 3.3 to the letter: `v` is minimal iff no valuation `w` into
/// the active domain of `v(body)` has `w <_Q v`.
fn minimal_by_definition(query: &ConjunctiveQuery, v: &Valuation) -> bool {
    let variables = query.variables();
    let domain: Vec<Value> = v.required_facts(query).adom().into_iter().collect();
    cq::all_assignments(variables.len(), domain.len())
        .into_iter()
        .map(|choice| {
            Valuation::from_pairs(variables.iter().zip(choice).map(|(&x, i)| (x, domain[i])))
        })
        .all(|w| !w.lt(v, query))
}

proptest! {
    // Bounded and explicitly seeded: 24 deterministic cases per property
    // (each case drives seeded StdRng workload generators below), so
    // `cargo test -q` is reproducible and fast.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x9C9_5EED))]

    /// (C0) implies (C1) implies parallel-correctness, and the (C1)-based
    /// decision agrees with the brute-force check over all subinstances of
    /// the (tiny) fact universe.
    #[test]
    fn condition_hierarchy_and_exactness(
        qseed in 0u64..1000,
        pseed in 0u64..1000,
        nodes in 2usize..4,
        replication in 1usize..3,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let universe = workloads::complete_binary_relation("R0", &["a", "b"])
            .union(&workloads::complete_binary_relation("R1", &["a", "b"]));
        let policy = workloads::random_explicit_policy(
            &mut StdRng::seed_from_u64(pseed),
            &universe,
            workloads::PolicyParams { nodes, replication, skip_probability: 0.0 },
        );
        let c0 = holds_c0(&query, &policy, &universe);
        let c1 = holds_c1(&query, &policy, &universe);
        let pc = check_parallel_correctness(&query, &policy).is_correct();
        prop_assert!(!c0 || c1, "C0 must imply C1");
        prop_assert_eq!(c1, pc, "C1 must characterize parallel-correctness");
        // brute force over every subinstance of an 8-fact universe
        let naive = pc_core::check_parallel_correctness_naive(&query, &policy);
        prop_assert_eq!(pc, naive);
    }

    /// Every query is parallel-correct under every member of its own
    /// Hypercube family, on arbitrary instances (Lemma 5.7).
    #[test]
    fn hypercube_members_are_parallel_correct(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        buckets in 1usize..4,
        domain in 2usize..7,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), domain, 20);
        let policy = HypercubePolicy::uniform(&query, buckets).unwrap();
        let outcome = OneRoundEngine::new(&policy).evaluate(&query, &instance);
        prop_assert_eq!(outcome.result, evaluate(&query, &instance));
    }

    /// Transferability is sound: if it holds from Q to Q', then Q' is
    /// parallel-correct under every sampled policy for which Q is.
    #[test]
    fn transfer_soundness_on_sampled_policies(
        from_seed in 0u64..300,
        to_seed in 0u64..300,
        pseed in 0u64..300,
    ) {
        let from = query_from(from_seed, 2, 3, 1);
        let to = query_from(to_seed, 2, 3, 1);
        let transfers = check_transfer(&from, &to).transfers();
        if transfers {
            let universe = workloads::complete_binary_relation("R0", &["a", "b"])
                .union(&workloads::complete_binary_relation("R1", &["a", "b"]));
            for k in 0..4u64 {
                let policy = workloads::random_explicit_policy(
                    &mut StdRng::seed_from_u64(pseed ^ (k.wrapping_mul(0x9E3779B9))),
                    &universe,
                    workloads::PolicyParams { nodes: 2 + (k as usize % 2), replication: 1, skip_probability: 0.0 },
                );
                if check_parallel_correctness(&from, &policy).is_correct() {
                    prop_assert!(
                        check_parallel_correctness(&to, &policy).is_correct(),
                        "transfer {from} => {to} is unsound for a sampled policy"
                    );
                }
            }
        }
    }

    /// The strongly-minimal fast path never disagrees with the general
    /// transfer decision when it applies, and Lemma 4.8 never misclassifies.
    #[test]
    fn strong_minimality_consistency(qseed in 0u64..1000, toseed in 0u64..1000) {
        let query = query_from(qseed, 3, 4, 2);
        if pc_core::satisfies_lemma_4_8(&query) {
            prop_assert!(is_strongly_minimal(&query));
        }
        if is_strongly_minimal(&query) {
            let to = query_from(toseed, 2, 3, 1);
            prop_assert_eq!(
                check_transfer(&query, &to).transfers(),
                check_transfer_strongly_minimal(&query, &to).transfers()
            );
        }
    }

    /// One-round evaluation under an explicit broadcast policy always equals
    /// the centralized result, and under a round-robin policy it never
    /// produces more answers than the centralized result (monotonicity).
    #[test]
    fn one_round_evaluation_bounds(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        nodes in 1usize..5,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 4, 12);
        let expected = evaluate(&query, &instance);

        let network = Network::with_size(nodes);
        let broadcast = ExplicitPolicy::broadcast(&network, &instance);
        let b = OneRoundEngine::new(&broadcast).evaluate(&query, &instance);
        prop_assert_eq!(&b.result, &expected);

        let rr = ExplicitPolicy::round_robin(&network, &instance);
        let r = OneRoundEngine::new(&rr).evaluate(&query, &instance);
        prop_assert!(expected.contains_all(&r.result));
    }

    /// Differential: at the whole-stack level, a one-round-capped
    /// `MultiRoundEngine` agrees exactly with `OneRoundEngine` on random
    /// explicit policies (including skipping, replicating ones).
    #[test]
    fn multi_round_capped_at_one_agrees_with_one_round(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        pseed in 0u64..1000,
        nodes in 1usize..4,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 3, 8);
        let policy = workloads::random_explicit_policy(
            &mut StdRng::seed_from_u64(pseed),
            &instance,
            workloads::PolicyParams { nodes, replication: 2, skip_probability: 0.25 },
        );
        let one = OneRoundEngine::new(&policy).evaluate(&query, &instance);
        let multi = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(1)
            .evaluate(&query, &instance);
        prop_assert_eq!(multi.rounds_run(), 1);
        prop_assert_eq!(&multi.result, &one.result);
        prop_assert_eq!(&multi.rounds[0].per_node_load, &one.per_node_load);
        prop_assert_eq!(&multi.rounds[0].per_node_output, &one.per_node_output);
        prop_assert_eq!(multi.rounds[0].stats, one.stats);
    }

    /// Multi-round evaluation under a query's own Hypercube policy with
    /// feedback reaches exactly the global fixpoint of the iterated query:
    /// each round is parallel-correct (Lemma 5.7), so the iteration must
    /// converge to the centralized reference.
    #[test]
    fn hypercube_multi_round_reaches_the_global_fixpoint(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        buckets in 1usize..3,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        // feedback requires the head arity to match the input relations
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 4, 10);
            let policy = HypercubePolicy::uniform(&query, buckets).unwrap();
            let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(40)
                .feedback_into("R0");
            let report = multi_round_correct_on(&query, &engine, &instance);
            prop_assert!(report.outcome.converged, "40 rounds over a 4-value domain must converge");
            prop_assert!(report.is_correct(), "missing: {}", report.missing);
            prop_assert_eq!(report.outcome.rounds_run(), report.reference_rounds);
        }
    }

    /// Pooled, parallel-reshuffle multi-round runs agree with the
    /// sequential engine round for round at the whole-stack level.
    #[test]
    fn pooled_multi_round_agrees_with_sequential(
        qseed in 0u64..500,
        iseed in 0u64..500,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 3, 8);
            let policy = HypercubePolicy::uniform(&query, 2).unwrap();
            let configure = || MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(20)
                .feedback_into("R0");
            let base = configure().evaluate(&query, &instance);
            let pooled = configure()
                .workers(3)
                .distribute_workers(2)
                .evaluate(&query, &instance);
            prop_assert_eq!(&base.result, &pooled.result);
            prop_assert_eq!(base.converged, pooled.converged);
            prop_assert_eq!(base.rounds_run(), pooled.rounds_run());
            for (m, s) in base.rounds.iter().zip(&pooled.rounds) {
                prop_assert_eq!(&m.result, &s.result);
                prop_assert_eq!(&m.per_node_load, &s.per_node_load);
                prop_assert_eq!(m.stats, s.stats);
            }
        }
    }

    /// The acceptance property of the incremental subsystem: semi-naive
    /// multi-round runs (delta shipping, stateful nodes, differential
    /// local evaluation) reach exactly the same fixpoint, in the same
    /// number of rounds, as full re-evaluation — on random queries and
    /// instances, with and without feedback.
    #[test]
    fn semi_naive_multi_round_equals_full_reevaluation(
        qseed in 0u64..500,
        iseed in 0u64..500,
        feedback in 0usize..2,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 3, 8);
            let policy = HypercubePolicy::uniform(&query, 2).unwrap();
            let configure = || {
                let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy)).rounds(20);
                if feedback == 1 { engine.feedback_into("R0") } else { engine }
            };
            let full = configure().evaluate(&query, &instance);
            let semi = configure().semi_naive(true).workers(2).evaluate(&query, &instance);
            prop_assert_eq!(&semi.result, &full.result);
            prop_assert_eq!(semi.converged, full.converged);
            prop_assert_eq!(semi.rounds_run(), full.rounds_run());
            prop_assert_eq!(&semi.final_state, &full.final_state);
            // what the rounds shipped can only shrink
            prop_assert!(semi.total_comm_volume() <= full.total_comm_volume());
        }
    }

    /// Valuation minimality is decided consistently with its definition on
    /// small instances: a valuation is minimal iff no other satisfying
    /// valuation on its required facts derives the same fact from strictly
    /// fewer facts.
    #[test]
    fn valuation_minimality_matches_definition(qseed in 0u64..1000, iseed in 0u64..1000) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 3, 10);
        for v in cq::satisfying_valuations(&query, &instance).into_iter().take(10) {
            let required = v.required_facts(&query);
            let brute = cq::satisfying_valuations(&query, &required)
                .into_iter()
                .all(|w| {
                    w.derived_fact(&query) != v.derived_fact(&query)
                        || w.required_facts(&query).len() >= required.len()
                });
            prop_assert_eq!(pc_core::is_minimal_valuation(&query, &v), brute);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x0DD_5EED))]

    /// The minimality oracle — by search and through its equality-type memo,
    /// one oracle serving all candidates of a query — decides Definition 3.3,
    /// and the definition does not see an injective renaming of the values:
    /// two valuations of one equality type never disagree, which is what
    /// licenses the memo.
    #[test]
    fn minimality_oracle_matches_the_definition_and_is_generic(
        qseed in 0u64..100_000,
        vseed in 0u64..100_000,
    ) {
        use rand::Rng;
        let query = mixed_arity_query_from(qseed);
        let compiled = cq::CompiledQuery::new(&query);
        let mut oracle = pc_core::MinimalityOracle::new(&compiled);
        let mut rng = StdRng::seed_from_u64(vseed);
        let names = ["a", "b", "c", "d", "e", "f", "g"];
        for _ in 0..12 {
            let v: Valuation = query
                .variables()
                .iter()
                .map(|&x| (x, Value::new(names[rng.gen_range(0usize..3)])))
                .collect();
            // An injective renaming: rotate into the unused names.
            let shift = rng.gen_range(3usize..5);
            let renamed: Valuation = v
                .bindings()
                .map(|(x, value)| {
                    let at = names.iter().position(|n| *n == value.as_str()).unwrap();
                    (x, Value::new(names[(at + shift) % names.len()]))
                })
                .collect();
            let expected = minimal_by_definition(&query, &v);
            prop_assert_eq!(minimal_by_definition(&query, &renamed), expected, "{} {}", query, v);
            prop_assert_eq!(oracle.is_minimal_valuation(&v), expected, "{} {}", query, v);
            prop_assert_eq!(oracle.is_minimal_by_type(&compiled.bind(&v)), expected);
            prop_assert_eq!(oracle.is_minimal_by_type(&compiled.bind(&renamed)), expected);
            prop_assert_eq!(pc_core::is_minimal_valuation(&query, &renamed), expected);
        }
        let stats = oracle.stats();
        prop_assert_eq!(stats.by_type + stats.searched, 36);
        prop_assert!(stats.by_type >= 12, "the renamed twin is always a memo hit");
    }
}

/// The oracle on a query with more variables than a machine word has bits:
/// the endomorphisms of the frozen body (the identity among them) are
/// minimal exactly when evaluating the query over their own image finds
/// nothing smaller, and the memo agrees with the search.
#[test]
fn minimality_oracle_handles_queries_with_more_than_64_variables() {
    let query = wide_transfer_query();
    let (body, identity) = frozen_body(&query);
    let compiled = cq::CompiledQuery::new(&query);
    let mut oracle = pc_core::MinimalityOracle::new(&compiled);
    let mut candidates = cq::satisfying_valuations(&query, &body);
    assert!(candidates.contains(&identity));
    // Collapsing valuations too: everything onto one value, and the
    // identity with the first two variables merged.
    let variables = query.variables();
    let one = Value::new("one");
    candidates.push(variables.iter().map(|&x| (x, one)).collect());
    candidates.push(identity.with(variables[0], identity.get(variables[1]).unwrap()));
    // And the valuations the reduction is about: every truth assignment of
    // the five matrix variables, run through the circuit (the gates' outputs
    // follow their inputs, in body order). One that makes the matrix true
    // requires `Res(one)` and is not minimal when flipping the universal
    // block — not in the head — makes it false.
    let head = &query.head().args;
    let (w1, w0) = (head[head.len() - 2], head[head.len() - 1]);
    for assignment in 0u32..32 {
        let mut truth = std::collections::BTreeMap::from([(w1, true), (w0, false)]);
        let mut inputs = 0;
        for atom in query.body() {
            let known: Vec<Option<bool>> =
                atom.args.iter().map(|x| truth.get(x).copied()).collect();
            let output = *atom.args.last().unwrap();
            match (atom.relation.as_str(), known.as_slice()) {
                ("Neg", [None, None]) => {
                    truth.insert(atom.args[0], assignment >> inputs & 1 == 1);
                    truth.insert(output, assignment >> inputs & 1 == 0);
                    inputs += 1;
                }
                ("And", [Some(a), Some(b), Some(c), None]) => {
                    truth.insert(output, *a && *b && *c);
                }
                ("Or", [Some(a), Some(b), None]) => {
                    truth.insert(output, *a || *b);
                }
                _ => {}
            }
        }
        assert_eq!((inputs, truth.len()), (5, variables.len()));
        let bit = |x: &Variable| Value::new(if truth[x] { "one" } else { "zero" });
        candidates.push(variables.iter().map(|x| (*x, bit(x))).collect());
    }
    let (mut minimal, mut smaller) = (0, 0);
    for v in &candidates {
        let required = v.required_facts(&query);
        let expected = cq::satisfying_valuations(&query, &required)
            .iter()
            .all(|w| {
                w.derived_fact(&query) != v.derived_fact(&query)
                    || w.required_facts(&query).len() >= required.len()
            });
        assert_eq!(oracle.is_minimal_valuation(v), expected, "{v}");
        assert_eq!(
            oracle.is_minimal_by_type(&compiled.bind(v)),
            expected,
            "{v}"
        );
        *(if expected { &mut minimal } else { &mut smaller }) += 1;
    }
    assert!(
        minimal > 0 && smaller > 0,
        "{minimal} minimal, {smaller} not"
    );
}

/// The `from` side of the Π₃ reduction over 27 distinct DNF terms: a query
/// with more variables than a machine word has bits.
fn wide_transfer_query() -> ConjunctiveQuery {
    use pcq::logic::{Clause, Dnf, Literal, Pi3Qbf};

    // Every variable triple of five variables under three sign patterns:
    // all terms differ, so a term atom matches one term fact.
    let mut terms = Vec::new();
    for a in 0..5 {
        for b in a + 1..5 {
            for c in b + 1..5 {
                for signs in [
                    [true, true, false],
                    [false, true, true],
                    [true, false, true],
                ] {
                    terms.push(Clause::new(
                        [a, b, c]
                            .iter()
                            .zip(signs)
                            .map(|(&var, positive)| Literal { var, positive })
                            .collect(),
                    ));
                }
            }
        }
    }
    terms.truncate(27);
    let qbf = Pi3Qbf::new(vec![0], vec![1], vec![2, 3, 4], Dnf::new(5, terms));
    let query = pcq::reductions::pi3_to_transfer(&qbf).from;
    assert!(query.variables().len() > 64);
    query
}

/// The body of `query` with every variable frozen to a value of its name,
/// and the identity valuation onto it.
fn frozen_body(query: &ConjunctiveQuery) -> (Instance, Valuation) {
    let freeze = |v: &Variable| Value::new(v.as_str());
    let body = Instance::from_facts(query.body().iter().map(|atom| {
        Fact::new(
            atom.relation,
            atom.args.iter().map(freeze).collect::<Tuple>(),
        )
    }));
    let identity = Valuation::from_pairs(query.variables().iter().map(|v| (*v, freeze(v))));
    (body, identity)
}

/// A query with more variables than a machine word has bits — the `from`
/// side of the Π₃ reduction over 27 distinct DNF terms — evaluates
/// identically through the slot kernel under every join, with the identity
/// valuation on its own frozen body among the answers. Guards any "one bit
/// per variable" shortcut in the compiled bindings.
#[test]
fn kernel_handles_queries_with_more_than_64_variables() {
    use std::collections::BTreeSet;

    let query = wide_transfer_query();
    let (frozen_body, identity) = frozen_body(&query);

    let valuations = |opts: EvalOptions| -> BTreeSet<Valuation> {
        cq::satisfying_valuations_with(&query, &frozen_body, &Valuation::new(), opts)
            .into_iter()
            .collect()
    };
    let oracle = valuations(EvalOptions::ScanOracle);
    assert!(oracle.contains(&identity));
    for v in &oracle {
        assert!(v.is_total_for(&query) && v.satisfies(&query, &frozen_body));
    }
    let answers = cq::evaluate_with(&query, &frozen_body, EvalOptions::ScanOracle);
    let opts = EvalOptions::Triejoin;
    assert_eq!(valuations(opts), oracle, "{opts:?}");
    assert_eq!(cq::evaluate_with(&query, &frozen_body, opts), answers);
}
