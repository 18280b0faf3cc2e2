//! The triejoin kernel on shapes the small-domain property suite
//! (`properties.rs`, 5 values) cannot reach: relations long enough that
//! seeks gallop, a hub whose runs are five times the others', a variable
//! repeated inside an atom, a nullary atom, facts of foreign arities,
//! pre-bound slots — always against the scan oracle as the reference — plus
//! the leaf order callers pin, cyclic and acyclic, the semi-naive law on a
//! growing instance, the sorted-order cache seen from outside, and the
//! worst-case-optimality claim itself: the triejoin beats the scan on a trap.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cq::{
    evaluate, evaluate_seminaive_step, CompiledQuery, ConjunctiveQuery, Fact, Instance, Valuation,
    Value,
};
use oracle::Evaluator;

fn q(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).unwrap()
}

fn v(i: usize) -> Value {
    Value::indexed("g", i)
}

/// A seeded digraph over `E`: every one of `values` vertices gets
/// `out_degree` random successors, and vertex 0 — the hub — `hub_degree`
/// successors and as many predecessors. On top of it, what only some atoms
/// may match: `L(c, c, a)` for a third of the edges `(a, c)` and `L(c, a, a)`
/// for another, the nullary `B()`, and facts of `E` and `L` with the wrong
/// arity.
fn graph(seed: u64, values: usize, out_degree: usize, hub_degree: usize) -> Instance {
    let mut state = seed;
    let mut random = move |bound: usize| {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut edges = BTreeSet::new();
    for a in 0..values {
        for _ in 0..out_degree {
            edges.insert((a, random(values)));
        }
    }
    for _ in 0..hub_degree {
        edges.insert((0, random(values)));
        edges.insert((random(values), 0));
    }
    let mut facts = vec![Fact::new("B", Vec::new())];
    for (i, &(a, c)) in edges.iter().enumerate() {
        facts.push(Fact::new("E", vec![v(a), v(c)]));
        match i % 3 {
            0 => facts.push(Fact::new("L", vec![v(c), v(c), v(a)])),
            1 => facts.push(Fact::new("L", vec![v(c), v(a), v(a)])),
            _ => {}
        }
        if i % 50 == 0 {
            facts.push(Fact::new("E", vec![v(a), v(c), v(a)]));
            facts.push(Fact::new("L", vec![v(a), v(a)]));
        }
    }
    Instance::from_facts(facts)
}

/// 200 values, out-degree 30, a hub of in- and out-degree 150.
fn dense_graph() -> Instance {
    graph(0x5EED_2015, 200, 30, 150)
}

const TRIANGLE: &str = "T(x, y, z) :- E(x, y), E(y, z), E(z, x).";
const CHORDAL4: &str = "T(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a), E(a, c).";
const CLIQUE4: &str = "T(a, b, c, d) :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d).";
const CYCLE5: &str = "T(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, a).";
/// `x` repeated inside an atom, and a nullary atom.
const LOOPED: &str = "T(x, y, z) :- E(x, y), E(y, z), E(z, x), L(x, x, z), B().";

/// The dense graph's shape at a size the scan oracle can take: 60 values,
/// out-degree 8, a hub of in- and out-degree 40.
fn medium_graph() -> Instance {
    graph(0x5EED_2015, 60, 8, 40)
}

#[test]
fn multiway_agrees_with_binary_where_seeks_gallop() {
    let medium = medium_graph();
    // The 5-cycle and the chain have over 10⁵ answers there: they get a
    // sparser graph of the same shape.
    let sparse = graph(0x5EED_1970, 50, 4, 20);
    for (text, instance) in [
        (TRIANGLE, &medium),
        (CHORDAL4, &medium),
        (CLIQUE4, &medium),
        (LOOPED, &medium),
        (CYCLE5, &sparse),
        (CHAIN3, &sparse),
    ] {
        let query = q(text);
        let binary = oracle::evaluate(&query, instance);
        let multiway = evaluate(&query, instance);
        assert!(binary.len() > 100, "{text}: only {} answers", binary.len());
        assert_eq!(multiway, binary, "{text}");
    }
    // On the dense graph, beyond the oracle's reach, the kernel is held
    // against itself under other variable orders: a differential step over
    // everything runs every query once per pivot, that atom's variables
    // first. And what it finds does satisfy the query.
    let dense = dense_graph();
    for text in [TRIANGLE, CHORDAL4, CLIQUE4, LOOPED] {
        let query = q(text);
        let answers = evaluate(&query, &dense);
        assert!(answers.len() > 5_000, "{text}: {} answers", answers.len());
        assert_eq!(
            evaluate_seminaive_step(&query, &dense, &dense),
            answers,
            "{text}"
        );
        // (the head lists every variable: an answer is a valuation)
        for answer in answers.facts().step_by(97) {
            let bindings = query.head().args.iter().zip(answer.values.iter());
            let valuation: Valuation = bindings.map(|(&var, &value)| (var, value)).collect();
            assert!(valuation.satisfies(&query, &dense), "{text}: {answer}");
        }
    }
}

#[test]
fn multiway_agrees_with_binary_under_pre_bound_slots() {
    let instance = medium_graph();
    let query = q(LOOPED);
    let free = oracle::evaluate(&query, &instance);
    assert!(free.len() > 100);
    // Every answer's (x, z) as the pre-bound pair — `x` is the
    // variable the `L` atom repeats — plus a pair that has no answer and a
    // value that occurs nowhere.
    let mut bound: BTreeSet<(Value, Value)> = free
        .facts()
        .map(|fact| (fact.values[0], fact.values[2]))
        .collect();
    bound.insert((v(1), v(1)));
    bound.insert((Value::new("nowhere"), v(0)));
    let mut non_empty = 0;
    for (x, z) in bound {
        let fixed = Valuation::from_names([("x", x.as_str()), ("z", z.as_str())]);
        let by = |evaluator: Evaluator| -> BTreeSet<Valuation> {
            let valuations = evaluator.satisfying_valuations(&query, &instance, &fixed);
            valuations.into_iter().collect()
        };
        let binary = by(Evaluator::Scan);
        assert_eq!(by(Evaluator::Triejoin), binary, "x = {x}, z = {z}");
        non_empty += usize::from(!binary.is_empty());
    }
    assert!(non_empty > 100, "{non_empty}");
}

/// The slots of `query` in the order the triejoin binds them from nothing:
/// a variable that shares an atom with one already bound before one that
/// does not, then most occurrences in the body first, ties in
/// first-occurrence (= slot) order.
fn search_order(query: &CompiledQuery<'_>) -> Vec<usize> {
    let atoms = || (0..query.atom_count()).map(|atom| query.atom(atom));
    let occurrences = |slot: usize| atoms().flatten().filter(|&&s| s == slot).count();
    let mut order: Vec<usize> = Vec::new();
    while order.len() < query.variables().len() {
        let reached = |slot: usize| {
            atoms().any(|atom| atom.contains(&slot) && atom.iter().any(|s| order.contains(s)))
        };
        let open = (0..query.variables().len()).filter(|slot| !order.contains(slot));
        let next = open.min_by_key(|&slot| {
            (
                std::cmp::Reverse(reached(slot)),
                std::cmp::Reverse(occurrences(slot)),
            )
        });
        order.push(next.unwrap());
    }
    order
}

/// A chain that reaches its end, and a tree whose busiest variable `d` is
/// three atoms from its second-busiest `b`.
const CHAIN3: &str = "T(x, w) :- E(x, y), E(y, z), E(z, w).";
const TREE: &str = "T(a, g) :- E(a, b), E(b, c), E(c, d), E(d, e), E(d, f), E(d, g), E(b, h).";

#[test]
fn multiway_leaves_ascend_in_the_documented_variable_order() {
    let dense = dense_graph();
    // The tree has over 10⁸ valuations on the dense graph.
    let sparse = graph(0x5EED_1970, 40, 2, 6);
    for (text, pinned) in [
        (TRIANGLE, &[0, 1, 2][..]),
        (CHORDAL4, &[0, 2, 1, 3]), // a and c occur three times
        (LOOPED, &[0, 2, 1]),
        // acyclic: the join variable first, then the ends in slot order
        ("T(x, z) :- E(x, y), E(y, z).", &[1, 0, 2]),
        (CHAIN3, &[1, 2, 0, 3]),
        // d, then c before the busier b: c is next to d, b is not yet
        (TREE, &[3, 2, 1, 0, 4, 5, 6, 7]),
    ] {
        let query = q(text);
        let compiled = CompiledQuery::new(&query);
        let order = search_order(&compiled);
        assert_eq!(order, pinned, "{text}");
        let instance = if text == TREE { &sparse } else { &dense };
        let mut leaves: Vec<Vec<Value>> = Vec::new();
        let flow = compiled.for_each_satisfying(instance, &Valuation::new(), |slots| {
            leaves.push(order.iter().map(|&slot| slots[slot].unwrap()).collect());
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert!(leaves.len() > 100, "{text}: {} leaves", leaves.len());
        assert!(
            leaves.windows(2).all(|pair| pair[0] < pair[1]),
            "{text}: leaves must come out strictly ascending"
        );

        let mut visited = 0;
        let flow = compiled.for_each_satisfying(instance, &Valuation::new(), |_| {
            visited += 1;
            ControlFlow::Break(())
        });
        assert_eq!((flow, visited), (ControlFlow::Break(()), 1), "{text}");
    }
}

#[test]
fn seminaive_steps_over_a_growing_instance_equal_full_reevaluation() {
    // Twelve rounds of growth, cyclic and acyclic: every round's delta is
    // absorbed as one run into the one full instance, whose orders take
    // the new rows in, never rebuilt — and `Q(old ∪ Δ) = Q(old) ∪ step`
    // holds against the scan oracle at every round.
    let source: Vec<Fact> = medium_graph().facts().cloned().collect();
    for text in [TRIANGLE, "T(x, z) :- E(x, y), E(y, z).", LOOPED] {
        let query = q(text);
        let mut full = Instance::new();
        let mut answers = Instance::new();
        let mut orders = 0;
        for round in 0..12 {
            // a twelfth of every relation a round, landing all over the rows
            let delta: Instance = source.iter().skip(round).step_by(12).cloned().collect();
            assert_eq!(full.absorb(&delta), delta, "{text}, round {round}");
            answers.extend(evaluate_seminaive_step(&query, &full, &delta).facts());
            assert_eq!(
                answers,
                oracle::evaluate(&query, &full),
                "{text}, round {round}"
            );
            assert_eq!(evaluate(&query, &full), answers, "{text}, round {round}");
            if round == 0 {
                orders = full.cached_orders();
            }
            assert_eq!(full.cached_orders(), orders, "{text}, round {round}");
        }
        assert!(answers.len() > 100 && orders > 0, "{text}");
    }
}

#[test]
fn a_changed_fact_set_is_never_evaluated_through_a_stale_order() {
    let query = q(TRIANGLE);
    let mut instance = Instance::from_facts([
        Fact::from_names("E", &["a", "b"]),
        Fact::from_names("E", &["b", "c"]),
    ]);
    assert!(evaluate(&query, &instance).is_empty());
    // the orders are warm now: the closing edge must still be seen …
    let closing = Fact::from_names("E", &["c", "a"]);
    assert!(instance.insert(closing.clone()));
    assert_eq!(evaluate(&query, &instance).len(), 3);
    // … re-inserting it changes nothing, and removing it is seen as well
    assert!(!instance.insert(closing.clone()));
    assert_eq!(evaluate(&query, &instance).len(), 3);
    assert!(instance.remove(&closing));
    assert!(evaluate(&query, &instance).is_empty());
}

#[test]
fn threads_sharing_one_cold_instance_agree_with_the_sequential_answer() {
    let query = q(CHORDAL4);
    let sequential = evaluate(&query, &dense_graph());
    // Both threads ask the same cold instance for its orders at once.
    let shared = Arc::new(dense_graph());
    let barrier = Barrier::new(2);
    let answers: Vec<Instance> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    evaluate(&query, &shared)
                })
            })
            .collect();
        let joined = threads.into_iter().map(|thread| thread.join().unwrap());
        joined.collect()
    });
    assert!(sequential.len() > 100);
    assert!(answers.iter().all(|answer| *answer == sequential));
}

/// The tripartite trap: `p` sources fan out densely onto `k` middles, the
/// middles fan out densely onto `p` sinks, and one back edge `w0 → s0`
/// closes the cycle. Every edge is in `E`, so all atoms look alike. An
/// atom-at-a-time join enumerates every dense 2-path, `Θ(p²k)` partial
/// matches each paid with a full scan by the oracle, before finding that
/// almost none of them close; the triejoin intersects sorted columns a
/// variable at a time and touches only the `Θ(k)` bindings that can.
fn trap(p: usize, k: usize) -> Instance {
    let edge = |a: String, b: String| Fact::from_names("E", &[&a, &b]);
    let mut facts = vec![edge("w0".into(), "s0".into())];
    for a in 0..p {
        for i in 0..k {
            facts.push(edge(format!("s{a}"), format!("m{i}")));
            facts.push(edge(format!("m{i}"), format!("w{a}")));
        }
    }
    Instance::from_facts(facts)
}

/// The fastest of `reps` runs of `run`.
fn fastest(reps: usize, mut run: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

#[test]
fn the_triejoin_beats_the_scan_oracle_on_the_trap_instance() {
    // Veldhuizen's worst-case-optimality claim, the one the kernel rests
    // on. On two cores, with the whole suite running beside it, the
    // triejoin is 210-360x faster than the scan here in an unoptimized
    // build and 150-190x in a release build (best of several runs); the
    // bound is far enough below both that a loaded machine cannot fail it.
    const MIN_SPEEDUP: f64 = 20.0;
    let instance = trap(10, 10);
    for text in [TRIANGLE, CHORDAL4, CLIQUE4] {
        let query = q(text);
        let scanned = oracle::evaluate(&query, &instance);
        assert_eq!(evaluate(&query, &instance), scanned, "{text}");
        let scan = fastest(3, || drop(oracle::evaluate(&query, &instance)));
        let triejoin = fastest(5, || drop(evaluate(&query, &instance)));
        let speedup = scan.as_secs_f64() / triejoin.as_secs_f64().max(1e-9);
        assert!(
            speedup > MIN_SPEEDUP,
            "{text}: the triejoin took {triejoin:?}, the scan {scan:?} ({speedup:.1}x)"
        );
    }
}
