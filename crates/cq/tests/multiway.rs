//! The multiway join's trie kernel on shapes the small-domain property suite
//! (`properties.rs`, 5 values) cannot reach: relations long enough that
//! seeks gallop, a hub whose runs are five times the others', a variable
//! repeated inside an atom, a nullary atom, facts of foreign arities,
//! pre-bound slots — always against the binary join as the reference — plus
//! the leaf order callers pin and the sorted-order cache seen from outside.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::{Arc, Barrier};

use cq::{
    evaluate_with, satisfying_valuations_with, CompiledQuery, ConjunctiveQuery, EvalOptions, Fact,
    Instance, JoinStrategy, Valuation, Value,
};

fn q(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).unwrap()
}

fn options(strategy: JoinStrategy) -> EvalOptions {
    EvalOptions::default().with_join_strategy(strategy)
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

#[test]
fn multiway_agrees_with_binary_where_seeks_gallop() {
    let dense = dense_graph();
    // The 5-cycle has over 10⁷ answers on the dense graph: it gets a sparser
    // one of the same shape.
    let sparse = graph(0x5EED_1970, 60, 6, 40);
    for (text, instance) in [
        (TRIANGLE, &dense),
        (CHORDAL4, &dense),
        (CLIQUE4, &dense),
        (LOOPED, &dense),
        (CYCLE5, &sparse),
    ] {
        let query = q(text);
        let binary = evaluate_with(&query, instance, options(JoinStrategy::Binary));
        let multiway = evaluate_with(&query, instance, options(JoinStrategy::Multiway));
        assert!(binary.len() > 100, "{text}: only {} answers", binary.len());
        assert_eq!(multiway, binary, "{text}");
    }
}

#[test]
fn multiway_agrees_with_binary_under_pre_bound_slots() {
    let instance = dense_graph();
    let query = q(LOOPED);
    let free = evaluate_with(&query, &instance, options(JoinStrategy::Binary));
    assert!(free.len() > 100);
    // Every answer's (x, z) as the pre-bound pair — `x` is the variable the
    // `L` atom repeats — plus a pair that has no answer and a value that
    // occurs nowhere.
    let mut bound: BTreeSet<(Value, Value)> = free
        .facts()
        .step_by(7)
        .map(|fact| (fact.values[0], fact.values[2]))
        .collect();
    bound.insert((v(1), v(1)));
    bound.insert((Value::new("nowhere"), v(0)));
    let mut non_empty = 0;
    for (x, z) in bound {
        let fixed = Valuation::from_names([("x", x.as_str()), ("z", z.as_str())]);
        let by = |strategy| -> BTreeSet<Valuation> {
            satisfying_valuations_with(&query, &instance, &fixed, options(strategy))
                .into_iter()
                .collect()
        };
        let binary = by(JoinStrategy::Binary);
        assert_eq!(by(JoinStrategy::Multiway), binary, "x = {x}, z = {z}");
        non_empty += usize::from(!binary.is_empty());
    }
    assert!(non_empty > 100);
}

/// The slots of `query` in the order the multiway join binds them: most
/// occurrences in the body first, ties in first-occurrence (= slot) order.
fn search_order(query: &CompiledQuery<'_>) -> Vec<usize> {
    let occurrences = |slot: usize| {
        let atoms = (0..query.atom_count()).flat_map(|atom| query.atom(atom));
        atoms.filter(|&&s| s == slot).count()
    };
    let mut order: Vec<usize> = (0..query.variables().len()).collect();
    order.sort_by_key(|&slot| std::cmp::Reverse(occurrences(slot)));
    order
}

#[test]
fn multiway_leaves_ascend_in_the_documented_variable_order() {
    let instance = dense_graph();
    for text in [TRIANGLE, CHORDAL4, LOOPED] {
        let query = q(text);
        let compiled = CompiledQuery::new(&query);
        let order = search_order(&compiled);
        if text == CHORDAL4 {
            assert_eq!(order, [0, 2, 1, 3], "a and c occur three times");
        }
        let mut leaves: Vec<Vec<Value>> = Vec::new();
        let opts = options(JoinStrategy::Multiway);
        let flow = compiled.for_each_satisfying(&instance, &Valuation::new(), opts, |slots| {
            leaves.push(order.iter().map(|&slot| slots[slot].unwrap()).collect());
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert!(leaves.len() > 100);
        assert!(
            leaves.windows(2).all(|pair| pair[0] < pair[1]),
            "{text}: leaves must come out strictly ascending"
        );

        let mut visited = 0;
        let flow = compiled.for_each_satisfying(&instance, &Valuation::new(), opts, |_| {
            visited += 1;
            ControlFlow::Break(())
        });
        assert_eq!((flow, visited), (ControlFlow::Break(()), 1), "{text}");
    }
}

#[test]
fn a_changed_fact_set_is_never_evaluated_through_a_stale_order() {
    let query = q(TRIANGLE);
    let opts = options(JoinStrategy::Multiway);
    let mut instance = Instance::from_facts([
        Fact::from_names("E", &["a", "b"]),
        Fact::from_names("E", &["b", "c"]),
    ]);
    assert!(evaluate_with(&query, &instance, opts).is_empty());
    // the orders are warm now: the closing edge must still be seen …
    let closing = Fact::from_names("E", &["c", "a"]);
    assert!(instance.insert(closing.clone()));
    assert_eq!(evaluate_with(&query, &instance, opts).len(), 3);
    // … re-inserting it changes nothing, and removing it is seen as well
    assert!(!instance.insert(closing.clone()));
    assert_eq!(evaluate_with(&query, &instance, opts).len(), 3);
    assert!(instance.remove(&closing));
    assert!(evaluate_with(&query, &instance, opts).is_empty());
    assert!(
        !instance.indexes_built(),
        "the multiway join does not read the posting index"
    );
}

#[test]
fn threads_sharing_one_cold_instance_agree_with_the_sequential_answer() {
    let query = q(CHORDAL4);
    let opts = options(JoinStrategy::Multiway);
    let sequential = evaluate_with(&query, &dense_graph(), opts);
    // Both threads ask the same cold instance for its orders at once.
    let shared = Arc::new(dense_graph());
    let barrier = Barrier::new(2);
    let answers: Vec<Instance> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    evaluate_with(&query, &shared, opts)
                })
            })
            .collect();
        let joined = threads.into_iter().map(|thread| thread.join().unwrap());
        joined.collect()
    });
    assert!(sequential.len() > 100);
    assert!(answers.iter().all(|answer| *answer == sequential));
}
