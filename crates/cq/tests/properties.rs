//! Property-based tests for the conjunctive-query substrate.
//!
//! These properties are the semantic laws the rest of the workspace relies
//! on: genericity, monotonicity, soundness of containment/minimization, and
//! parser/printer round-tripping.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use cq::{
    contained_in, equivalent, evaluate, evaluate_with, is_minimal, minimize, Atom,
    ConjunctiveQuery, EvalOptions, Fact, Instance, Tuple, Valuation, Value, Variable,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- strategies

/// A strategy for small conjunctive queries over binary relations R0/R1, with
/// heads of arity 0 to 4 — every width the evaluator packs — that may repeat
/// a variable.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    // each atom: (relation index, var index, var index) over a pool of 4 vars
    let atom = (0..2usize, 0..4usize, 0..4usize);
    let head = proptest::collection::vec(0..4usize, 0..5);
    (proptest::collection::vec(atom, 1..5), head).prop_map(|(atoms, head)| {
        let var = |i: usize| Variable::indexed("x", i);
        let body: Vec<Atom> = atoms
            .iter()
            .map(|&(r, a, b)| Atom::new(format!("R{r}").as_str(), vec![var(a), var(b)]))
            .collect();
        // head variables drawn from the body to keep the query safe
        let mut body_vars = Vec::new();
        for atom in &body {
            for &v in &atom.args {
                if !body_vars.contains(&v) {
                    body_vars.push(v);
                }
            }
        }
        let head_vars = head.iter().map(|&v| body_vars[v % body_vars.len()]);
        let head_vars: Vec<Variable> = head_vars.collect();
        ConjunctiveQuery::new(Atom::new("T", head_vars), body).expect("generated query is safe")
    })
}

/// A strategy for small instances over the binary relations R0/R1 with values
/// drawn from a domain of size 5.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let fact = (0..2usize, 0..5usize, 0..5usize);
    proptest::collection::vec(fact, 0..25).prop_map(|facts| {
        Instance::from_facts(facts.into_iter().map(|(r, a, b)| {
            Fact::new(
                format!("R{r}").as_str(),
                vec![Value::indexed("d", a), Value::indexed("d", b)],
            )
        }))
    })
}

/// Ill-formed instances on purpose: the relations R0/R1 of `query_strategy`
/// used with arities 1 to 3 side by side.
fn mixed_arity_instance_strategy() -> impl Strategy<Value = Instance> {
    let fact = (0..2usize, 1..4usize, 0..4usize, 0..4usize, 0..4usize);
    proptest::collection::vec(fact, 0..30).prop_map(|facts| {
        Instance::from_facts(facts.into_iter().map(|(r, arity, a, b, c)| {
            let values = [a, b, c].map(|v| Value::indexed("d", v));
            Fact::new(format!("R{r}").as_str(), values[..arity].to_vec())
        }))
    })
}

/// Both evaluators: the triejoin and the scan oracle.
fn all_options() -> [EvalOptions; 2] {
    [EvalOptions::Triejoin, EvalOptions::ScanOracle]
}

fn valuations(
    q: &ConjunctiveQuery,
    i: &Instance,
    fixed: &Valuation,
    opts: EvalOptions,
) -> BTreeSet<Valuation> {
    cq::satisfying_valuations_with(q, i, fixed, opts)
        .into_iter()
        .collect()
}

/// A random permutation of the value domain used by `instance_strategy`.
fn permutation_strategy() -> impl Strategy<Value = Vec<usize>> {
    Just((0..5usize).collect::<Vec<_>>()).prop_shuffle()
}

fn apply_permutation(instance: &Instance, perm: &[usize]) -> Instance {
    let map: BTreeMap<Value, Value> = (0..perm.len())
        .map(|i| (Value::indexed("d", i), Value::indexed("d", perm[i])))
        .collect();
    Instance::from_facts(instance.facts().map(|f| {
        Fact::new(
            f.relation,
            f.values
                .iter()
                .map(|v| *map.get(v).unwrap_or(v))
                .collect::<Tuple>(),
        )
    }))
}

// ----------------------------------------------------------------- properties

proptest! {
    // Bounded and explicitly seeded: 64 deterministic cases per property so
    // `cargo test -q` is reproducible and fast.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xC0_5EED))]

    /// Printing a query and parsing it back yields the same query.
    #[test]
    fn parser_printer_roundtrip(q in query_strategy()) {
        let reparsed = ConjunctiveQuery::parse(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }

    /// Evaluation is monotone: adding facts never removes answers.
    #[test]
    fn evaluation_is_monotone(q in query_strategy(), i in instance_strategy(), j in instance_strategy()) {
        let small = evaluate(&q, &i);
        let big = evaluate(&q, &i.union(&j));
        prop_assert!(big.contains_all(&small));
    }

    /// Genericity: evaluating on a renamed instance gives the renamed result
    /// (queries cannot look at the concrete data values).
    #[test]
    fn evaluation_is_generic(q in query_strategy(), i in instance_strategy(), perm in permutation_strategy()) {
        let renamed_input = apply_permutation(&i, &perm);
        let renamed_output = apply_permutation(&evaluate(&q, &i), &perm);
        prop_assert_eq!(evaluate(&q, &renamed_input), renamed_output);
    }

    /// Containment decided by the homomorphism test is sound on concrete
    /// instances: q1 ⊆ q2 implies q1(I) ⊆ q2(I).
    #[test]
    fn containment_is_sound(q1 in query_strategy(), q2 in query_strategy(), i in instance_strategy()) {
        if contained_in(&q1, &q2) {
            let r1 = evaluate(&q1, &i);
            let r2 = evaluate(&q2, &i);
            prop_assert!(r2.contains_all(&r1), "containment violated on {}", i);
        }
    }

    /// Minimization preserves semantics and produces a minimal query that is
    /// never larger than the input.
    #[test]
    fn minimization_preserves_semantics(q in query_strategy(), i in instance_strategy()) {
        let min = minimize(&q);
        prop_assert!(min.core.body_size() <= q.body_size());
        prop_assert!(is_minimal(&min.core));
        prop_assert!(equivalent(&q, &min.core));
        prop_assert_eq!(evaluate(&q, &i), evaluate(&min.core, &i));
        prop_assert!(min.simplification.is_simplification_of(&q));
    }

    /// The result of a query only contains facts over its output relation
    /// with the head arity, and it is exactly the set of facts the
    /// satisfying valuations derive — built here one valuation at a time,
    /// without the evaluator's answer set.
    #[test]
    fn answers_are_well_formed(q in query_strategy(), i in instance_strategy()) {
        let result = evaluate(&q, &i);
        for fact in result.facts() {
            prop_assert_eq!(fact.relation, q.head().relation);
            prop_assert_eq!(fact.arity(), q.head().arity());
        }
        let vals = cq::satisfying_valuations(&q, &i);
        let derived: BTreeSet<Fact> = vals.iter().map(|v| v.derived_fact(&q)).collect();
        prop_assert_eq!(result.to_set(), derived);
    }

    /// Index-backed evaluation is observationally identical to the scan
    /// evaluator: every strategy combination (indexed/scan × cost-aware/
    /// naive ordering × binary/multiway/auto join) enumerates exactly the
    /// same satisfying valuations on random queries and instances. The
    /// generated queries are a mix of cyclic and acyclic shapes, so the
    /// auto planner exercises both joins and the multiway matcher is pinned
    /// against the binary one on the same inputs.
    #[test]
    fn indexed_evaluation_equals_scan_evaluation(q in query_strategy(), i in instance_strategy()) {
        let scan = valuations(&q, &i, &Valuation::new(), EvalOptions::ScanOracle);
        for opts in all_options() {
            let got = valuations(&q, &i, &Valuation::new(), opts);
            prop_assert_eq!(&got, &scan, "{:?} disagrees with scan/naive on {}", opts, i);
            // one enumeration never reaches a valuation twice
            let listed = cq::satisfying_valuations_with(&q, &i, &Valuation::new(), opts);
            prop_assert_eq!(listed.len(), got.len(), "{:?} lists a valuation twice", opts);
        }
    }

    /// A fact only ever matches an atom of its own arity: on relations that
    /// mix arities, every strategy combination — the multiway join used to
    /// index past a short fact and to accept a long one — agrees with the
    /// scan oracle, which in turn sees nothing but the well-formed part.
    #[test]
    fn strategies_agree_on_mixed_arity_instances(q in query_strategy(), i in mixed_arity_instance_strategy()) {
        let scan = valuations(&q, &i, &Valuation::new(), EvalOptions::ScanOracle);
        let binary_facts = Instance::from_facts(i.facts().filter(|f| f.arity() == 2).cloned());
        prop_assert_eq!(
            &scan,
            &valuations(&q, &binary_facts, &Valuation::new(), EvalOptions::ScanOracle)
        );
        let answers = evaluate_with(&q, &i, EvalOptions::ScanOracle);
        for opts in all_options() {
            let got = valuations(&q, &i, &Valuation::new(), opts);
            prop_assert_eq!(&got, &scan, "{:?} disagrees with scan/naive on {}", opts, i);
            prop_assert_eq!(&evaluate_with(&q, &i, opts), &answers, "{:?} on {}", opts, i);
            let step = cq::evaluate_seminaive_step_with(&q, &i, &i, opts);
            prop_assert_eq!(&step, &answers, "semi-naive {:?} on {}", opts, i);
        }
    }

    /// Pre-bound variables: whatever `fixed` binds — query variables to
    /// values inside or outside the instance, and variables the query does
    /// not have — every strategy enumerates the scan oracle's valuations,
    /// and those are the unconstrained ones that agree with `fixed`.
    #[test]
    fn fixed_bindings_filter_the_valuations(
        q in query_strategy(),
        i in instance_strategy(),
        bindings in proptest::collection::vec((0..6usize, 0..7usize), 0..3),
    ) {
        // x4, x5 are not query variables; d5, d6 are not instance values
        let fixed = Valuation::from_pairs(
            bindings.iter().map(|&(var, value)| (Variable::indexed("x", var), Value::indexed("d", value))),
        );
        let query_vars = q.variables();
        let expected: BTreeSet<Valuation> = valuations(&q, &i, &Valuation::new(), EvalOptions::ScanOracle)
            .into_iter()
            .filter(|v| fixed.bindings().all(|(var, value)| !query_vars.contains(&var) || v.get(var) == Some(value)))
            .collect();
        for opts in all_options() {
            let got = valuations(&q, &i, &fixed, opts);
            prop_assert_eq!(&got, &expected, "{:?} with fixed {} on {}", opts, fixed, i);
        }
    }

    /// Stopping the enumeration from the callback stops it at once under
    /// every strategy, and what was enumerated until then is a duplicate-free
    /// prefix of satisfying valuations.
    #[test]
    fn early_break_stops_every_strategy(q in query_strategy(), i in instance_strategy(), stop_after in 1usize..4) {
        let all = valuations(&q, &i, &Valuation::new(), EvalOptions::ScanOracle);
        for opts in all_options() {
            let mut seen = Vec::new();
            let flow = cq::for_each_satisfying(&q, &i, &Valuation::new(), opts, |v| {
                seen.push(v.clone());
                if seen.len() == stop_after { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
            });
            prop_assert_eq!(flow.is_break(), all.len() >= stop_after, "{:?}", opts);
            prop_assert_eq!(seen.len(), stop_after.min(all.len()), "{:?}", opts);
            prop_assert!(seen.iter().all(|v| all.contains(v)), "{:?}", opts);
            prop_assert_eq!(seen.iter().collect::<BTreeSet<_>>().len(), seen.len(), "{:?}", opts);
        }
    }

    /// The semi-naive differential law the incremental round engine is
    /// built on: evaluating `old ∪ delta` equals evaluating `old` plus one
    /// differential step joining the delta against the combined instance —
    /// under both evaluators.
    #[test]
    fn seminaive_step_equals_full_reevaluation(q in query_strategy(), old in instance_strategy(), delta in instance_strategy()) {
        let full = old.union(&delta);
        let reference = evaluate(&q, &full);
        for opts in all_options() {
            let step = cq::evaluate_seminaive_step_with(&q, &full, &delta, opts);
            prop_assert_eq!(
                evaluate(&q, &old).union(&step),
                reference.clone(),
                "options {:?}", opts
            );
            // soundness on its own: the step derives nothing beyond Q(full)
            prop_assert!(reference.contains_all(&step));
        }
    }

    /// The secondary indexes stay consistent across mutation: evaluating,
    /// inserting more facts, and evaluating again gives the same result as
    /// evaluating a freshly built instance with the same fact set.
    #[test]
    fn index_maintenance_preserves_evaluation(q in query_strategy(), i in instance_strategy(), j in instance_strategy()) {
        let mut grown = i.clone();
        // evaluate first so grown's sorted orders are built, then mutate:
        // the second evaluation catches the orders up with the appends (and
        // rebuilds those a positional insert dropped) and must see exactly
        // the rows a fresh build would sort
        let _ = evaluate(&q, &grown);
        for f in j.facts() {
            grown.insert(f.clone());
        }
        let from_mutated = evaluate(&q, &grown);
        let from_fresh = evaluate(&q, &i.union(&j));
        prop_assert_eq!(from_mutated, from_fresh);
    }

    /// Instance set algebra behaves like set algebra.
    #[test]
    fn instance_algebra(i in instance_strategy(), j in instance_strategy()) {
        let union = i.union(&j);
        let inter = i.intersection(&j);
        let diff = i.difference(&j);
        prop_assert!(union.contains_all(&i) && union.contains_all(&j));
        prop_assert!(i.contains_all(&inter) && j.contains_all(&inter));
        prop_assert!(i.contains_all(&diff));
        prop_assert_eq!(diff.len() + inter.len(), i.len());
        prop_assert_eq!(union.len() + inter.len(), i.len() + j.len());
    }

    /// The set operations — merge walks over the ascending rows, relation
    /// by relation — are `BTreeSet`'s, fact for fact and in order, on
    /// instances whose relations mix arities; and absorbing `j` into `i`
    /// grows it to the union and hands back exactly `j \ i`.
    #[test]
    fn set_operations_are_the_ordered_set_operations(
        i in mixed_arity_instance_strategy(),
        j in mixed_arity_instance_strategy(),
    ) {
        let (a, b) = (i.to_set(), j.to_set());
        let same = |instance: &Instance, set: BTreeSet<Fact>| instance.facts().eq(set.iter());
        prop_assert!(same(&i.union(&j), &a | &b));
        prop_assert!(same(&i.intersection(&j), &a & &b));
        prop_assert!(same(&i.difference(&j), &a - &b));
        prop_assert_eq!(i.contains_all(&j), b.is_subset(&a));
        prop_assert!(i.contains_all(&i.intersection(&j)) && i.union(&j).contains_all(&j));
        let mut grown = i.clone();
        let new = grown.absorb(&j);
        prop_assert!(same(&new, &b - &a));
        prop_assert!(same(&grown, &a | &b));
    }

    /// Differential: the bulk builder equals inserting one fact at a time —
    /// on input with duplicates, several relations and mixed arities — in
    /// the `facts()` sequence, in every relation's rows (as a multiset: row
    /// order is unspecified), and in what the sorted orders hold.
    /// `extend` into an empty instance and `union` take the same bulk path.
    #[test]
    fn bulk_build_equals_inserting_one_by_one(
        raw in proptest::collection::vec((0..3usize, 0..3usize, 0..4usize, 0..4usize, 0..4usize), 0..40),
        split in 0usize..40,
    ) {
        let facts: Vec<Fact> = raw
            .iter()
            .map(|&(rel, arity, a, b, c)| {
                let values = [a, b, c].map(|v| Value::indexed("d", v));
                Fact::new(format!("R{rel}").as_str(), values[..arity].to_vec())
            })
            .collect();
        let mut one_by_one = Instance::new();
        for fact in &facts {
            one_by_one.insert(fact.clone());
        }
        let bulk = Instance::from_facts(facts.iter().cloned());
        let mut extended = Instance::new();
        extended.extend(facts.iter().cloned());
        let (left, right) = facts.split_at(split.min(facts.len()));
        let united = Instance::from_facts(left.iter().cloned())
            .union(&Instance::from_facts(right.iter().cloned()));
        let moved: Vec<Fact> = bulk.clone().into_iter().collect();
        prop_assert_eq!(&moved, &one_by_one.facts().cloned().collect::<Vec<_>>());

        let sorted = |rows: &[Fact]| {
            let mut rows = rows.to_vec();
            rows.sort();
            rows
        };
        for built in [&bulk, &extended, &united] {
            prop_assert_eq!(built, &one_by_one);
            prop_assert_eq!(built.len(), one_by_one.len());
            prop_assert!(built.facts().eq(one_by_one.facts()));
            for rel in (0..3).map(|r| cq::Symbol::new(&format!("R{r}"))) {
                prop_assert_eq!(sorted(built.facts_of(rel)), sorted(one_by_one.facts_of(rel)));
            }
            // The sorted orders hold the same rows however the rows came in:
            // the triejoin's leaves come out the same, in the same order —
            // over permuted columns, every arity, a repeated variable.
            for text in [
                "T(a, b, c) :- R0(a, b), R1(b, c).",
                "T(a, b, c) :- R2(a, b, c), R0(c), R1(b, a), R1(b, b).",
            ] {
                let query = ConjunctiveQuery::parse(text).unwrap();
                let leaves = |i: &Instance| {
                    let mut leaves: Vec<Vec<Option<Value>>> = Vec::new();
                    let compiled = cq::CompiledQuery::new(&query);
                    let opts = EvalOptions::default();
                    let _ = compiled.for_each_satisfying(i, &Valuation::new(), opts, |slots| {
                        leaves.push(slots.to_vec());
                        ControlFlow::Continue(())
                    });
                    leaves
                };
                prop_assert_eq!(leaves(built), leaves(&one_by_one), "{}", text);
            }
        }
    }

    /// A tuple is a slice in everything but storage: random pairs on both
    /// sides of the spill (arities 0, 1, 5, 6, 12) that share a prefix of
    /// random length compare, order and hash as their `Vec<Value>`s do.
    #[test]
    fn tuples_compare_order_and_hash_as_slices(
        arities in (0..5usize, 0..5usize),
        left in proptest::collection::vec(0..3usize, 12..13),
        right in proptest::collection::vec(0..3usize, 12..13),
        shared in 0..13usize,
    ) {
        const ARITIES: [usize; 5] = [0, 1, 5, 6, 12];
        fn hash_of(value: &impl Hash) -> u64 {
            let mut hasher = DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        let mut right = right;
        right[..shared].copy_from_slice(&left[..shared]);
        let values = |raw: &[usize], arity: usize| -> Vec<Value> {
            raw[..ARITIES[arity]].iter().map(|&v| Value::indexed("d", v)).collect()
        };
        let (a, b) = (values(&left, arities.0), values(&right, arities.1));
        let ta: Tuple = a.iter().copied().collect();
        let tb = Tuple::from(b.clone());
        prop_assert_eq!(ta.as_slice(), a.as_slice());
        prop_assert_eq!(&ta, &Tuple::from(a.clone()));
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(hash_of(&ta), hash_of(&a));
        let set: HashSet<Tuple> = [ta.clone()].into();
        prop_assert!(set.contains(a.as_slice()));
        prop_assert_eq!(set.contains(b.as_slice()), a == b);
        let (fa, fb) = (Fact::new("R0", ta), Fact::new("R0", tb));
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
    }

    /// Canonical partition enumeration produces only valid restricted-growth
    /// strings and at least one injective and one constant assignment.
    #[test]
    fn partition_enumeration_is_canonical(n in 1usize..7) {
        let partitions = cq::partition_assignments(n);
        for p in &partitions {
            prop_assert_eq!(p[0], 0);
            let mut max = 0;
            for &class in p.iter().skip(1) {
                prop_assert!(class <= max + 1);
                max = max.max(class);
            }
        }
        let has_constant = partitions.iter().any(|p| p.iter().all(|&c| c == 0));
        let has_injective = partitions.iter().any(|p| {
            let set: std::collections::BTreeSet<_> = p.iter().collect();
            set.len() == p.len()
        });
        prop_assert!(has_constant);
        prop_assert!(has_injective);
    }
}

/// A variable repeated inside one atom — as a scan filter, as an index
/// probe on two positions at once, and in the multiway join as the source
/// atom of a depth and as a twice-narrowed atom at the last one — agrees
/// with the scan oracle under every strategy.
#[test]
fn repeated_variables_inside_one_atom_agree_with_the_scan_oracle() {
    let values = ["a", "b", "c"].map(Value::new);
    let mut facts = Vec::new();
    for (i, &x) in values.iter().enumerate() {
        for (j, &y) in values.iter().enumerate() {
            if i <= j {
                facts.push(Fact::new("S", vec![x, y]));
            }
            for (k, &z) in values.iter().enumerate() {
                if (i + j + k) % 2 == 0 {
                    facts.push(Fact::new("R", vec![x, y, z]));
                }
            }
        }
    }
    let instance = Instance::from_facts(facts);
    for text in [
        "T(x, y) :- R(x, x, y), S(y, y).",
        "T(x) :- R(x, y, x), R(y, x, y).",
        "T() :- R(x, x, x).",
        "T(x, z) :- R(x, y, y), S(y, z), S(z, z).",
        "T(y) :- S(x, y), R(y, y, x), S(y, x).",
    ] {
        let q = ConjunctiveQuery::parse(text).unwrap();
        let scan = valuations(&q, &instance, &Valuation::new(), EvalOptions::ScanOracle);
        assert!(!scan.is_empty(), "{q} should have answers on {instance}");
        for opts in all_options() {
            let got = valuations(&q, &instance, &Valuation::new(), opts);
            assert_eq!(got, scan, "{q}: {opts:?} disagrees with scan/naive");
        }
    }
}

/// Arity-7 facts — past the inline tuple — in a relation that also holds
/// shorter and longer ones: the binary join (acyclic query), the multiway
/// join (cyclic query), a head wide enough to spill and a projecting head
/// too wide to pack into one answer key (arity 5) all agree with the scan
/// oracle, under every strategy and in the semi-naive step.
#[test]
fn wide_tuples_join_like_narrow_ones() {
    let v = |i: usize| Value::indexed("w", i % 4);
    let mut facts: Vec<Fact> = (0..24)
        .map(|i| Fact::new("W", (0..7).map(|p| v(i + i / 4 * p)).collect::<Tuple>()))
        .collect();
    facts.extend((0..4).map(|i| Fact::new("W", vec![v(i), v(i + 1)])));
    facts.push(Fact::new("W", (0..9).map(v).collect::<Tuple>()));
    facts.extend((0..16).map(|i| Fact::new("E", vec![v(i / 4), v(i)])));
    let instance = Instance::from_facts(facts);
    for text in [
        "T(a, g) :- W(a, b, c, d, e, f, g), E(g, a).",
        "T(a, b, c, d, e, f, g) :- W(a, b, c, d, e, f, g), E(g, a).",
        "T(a, h) :- W(a, b, c, d, e, f, g), E(g, h), E(h, a).",
        "T(b) :- W(a, b, a, d, e, f, b), E(b, d).",
        "T(a, c, e, g, h) :- W(a, b, c, d, e, f, g), E(g, h).",
    ] {
        let q = ConjunctiveQuery::parse(text).unwrap();
        let scan = valuations(&q, &instance, &Valuation::new(), EvalOptions::ScanOracle);
        let answers = evaluate_with(&q, &instance, EvalOptions::ScanOracle);
        assert!(!answers.is_empty(), "{q} should have answers on {instance}");
        let derived: BTreeSet<Fact> = scan.iter().map(|v| v.derived_fact(&q)).collect();
        assert_eq!(answers.to_set(), derived, "{q}");
        for opts in all_options() {
            let got = valuations(&q, &instance, &Valuation::new(), opts);
            assert_eq!(got, scan, "{q}: {opts:?} disagrees with scan/naive");
            assert_eq!(evaluate_with(&q, &instance, opts), answers, "{q}: {opts:?}");
            let step = cq::evaluate_seminaive_step_with(&q, &instance, &instance, opts);
            assert_eq!(step, answers, "{q}: semi-naive {opts:?}");
        }
    }
}

/// The two mixed-arity instances that broke the multiway join: a unary
/// `E(a)` (index out of bounds) and ternary facts that matched `E(y, z)`.
#[test]
fn triangle_ignores_facts_of_another_arity() {
    let triangle = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let expected = cq::parse_instance("T(a, b, c). T(b, c, a). T(c, a, b).").unwrap();
    for text in [
        "E(a, b). E(b, c). E(c, a). E(a).",
        "E(a, b). E(b, c). E(c, a). E(a, b, c). E(b, a, d). E(a, a, e).",
    ] {
        let instance = cq::parse_instance(text).unwrap();
        for opts in all_options() {
            assert_eq!(
                evaluate_with(&triangle, &instance, opts),
                expected,
                "{opts:?} on {text}"
            );
        }
    }
}
