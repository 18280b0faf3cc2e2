//! The conditions (C0), (C1), (C2) and (C3) of the paper, as checkable
//! predicates with witnesses.
//!
//! * **(C0)** — for every valuation `V` for `Q`, the facts `V(body_Q)` meet
//!   at some node. Sufficient but not necessary for parallel-correctness.
//! * **(C1)** — the same, restricted to *minimal* valuations. Characterizes
//!   parallel-correctness (Lemma 3.4).
//! * **(C2)** — for every minimal valuation `V'` of `Q'` there is a minimal
//!   valuation `V` of `Q` with `V'(body_{Q'}) ⊆ V(body_Q)`. Characterizes
//!   transferability (Lemma 4.2).
//! * **(C3)** — there are a simplification `θ` of `Q'` and a substitution
//!   `ρ` of `Q` with `body_{θ(Q')} ⊆ body_{ρ(Q)}`. Characterizes
//!   transferability for strongly minimal `Q` (Lemma 4.6) and
//!   parallel-correctness for `Q`-generous, `Q`-scattered families
//!   (Lemma 5.2).
//!
//! The quantification over valuations is made finite as in the paper: (C0)
//! and (C1) are evaluated relative to a finite fact universe (for `Pfin`
//! policies this is `facts(P)`, cf. Lemma B.4), while (C2) uses canonical
//! valuations over a bounded domain (Claim C.4).
//!
//! No loop below builds an [`Instance`] or a [`Valuation`] per candidate.
//! (C0)/(C1) enumerate the universe through the compiled slot kernel of
//! `cq`, ask the [`MinimalityOracle`] by equality type and test "the facts
//! meet" against a `MeetTable` (one `nodes_for` per universe fact, kept as
//! a node bitset). (C2) and its no-skip variant (C2') are one loop,
//! `c2_search`, whose covering search binds slots with an undo trail and
//! asks the oracle's search directly.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use cq::{
    for_each_atom_mapping, Atom, Bindings, CanonicalValuations, CompiledQuery, ConjunctiveQuery,
    CoverProblem, EvalOptions, Fact, Instance, Slots, Substitution, Symbol, SymbolHashBuilder,
    Valuation, Value,
};
use distribution::{DistributionPolicy, Node};

use crate::minimality::{MinimalityOracle, MinimalityStats};

/// A violation of condition (C1): a minimal valuation whose required facts
/// do not meet at any node.
#[derive(Clone, Debug)]
pub struct C1Violation {
    /// The offending (minimal) valuation.
    pub valuation: Valuation,
    /// Its required facts `V(body_Q)`.
    pub required_facts: Instance,
}

/// Where the facts of a universe go under a policy, as one bitset of node
/// ids per fact (ids handed out as nodes are first seen, `words` machine
/// words per fact): a valuation's facts meet iff their AND is non-zero.
struct MeetTable<'u> {
    /// The row of each universe fact in `bits`.
    rows: HashMap<(Symbol, &'u [Value]), usize, SymbolHashBuilder>,
    bits: Vec<u64>,
    words: usize,
    /// The image of the atom at hand, reused across asks.
    tuple: Vec<Value>,
    /// The rows of the atoms' facts, reused across asks.
    required: Vec<usize>,
}

impl<'u> MeetTable<'u> {
    fn new<P: DistributionPolicy + ?Sized>(policy: &P, universe: &'u Instance) -> Self {
        let mut rows = HashMap::with_capacity_and_hasher(universe.len(), SymbolHashBuilder);
        let mut ids: HashMap<Node, usize> = HashMap::new();
        let mut sent = Vec::with_capacity(universe.len());
        for (row, fact) in universe.facts().enumerate() {
            rows.insert((fact.relation, fact.values.as_slice()), row);
            for node in policy.nodes_for(fact) {
                let fresh = ids.len();
                sent.push((row, *ids.entry(node).or_insert(fresh)));
            }
        }
        let words = ids.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; universe.len() * words];
        for (row, id) in sent {
            bits[row * words + id / 64] |= 1 << (id % 64);
        }
        MeetTable {
            rows,
            bits,
            words,
            tuple: Vec::new(),
            required: Vec::new(),
        }
    }

    /// Whether the facts the total valuation `slots` requires meet at some
    /// node: `⋂ P(f) ≠ ∅` over `f ∈ V(body_Q)`. A fact outside the
    /// universe is sent nowhere.
    fn meets(&mut self, compiled: &CompiledQuery<'_>, slots: &Slots) -> bool {
        self.required.clear();
        for (atom, args) in compiled.query().body().iter().enumerate() {
            self.tuple.clear();
            let image = compiled.atom(atom).iter();
            self.tuple
                .extend(image.map(|&slot| slots[slot].expect("every slot is bound at a leaf")));
            match self.rows.get(&(args.relation, self.tuple.as_slice())) {
                Some(&row) => self.required.push(row),
                None => return false,
            }
        }
        (0..self.words).any(|word| {
            let at = |&row: &usize| self.bits[row * self.words + word];
            self.required.iter().map(at).fold(u64::MAX, |a, b| a & b) != 0
        })
    }
}

/// The search behind (C0) and (C1): the first valuation of `query` over
/// `universe` — the first *minimal* one with `minimal_only` — whose facts do
/// not meet under `policy`, with the minimality asks it took.
pub(crate) fn meet_violation<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
    minimal_only: bool,
) -> (Option<C1Violation>, MinimalityStats) {
    let compiled = CompiledQuery::new(query);
    let mut oracle = MinimalityOracle::new(&compiled);
    let mut table = MeetTable::new(policy, universe);
    let mut violation = None;
    let _ = compiled.for_each_satisfying(
        universe,
        &Valuation::new(),
        EvalOptions::default(),
        |slots| {
            if (minimal_only && !oracle.is_minimal_by_type(slots)) || table.meets(&compiled, slots)
            {
                return ControlFlow::Continue(());
            }
            let valuation = compiled.valuation(slots);
            violation = Some(C1Violation {
                required_facts: valuation.required_facts(query),
                valuation,
            });
            ControlFlow::Break(())
        },
    );
    (violation, oracle.stats())
}

/// Condition (C0) relative to the finite fact universe `universe`:
/// every valuation of `query` whose required facts lie inside `universe`
/// has its facts meeting at some node of `policy`.
pub fn holds_c0<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
) -> bool {
    c0_violation(query, policy, universe).is_none()
}

/// Searches for a violation of (C0) (any satisfying valuation over
/// `universe` whose facts do not meet).
pub fn c0_violation<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
) -> Option<C1Violation> {
    meet_violation(query, policy, universe, false).0
}

/// Condition (C1) relative to the finite fact universe `universe`:
/// every **minimal** valuation of `query` over `universe` has its required
/// facts meeting at some node of `policy` (Lemma 3.4 / Lemma B.4).
pub fn holds_c1<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
) -> bool {
    c1_violation(query, policy, universe).is_none()
}

/// Searches for a violation of (C1).
pub fn c1_violation<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
) -> Option<C1Violation> {
    meet_violation(query, policy, universe, true).0
}

/// Condition (C2): for every minimal valuation `V'` of `to`, there is a
/// minimal valuation `V` of `from` with `V'(body_{to}) ⊆ V(body_{from})`
/// (Lemma 4.2; `from` is the query parallel-correctness transfers *from*).
pub fn holds_c2(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> bool {
    c2_violation(from, to).is_none()
}

/// Searches for a violation of (C2): a minimal valuation of `to` for which
/// no covering minimal valuation of `from` exists.
pub fn c2_violation(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Valuation> {
    c2_search(from, to, false).0
}

/// The one loop behind (C2) and its no-skip relaxation (C2', Remark C.3):
/// the first canonical minimal valuation of `to` (Claim C.4: equality
/// patterns suffice) whose required facts no minimal valuation of `from`
/// covers. With `single_facts_exempt`, valuations requiring a single fact
/// need no cover — a policy that skips nothing places that fact somewhere.
pub(crate) fn c2_search(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    single_facts_exempt: bool,
) -> (Option<Valuation>, MinimalityStats) {
    let (compiled_from, compiled_to) = (CompiledQuery::new(from), CompiledQuery::new(to));
    let mut minimal_to = MinimalityOracle::new(&compiled_to);
    let mut covers = CoverSearch::new(&compiled_from);
    let violation = CanonicalValuations::new(to.variables()).find(|v_prime| {
        if !minimal_to.is_minimal_valuation(v_prime) {
            return false;
        }
        let target = v_prime.required_facts(to);
        !(single_facts_exempt && target.len() <= 1) && covers.find(&target).is_none()
    });
    (violation, minimal_to.stats().merge(covers.oracle.stats()))
}

/// The covering search of (C2) for one query: is there a **minimal**
/// valuation `V` with `target ⊆ V(body_query)`? It first covers every target
/// fact by some body atom (binding the constrained variables), then
/// enumerates the remaining variables over the active domain of `target`
/// extended with canonical fresh values, and asks minimality of each
/// candidate. Works on the slots of the compiled query; reused across targets.
struct CoverSearch<'q> {
    compiled: &'q CompiledQuery<'q>,
    oracle: MinimalityOracle<'q>,
    /// One fresh value per variable, outside every target's active domain.
    fresh: Vec<Value>,
    /// The target's active domain followed by `fresh`.
    domain: Vec<Value>,
    fresh_base: usize,
    bindings: Bindings,
}

impl<'q> CoverSearch<'q> {
    fn new(compiled: &'q CompiledQuery<'q>) -> Self {
        let variables = compiled.variables().len();
        CoverSearch {
            compiled,
            oracle: MinimalityOracle::new(compiled),
            fresh: (0..variables)
                .map(|i| Value::indexed("$fresh", i))
                .collect(),
            domain: Vec::new(),
            fresh_base: 0,
            bindings: Bindings::new(vec![None; variables]),
        }
    }

    /// The first minimal valuation whose required facts contain `target`.
    fn find(&mut self, target: &Instance) -> Option<Valuation> {
        self.domain.clear();
        self.domain.extend(target.adom());
        self.fresh_base = self.domain.len();
        self.domain.extend(&self.fresh);
        let target: Vec<&Fact> = target.facts().collect();
        let witness = self
            .cover(&target)
            .then(|| self.compiled.valuation(self.bindings.slots()));
        self.bindings.undo(0);
        witness
    }

    /// Backtracking over the target facts: each must be the image of a body
    /// atom. On success the bindings are left holding the witness.
    fn cover(&mut self, target: &[&Fact]) -> bool {
        let Some((goal, rest)) = target.split_first() else {
            // All target facts covered; enumerate the remaining variables.
            return self.extend(0, 0);
        };
        let compiled = self.compiled;
        for (atom, shape) in compiled.query().body().iter().enumerate() {
            let mark = self.bindings.mark();
            if shape.relation == goal.relation && self.bindings.unify(compiled.atom(atom), goal) {
                if self.cover(rest) {
                    return true;
                }
                self.bindings.undo(mark);
            }
        }
        false
    }

    /// Binds the unbound slots from `slot` on in slot order — fresh values
    /// in canonical order, to avoid isomorphic duplicates — and stops at the
    /// first minimal candidate, leaving it in the bindings.
    fn extend(&mut self, slot: usize, fresh_used: usize) -> bool {
        let Some(bound) = self.bindings.slots().get(slot) else {
            return self.oracle.is_minimal(self.bindings.slots());
        };
        if bound.is_some() {
            return self.extend(slot + 1, fresh_used);
        }
        // allowed values: all of adom plus fresh values up to fresh_used + 1
        let limit = (self.fresh_base + fresh_used + 1).min(self.domain.len());
        for i in 0..limit {
            let mark = self.bindings.mark();
            self.bindings.bind(slot, self.domain[i]);
            let used = fresh_used.max((i + 1).saturating_sub(self.fresh_base));
            if self.extend(slot + 1, used) {
                return true;
            }
            self.bindings.undo(mark);
        }
        false
    }
}

/// A witness for condition (C3): the simplification `θ` of `Q'` and the
/// substitution `ρ` of `Q` with `body_{θ(Q')} ⊆ body_{ρ(Q)}`.
#[derive(Clone, Debug)]
pub struct C3Witness {
    /// The simplification `θ` of `Q'`.
    pub theta: Substitution,
    /// The substitution `ρ` of `Q`.
    pub rho: Substitution,
}

/// Condition (C3) for the pair (`from` = `Q`, `to` = `Q'`).
pub fn holds_c3(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> bool {
    c3_witness(from, to).is_some()
}

/// Searches for a witness of condition (C3): enumerate simplifications `θ`
/// of `to` (endomorphisms fixing the head with body image inside the body)
/// and, for each, try to cover `body_{θ(to)}` by a substitution image of
/// `body_{from}`.
pub fn c3_witness(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<C3Witness> {
    // Seed: head variables of `to` must be fixed (θ is a simplification).
    let mut seed = Substitution::identity();
    for &v in &to.head().args {
        seed.bind(v, v);
    }
    let mut witness = None;
    let mut seen_bodies: BTreeSet<Vec<Atom>> = BTreeSet::new();
    let _ = for_each_atom_mapping(to.body(), to.body(), &seed, &mut |theta| {
        // θ maps body(to) into body(to) and fixes the head: a simplification.
        let image = theta.apply_atoms(to.body());
        let mut sorted = image.clone();
        sorted.sort();
        if !seen_bodies.insert(sorted) {
            // Another simplification with the same body image was already tried.
            return ControlFlow::Continue(());
        }
        if let Some(rho) = CoverProblem::new(from.body().to_vec(), image).solve() {
            witness = Some(C3Witness {
                theta: theta.clone(),
                rho,
            });
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimality::is_minimal_valuation;
    use distribution::{ExplicitPolicy, Network};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    fn all_r_facts(values: &[&str]) -> Instance {
        let mut out = Instance::new();
        for x in values {
            for y in values {
                out.insert(Fact::from_names("R", &[x, y]));
            }
        }
        out
    }

    /// The policy of Example 3.5: node 1 gets everything except R(a,b),
    /// node 2 everything except R(b,a).
    fn example_3_5_policy(universe: &Instance) -> ExplicitPolicy {
        let r_ab = Fact::from_names("R", &["a", "b"]);
        let r_ba = Fact::from_names("R", &["b", "a"]);
        let mut policy = ExplicitPolicy::new(Network::with_size(2));
        for fact in universe.facts() {
            let mut nodes = Vec::new();
            if *fact != r_ab {
                nodes.push(Node::numbered(0));
            }
            if *fact != r_ba {
                nodes.push(Node::numbered(1));
            }
            policy.assign(fact.clone(), nodes);
        }
        policy
    }

    #[test]
    fn example_3_5_c0_fails_but_c1_holds() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let universe = all_r_facts(&["a", "b"]);
        let policy = example_3_5_policy(&universe);

        assert!(!holds_c0(&query, &policy, &universe));
        let violation = c0_violation(&query, &policy, &universe).unwrap();
        // the violating valuation requires both R(a,b) and R(b,a)
        assert!(violation
            .required_facts
            .contains(&Fact::from_names("R", &["a", "b"])));
        assert!(violation
            .required_facts
            .contains(&Fact::from_names("R", &["b", "a"])));

        assert!(holds_c1(&query, &policy, &universe));
        assert!(c1_violation(&query, &policy, &universe).is_none());
    }

    fn assert_same_witness(got: Option<C1Violation>, want: Option<C1Violation>, context: &str) {
        match (got, want) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.valuation, b.valuation, "{context}");
                assert_eq!(a.required_facts, b.required_facts, "{context}");
            }
            (a, b) => panic!("witness mismatch for {context}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cached_c1_search_is_byte_identical_to_scratch() {
        // Same witness (valuation AND required facts), not just the same
        // verdict, as the reference search that materializes every
        // candidate — for (C0) and (C1), over every policy sending each of
        // the four facts over {a, b} to one of two nodes, the Example 3.5
        // policy, and policies that replicate, skip and spread.
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T(x) :- R(x, x)."),
            q("T() :- R(x, y), R(y, x)."),
        ];
        let universe = all_r_facts(&["a", "b"]);
        let facts: Vec<Fact> = universe.facts().cloned().collect();
        let mut policies = vec![
            example_3_5_policy(&universe),
            ExplicitPolicy::round_robin(&Network::with_size(4), &universe),
            ExplicitPolicy::broadcast(&Network::with_size(2), &universe),
            ExplicitPolicy::skip_one(&universe, &facts[1]),
        ];
        for mask in 0..(1u32 << facts.len()) {
            let mut policy = ExplicitPolicy::new(Network::with_size(2));
            for (i, fact) in facts.iter().enumerate() {
                policy.assign(fact.clone(), [Node::numbered((mask >> i & 1) as usize)]);
            }
            policies.push(policy);
        }
        for query in &queries {
            for (i, policy) in policies.iter().enumerate() {
                for minimal_only in [false, true] {
                    let got = meet_violation(query, policy, &universe, minimal_only).0;
                    let want =
                        crate::reference::meet_violation(query, policy, &universe, minimal_only);
                    assert_same_witness(got, want, &format!("{query}, policy {i}"));
                }
            }
        }
    }

    #[test]
    fn meet_table_agrees_with_facts_meet_on_the_policy_zoo() {
        // Every satisfying valuation over the universe, under policies with
        // more nodes than a word has bits, skipped facts (empty node sets),
        // default nodes, hash partitioning and universe facts the policy has
        // never heard of.
        let query = q("T(x, z) :- R(x, y), R(y, z), S(z).");
        let mut universe = all_r_facts(&["a", "b", "c", "d"]);
        for z in ["a", "b", "e"] {
            universe.insert(Fact::from_names("S", &[z]));
        }
        let facts: Vec<Fact> = universe.facts().cloned().collect();

        // 150 nodes; fact i lives on the nodes n with n ≡ i (mod 7) or
        // n ≡ 0 (mod 11): meets happen beyond bit 64 and across words.
        let mut wide = ExplicitPolicy::new(Network::with_size(150));
        for (i, fact) in facts.iter().enumerate() {
            let nodes = (0..150).filter(|n| n % 7 == i % 7 || (n % 11 == 0 && i % 2 == 0));
            wide.assign(fact.clone(), nodes.map(Node::numbered));
        }
        // The first fact alone on 71 nodes, so that every node two facts
        // share is numbered past the first word.
        let mut late = ExplicitPolicy::new(Network::with_size(150));
        late.assign(facts[0].clone(), (0..71).map(Node::numbered));
        for (i, fact) in facts.iter().enumerate().skip(1) {
            late.assign(
                fact.clone(),
                [Node::numbered(100 + i % 2), Node::numbered(149)],
            );
        }
        // Every fifth fact skipped, the rest on two of 70 nodes.
        let mut skipping = ExplicitPolicy::new(Network::with_size(70));
        for (i, fact) in facts.iter().enumerate() {
            if i % 5 != 0 {
                skipping.assign(
                    fact.clone(),
                    [Node::numbered(i % 70), Node::numbered(69 - i % 2)],
                );
            }
        }
        // Half the facts assigned, the others fall to the default nodes.
        let mut defaulting =
            ExplicitPolicy::new(Network::with_size(3)).with_default([Node::numbered(1)]);
        for fact in facts.iter().step_by(2) {
            defaulting.assign(fact.clone(), [Node::numbered(0), Node::numbered(2)]);
        }
        // The hypercube of another query: hashes R on both positions.
        let hashed =
            distribution::HypercubePolicy::uniform(&q("T(x, y) :- R(x, y), S(y)."), 3).unwrap();
        let broadcast = ExplicitPolicy::broadcast(&Network::with_size(65), &universe);
        let policies: [&dyn DistributionPolicy; 6] =
            [&wide, &late, &skipping, &defaulting, &hashed, &broadcast];

        let compiled = CompiledQuery::new(&query);
        for (i, policy) in policies.iter().enumerate() {
            let mut table = MeetTable::new(*policy, &universe);
            let (mut met, mut split) = (0, 0);
            let _ = compiled.for_each_satisfying(
                &universe,
                &Valuation::new(),
                EvalOptions::default(),
                |slots| {
                    let required = compiled.valuation(slots).required_facts(&query);
                    let expected = policy.facts_meet(&required);
                    assert_eq!(table.meets(&compiled, slots), expected, "policy {i}");
                    *(if expected { &mut met } else { &mut split }) += 1;
                    ControlFlow::Continue(())
                },
            );
            assert!(met > 0, "policy {i}: no valuation meets");
            assert!(split > 0 || i == 5, "policy {i}: every valuation meets");

            // A valuation requiring a fact outside the universe meets nowhere.
            let outside = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "zz")]);
            assert!(!table.meets(&compiled, &compiled.bind(&outside)));
        }
    }

    #[test]
    fn c1_fails_when_a_minimal_valuation_is_split() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let universe = all_r_facts(&["a", "b"]);
        // Round-robin splits R(a,b) and R(b,a) over different nodes, so the
        // minimal valuation x=a,y=b,z=a never meets.
        let policy = ExplicitPolicy::round_robin(&Network::with_size(4), &universe);
        assert!(!holds_c1(&query, &policy, &universe));
        let violation = c1_violation(&query, &policy, &universe).unwrap();
        assert!(is_minimal_valuation(&query, &violation.valuation));
    }

    #[test]
    fn c0_implies_c1() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let universe = all_r_facts(&["a", "b", "c"]);
        let broadcast = ExplicitPolicy::broadcast(&Network::with_size(3), &universe);
        assert!(holds_c0(&query, &broadcast, &universe));
        assert!(holds_c1(&query, &broadcast, &universe));
    }

    #[test]
    fn c2_holds_for_identical_queries() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        assert!(holds_c2(&query, &query));
    }

    #[test]
    fn c2_holds_when_q_prime_is_a_restriction() {
        // Q' asks for paths through a self-loop; Q asks for paths.
        // Every minimal valuation of Q' requires facts that some minimal
        // valuation of Q also requires... here Q' requires MORE facts, so
        // inclusion of Q'-requirements in Q-requirements fails in general.
        let q_paths = q("T(x, z) :- R(x, y), R(y, z).");
        let q_loop = q("T(x, z) :- R(x, y), R(y, z), R(y, y).");
        // from q_loop to q_paths: minimal valuations of q_paths require two
        // facts R(a,b), R(b,c); the q_loop valuation x=a,y=b,z=c requires
        // these plus R(b,b) — so a covering valuation exists and is minimal.
        assert!(holds_c2(&q_loop, &q_paths));
        // from q_paths to q_loop: a minimal valuation of q_loop requires
        // R(a,b),R(b,c),R(b,b); no valuation of q_paths requires a superset
        // that stays minimal? In fact V={x→a,y→b,z→c} of q_paths requires
        // only two facts and can never cover three distinct facts.
        assert!(!holds_c2(&q_paths, &q_loop));
    }

    #[test]
    fn c2_violation_returns_a_minimal_valuation_of_q_prime() {
        let q_paths = q("T(x, z) :- R(x, y), R(y, z).");
        let q_loop = q("T(x, z) :- R(x, y), R(y, z), R(y, y).");
        let violation = c2_violation(&q_paths, &q_loop).unwrap();
        assert!(is_minimal_valuation(&q_loop, &violation));
    }

    #[test]
    fn covering_valuation_search_respects_minimality() {
        // Target facts of the non-minimal Example 3.5 valuation: a covering
        // valuation of the same query exists but is not minimal; the search
        // must reject it (no OTHER minimal valuation covers all three facts).
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let target = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "a"]),
            Fact::from_names("R", &["a", "a"]),
        ]);
        let compiled = CompiledQuery::new(&query);
        let mut covers = CoverSearch::new(&compiled);
        assert!(covers.find(&target).is_none());

        // A single self-loop is covered by the minimal all-equal valuation.
        let small = Instance::from_facts([Fact::from_names("R", &["a", "a"])]);
        let witness = covers.find(&small).unwrap();
        assert!(is_minimal_valuation(&query, &witness));
        assert!(witness.required_facts(&query).contains_all(&small));
    }

    #[test]
    fn c3_holds_for_identical_queries() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let witness = c3_witness(&query, &query).unwrap();
        assert!(witness.theta.is_simplification_of(&query));
        // ρ applied to body(Q) must cover θ(body(Q))
        let image = witness.theta.apply_atoms(query.body());
        let covered = witness.rho.apply_atoms(query.body());
        for atom in image {
            assert!(covered.contains(&atom));
        }
    }

    #[test]
    fn c3_for_boolean_queries_with_different_granularity() {
        // Q  : T() :- R(x, y)            (one atom)
        // Q' : T() :- R(u, v), R(v, w)   (two atoms)
        // θ can collapse Q' to a single atom only by unifying u,v,w (giving
        // R(u,u), which is NOT in body(Q') — so θ must keep both atoms);
        // ρ maps the single atom of Q onto one of them but cannot cover both.
        let q1 = q("T() :- R(x, y).");
        let q2 = q("T() :- R(u, v), R(v, w).");
        assert!(!holds_c3(&q1, &q2));
        // The other direction: cover θ(body(Q1)) = {R(x,y)} by ρ(body(Q2)):
        // ρ = identity works since R(u,v) can be renamed onto R(x,y).
        assert!(holds_c3(&q2, &q1));
    }

    #[test]
    fn c3_uses_non_trivial_simplifications() {
        // Q' : T(x) :- R(x, y), R(x, z) simplifies to T(x) :- R(x, y);
        // Q  : T(x) :- R(x, w). Without the simplification the two-atom body
        // cannot be covered by a single-atom image? It can: both atoms map
        // consistently only if y and z both map… actually ρ(R(x,w)) is a
        // single atom and cannot equal both R(x,y) and R(x,z); the θ that
        // collapses z onto y is required.
        let q_from = q("T(x) :- R(x, w).");
        let q_to = q("T(x) :- R(x, y), R(x, z).");
        let witness = c3_witness(&q_from, &q_to).unwrap();
        assert!(!witness.theta.is_identity());
    }
}
