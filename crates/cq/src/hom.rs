//! Homomorphisms between conjunctive queries, containment, equivalence, and
//! the "cover" search behind condition (C3) and its witness.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::substitution::Substitution;

/// Enumerates substitutions `h` extending `seed` such that every atom of
/// `from_atoms` is mapped by `h` into the set `to_atoms`
/// (`h(from_atoms) ⊆ to_atoms`).
///
/// The callback can stop the enumeration by returning
/// [`ControlFlow::Break`]; the function returns `Break` in that case.
pub fn for_each_atom_mapping<F>(
    from_atoms: &[Atom],
    to_atoms: &[Atom],
    seed: &Substitution,
    callback: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Substitution) -> ControlFlow<()>,
{
    fn rec<F>(
        from_atoms: &[Atom],
        to_atoms: &[Atom],
        depth: usize,
        current: &mut Substitution,
        callback: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Substitution) -> ControlFlow<()>,
    {
        if depth == from_atoms.len() {
            return callback(current);
        }
        let atom = &from_atoms[depth];
        'targets: for target in to_atoms {
            if target.relation != atom.relation || target.arity() != atom.arity() {
                continue;
            }
            // Try to unify atom -> target under the current substitution.
            let mut newly_bound = Vec::new();
            for (&var, &to) in atom.args.iter().zip(target.args.iter()) {
                match current.get(var) {
                    Some(existing) if existing == to => {}
                    Some(_) => {
                        for v in newly_bound {
                            current.unbind(v);
                        }
                        continue 'targets;
                    }
                    None => {
                        current.bind(var, to);
                        newly_bound.push(var);
                    }
                }
            }
            let flow = rec(from_atoms, to_atoms, depth + 1, current, callback);
            for v in newly_bound {
                current.unbind(v);
            }
            flow?;
        }
        ControlFlow::Continue(())
    }

    let mut current = seed.clone();
    rec(from_atoms, to_atoms, 0, &mut current, callback)
}

/// Finds a homomorphism from `from` to `to`: a substitution `h` with
/// `h(head_from) = head_to` and `h(body_from) ⊆ body_to`.
///
/// By the homomorphism theorem, such a homomorphism exists if and only if
/// `to ⊆ from` (the result of `to` is contained in the result of `from` on
/// every instance).
pub fn find_homomorphism(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Substitution> {
    let from_head = from.head();
    let to_head = to.head();
    if from_head.relation != to_head.relation || from_head.arity() != to_head.arity() {
        return None;
    }
    // Seed the substitution with the head mapping; it must be consistent.
    let mut seed = Substitution::identity();
    for (&var, &to_var) in from_head.args.iter().zip(to_head.args.iter()) {
        match seed.get(var) {
            Some(existing) if existing != to_var => return None,
            _ => seed.bind(var, to_var),
        }
    }
    let mut found = None;
    let _ = for_each_atom_mapping(from.body(), to.body(), &seed, &mut |h| {
        found = Some(h.clone());
        ControlFlow::Break(())
    });
    found
}

/// Query containment `q1 ⊆ q2`: on every instance, `q1(I) ⊆ q2(I)`.
///
/// Both queries must have the same output relation; containment holds if and
/// only if there is a homomorphism from `q2` to `q1`.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    find_homomorphism(q2, q1).is_some()
}

/// Query equivalence: containment in both directions.
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
}

/// The "cover" problem of condition (C3): a substitution `ρ` on the
/// variables of the `source` atoms with `target ⊆ ρ(source)`, i.e. every
/// target atom is the ρ-image of some source atom. The search backtracks
/// over the target atoms: each must be matched by a source atom whose
/// ρ-image equals it.
fn cover(source: &[Atom], target: &[Atom]) -> Option<Substitution> {
    fn rec(source: &[Atom], target: &[Atom], rho: &mut Substitution) -> bool {
        let Some((goal, rest)) = target.split_first() else {
            return true;
        };
        'sources: for cand in source {
            if cand.relation != goal.relation || cand.arity() != goal.arity() {
                continue;
            }
            // Unify ρ(cand) = goal: each variable of cand must map to the
            // corresponding variable of goal, consistently with ρ so far.
            let mut newly_bound = Vec::new();
            for (&src_var, &dst_var) in cand.args.iter().zip(goal.args.iter()) {
                match rho.get(src_var) {
                    Some(existing) if existing == dst_var => {}
                    Some(_) => {
                        for v in newly_bound {
                            rho.unbind(v);
                        }
                        continue 'sources;
                    }
                    None => {
                        rho.bind(src_var, dst_var);
                        newly_bound.push(src_var);
                    }
                }
            }
            if rec(source, rest, rho) {
                return true;
            }
            for v in newly_bound {
                rho.unbind(v);
            }
        }
        false
    }

    let mut rho = Substitution::identity();
    rec(source, target, &mut rho).then_some(rho)
}

/// Finds a substitution `ρ` on the variables of `query` such that
/// `target ⊆ ρ(body_query)`: the cover search behind condition (C3).
pub fn find_cover(query: &ConjunctiveQuery, target: &[Atom]) -> Option<Substitution> {
    cover(query.body(), target)
}

/// A witness for condition (C3) of the paper: the simplification `θ` of
/// `Q'` and the substitution `ρ` of `Q` with `body_{θ(Q')} ⊆ body_{ρ(Q)}`.
#[derive(Clone, Debug)]
pub struct C3Witness {
    /// The simplification `θ` of `Q'`.
    pub theta: Substitution,
    /// The substitution `ρ` of `Q`.
    pub rho: Substitution,
}

/// Searches for a witness of condition (C3): enumerate simplifications `θ`
/// of `to` (endomorphisms fixing the head with body image inside the body)
/// and, for each, try to cover `body_{θ(to)}` by a substitution image of
/// `body_{from}` ([`find_cover`]).
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
        if let Some(rho) = cover(from.body(), &image) {
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

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn homomorphism_between_path_queries() {
        // Shorter paths contain longer ones: the 3-path maps onto the 2-path
        // only if variables can collapse; here the classic example.
        let two = q("T(x, z) :- R(x, y), R(y, z).");
        let loopy = q("T(x, x) :- R(x, x).");
        // hom from `two` to `loopy`: x,y,z all map to x.
        let h = find_homomorphism(&two, &loopy).expect("hom should exist");
        assert!(h
            .apply_atoms(two.body())
            .iter()
            .all(|a| loopy.body().contains(a)));
        // but not the other way around: loopy's head T(x,x) cannot match T(x,z)
        // unless x=z is forced, which find_homomorphism rejects only if the
        // head mapping is inconsistent — here it maps both to distinct vars.
        assert!(find_homomorphism(&loopy, &two).is_none());
    }

    #[test]
    fn containment_of_specialization() {
        // q_specific asks for a path through a self-loop; q_general asks for any path.
        let q_general = q("T(x, z) :- R(x, y), R(y, z).");
        let q_specific = q("T(x, z) :- R(x, y), R(y, z), R(y, y).");
        assert!(contained_in(&q_specific, &q_general));
        assert!(!contained_in(&q_general, &q_specific));
        assert!(!equivalent(&q_general, &q_specific));
    }

    #[test]
    fn equivalence_of_redundant_query_and_its_core() {
        let redundant = q("T(x) :- R(x, y), R(x, z).");
        let core = q("T(x) :- R(x, y).");
        assert!(equivalent(&redundant, &core));
    }

    #[test]
    fn containment_requires_same_output_relation() {
        let a = q("T(x) :- R(x, y).");
        let b = q("U(x) :- R(x, y).");
        assert!(!contained_in(&a, &b));
        assert!(!contained_in(&b, &a));
    }

    #[test]
    fn head_arity_mismatch_is_rejected() {
        let a = q("T(x) :- R(x, y).");
        let b = q("T(x, y) :- R(x, y).");
        assert!(find_homomorphism(&a, &b).is_none());
    }

    #[test]
    fn cover_finds_rho_for_subset_bodies() {
        // Q: T() :- E(c, d), E(d, c)    target: E(x, y), E(y, x) — rename c↦x, d↦y.
        let query = q("T() :- E(c, d), E(d, c).");
        let target = vec![
            Atom::from_names("E", &["x", "y"]),
            Atom::from_names("E", &["y", "x"]),
        ];
        let rho = find_cover(&query, &target).expect("cover must exist");
        let image = rho.apply_atoms(query.body());
        for t in &target {
            assert!(image.contains(t));
        }
    }

    #[test]
    fn cover_fails_when_relation_is_missing() {
        let query = q("T() :- E(c, d).");
        let target = vec![Atom::from_names("F", &["x", "y"])];
        assert!(find_cover(&query, &target).is_none());
    }

    #[test]
    fn cover_respects_repeated_variables() {
        // Source atom E(c, c) can only cover target atoms with equal arguments.
        let query = q("T() :- E(c, c).");
        let ok = vec![Atom::from_names("E", &["x", "x"])];
        let bad = vec![Atom::from_names("E", &["x", "y"])];
        assert!(find_cover(&query, &ok).is_some());
        assert!(find_cover(&query, &bad).is_none());
    }

    #[test]
    fn cover_allows_unused_source_atoms() {
        let query = q("T() :- E(c, d), F(d).");
        let target = vec![Atom::from_names("E", &["x", "y"])];
        // F(d) does not need to cover anything.
        assert!(find_cover(&query, &target).is_some());
    }

    #[test]
    fn cover_needs_a_single_consistent_rho() {
        // One source atom cannot cover two incompatible targets.
        let query = q("T() :- E(c, d).");
        let target = vec![
            Atom::from_names("E", &["x", "y"]),
            Atom::from_names("E", &["x", "z"]),
        ];
        assert!(find_cover(&query, &target).is_none());

        // With two source atoms it works.
        let query2 = q("T() :- E(c, d), E(e, f).");
        assert!(find_cover(&query2, &target).is_some());
    }

    #[test]
    fn atom_mapping_enumeration_can_be_exhaustive() {
        let from = vec![Atom::from_names("R", &["a", "b"])];
        let to = vec![
            Atom::from_names("R", &["x", "y"]),
            Atom::from_names("R", &["y", "z"]),
        ];
        let mut count = 0;
        let _ = for_each_atom_mapping(&from, &to, &Substitution::identity(), &mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2);
    }
}
