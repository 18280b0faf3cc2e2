//! The decision procedures as they stood before the [`MinimalityOracle`]
//! (crate::minimality): every minimality check materializes the candidate's
//! required facts as an [`Instance`] and evaluates the query over it, the
//! covering search of (C2) binds a [`Valuation`], and "the facts meet" is
//! [`DistributionPolicy::facts_meet`]. Kept, test-only, as the reference the
//! differential tests compare verdicts **and witnesses** against — same
//! enumeration orders, so the first witness found must be the same.

use std::ops::ControlFlow;

use cq::{for_each_satisfying, ConjunctiveQuery, Instance, Valuation, Value, Variable};
use distribution::DistributionPolicy;

use crate::conditions::C1Violation;

/// Definition 3.3 by evaluation: `Q` over `V(body_Q)` with the head
/// variables pre-bound finds every `V' ≤_Q V`; strictness is a size check.
pub fn is_minimal_valuation(query: &ConjunctiveQuery, valuation: &Valuation) -> bool {
    let required = valuation.required_facts(query);
    let head_binding = valuation.restrict(&query.head_variables());
    for_each_satisfying(query, &required, &head_binding, |candidate| {
        if candidate.required_facts(query).len() < required.len() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_continue()
}

/// (C0) (`minimal_only: false`) and (C1) over `universe`.
pub fn meet_violation<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
    minimal_only: bool,
) -> Option<C1Violation> {
    let mut violation = None;
    let _ = for_each_satisfying(query, universe, &Valuation::new(), |v| {
        let required = v.required_facts(query);
        if (minimal_only && !is_minimal_valuation(query, v)) || policy.facts_meet(&required) {
            return ControlFlow::Continue(());
        }
        violation = Some(C1Violation {
            valuation: v.clone(),
            required_facts: required,
        });
        ControlFlow::Break(())
    });
    violation
}

/// (C2), or (C2') with `single_facts_exempt`.
pub fn c2_violation(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    single_facts_exempt: bool,
) -> Option<Valuation> {
    cq::CanonicalValuations::new(to.variables()).find(|v_prime| {
        if !is_minimal_valuation(to, v_prime) {
            return false;
        }
        let target = v_prime.required_facts(to);
        !(single_facts_exempt && target.len() <= 1)
            && find_minimal_covering_valuation(from, &target).is_none()
    })
}

pub fn find_minimal_covering_valuation(
    query: &ConjunctiveQuery,
    target: &Instance,
) -> Option<Valuation> {
    let vars = query.variables();
    let target_facts: Vec<_> = target.facts().cloned().collect();

    // Domain: adom(target) plus |vars(query)| fresh values.
    let mut domain: Vec<Value> = target.adom().into_iter().collect();
    let fresh_base = domain.len();
    for i in 0..vars.len() {
        domain.push(Value::indexed("$fresh", i));
    }

    let mut result: Option<Valuation> = None;
    let mut partial = Valuation::new();
    cover_search(
        query,
        &target_facts,
        0,
        &mut partial,
        &vars,
        &domain,
        fresh_base,
        &mut result,
    );
    result
}

/// Backtracking over the target facts: each must be the image of a body atom.
#[allow(clippy::too_many_arguments)]
fn cover_search(
    query: &ConjunctiveQuery,
    target: &[cq::Fact],
    depth: usize,
    partial: &mut Valuation,
    vars: &[Variable],
    domain: &[Value],
    fresh_base: usize,
    result: &mut Option<Valuation>,
) {
    if result.is_some() {
        return;
    }
    if depth == target.len() {
        // All target facts covered; enumerate the remaining variables.
        extend_and_check(query, partial, vars, domain, fresh_base, result);
        return;
    }
    let goal = &target[depth];
    'atoms: for atom in query.body() {
        if atom.relation != goal.relation || atom.arity() != goal.arity() {
            continue;
        }
        let mut newly_bound = Vec::new();
        for (&var, &value) in atom.args.iter().zip(goal.values.iter()) {
            match partial.get(var) {
                Some(existing) if existing == value => {}
                Some(_) => {
                    for v in newly_bound {
                        partial.unbind(v);
                    }
                    continue 'atoms;
                }
                None => {
                    partial.bind(var, value);
                    newly_bound.push(var);
                }
            }
        }
        cover_search(
            query,
            target,
            depth + 1,
            partial,
            vars,
            domain,
            fresh_base,
            result,
        );
        for v in newly_bound {
            partial.unbind(v);
        }
        if result.is_some() {
            return;
        }
    }
}

/// Enumerates values for the unbound variables (with fresh values used in
/// canonical order to avoid isomorphic duplicates) and records the first
/// minimal candidate valuation.
#[allow(clippy::too_many_arguments)]
fn extend_and_check(
    query: &ConjunctiveQuery,
    partial: &Valuation,
    vars: &[Variable],
    domain: &[Value],
    fresh_base: usize,
    result: &mut Option<Valuation>,
) {
    let unbound: Vec<Variable> = vars
        .iter()
        .copied()
        .filter(|v| !partial.binds(*v))
        .collect();

    #[allow(clippy::too_many_arguments)] // depth-first enumerator state, recursive
    fn rec(
        query: &ConjunctiveQuery,
        unbound: &[Variable],
        idx: usize,
        max_fresh_used: usize,
        current: &mut Valuation,
        domain: &[Value],
        fresh_base: usize,
        result: &mut Option<Valuation>,
    ) {
        if result.is_some() {
            return;
        }
        if idx == unbound.len() {
            if is_minimal_valuation(query, current) {
                *result = Some(current.clone());
            }
            return;
        }
        let var = unbound[idx];
        // allowed values: all of adom plus fresh values up to max_fresh_used + 1
        let limit = (fresh_base + max_fresh_used + 1).min(domain.len());
        for (i, &value) in domain.iter().enumerate().take(limit) {
            current.bind(var, value);
            let new_max = if i >= fresh_base {
                max_fresh_used.max(i - fresh_base + 1)
            } else {
                max_fresh_used
            };
            rec(
                query,
                unbound,
                idx + 1,
                new_max,
                current,
                domain,
                fresh_base,
                result,
            );
            current.unbind(var);
            if result.is_some() {
                return;
            }
        }
    }

    let mut current = partial.clone();
    rec(
        query,
        &unbound,
        0,
        0,
        &mut current,
        domain,
        fresh_base,
        result,
    );
}
