//! Quantified Boolean formulas with Π₂ and Π₃ prefixes.

use crate::prop::{Assignment, Cnf, Dnf};
use crate::sat::dpll_satisfiable;

/// A Π₂-QBF formula `∀x ∃y ψ(x, y)` with `ψ` in CNF.
///
/// Variable blocks are given as lists of variable indices into the matrix;
/// the blocks must be disjoint and cover all matrix variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pi2Qbf {
    /// The universally quantified block `x`.
    pub x_vars: Vec<usize>,
    /// The existentially quantified block `y`.
    pub y_vars: Vec<usize>,
    /// The quantifier-free matrix `ψ`.
    pub matrix: Cnf,
}

impl Pi2Qbf {
    /// Builds a Π₂-QBF formula; panics if the blocks overlap or do not cover
    /// the matrix variables.
    pub fn new(x_vars: Vec<usize>, y_vars: Vec<usize>, matrix: Cnf) -> Pi2Qbf {
        validate_blocks(&[&x_vars, &y_vars], matrix.num_vars);
        Pi2Qbf {
            x_vars,
            y_vars,
            matrix,
        }
    }

    /// Decides the formula: for every assignment to `x` there is an
    /// assignment to `y` making the matrix true.
    ///
    /// The universal block is enumerated exhaustively; the existential step
    /// is solved with DPLL on the conditioned matrix.
    pub fn is_true(&self) -> bool {
        assert!(
            self.x_vars.len() <= 20,
            "universal block limited to 20 variables"
        );
        let base = Assignment::all_false(self.matrix.num_vars);
        for mask in 0u64..(1 << self.x_vars.len()) {
            let beta_x = Assignment::from_mask(self.x_vars.len(), mask);
            let partial = base.overridden_by(&self.x_vars, &beta_x);
            if !self.exists_y(&partial) {
                return false;
            }
        }
        true
    }

    /// Whether there is a `y`-assignment satisfying the matrix given the
    /// (total) assignment `partial` for the other variables.
    fn exists_y(&self, partial: &Assignment) -> bool {
        // Condition the CNF on the x-assignment by substituting truth values:
        // clauses with a true x-literal are dropped, false x-literals removed.
        let y_set: std::collections::BTreeSet<usize> = self.y_vars.iter().copied().collect();
        let mut clauses = Vec::new();
        for clause in &self.matrix.clauses {
            let mut reduced = Vec::new();
            let mut satisfied = false;
            for &lit in &clause.literals {
                if y_set.contains(&lit.var) {
                    reduced.push(lit);
                } else if lit.eval(partial) {
                    satisfied = true;
                    break;
                }
            }
            if !satisfied {
                clauses.push(crate::prop::Clause::new(reduced));
            }
        }
        let conditioned = Cnf::new(self.matrix.num_vars, clauses);
        dpll_satisfiable(&conditioned)
    }

    /// Brute-force reference decision (both blocks enumerated exhaustively).
    #[cfg(test)]
    fn is_true_naive(&self) -> bool {
        let base = Assignment::all_false(self.matrix.num_vars);
        (0u64..(1 << self.x_vars.len())).all(|xm| {
            let bx = Assignment::from_mask(self.x_vars.len(), xm);
            let with_x = base.overridden_by(&self.x_vars, &bx);
            (0u64..(1 << self.y_vars.len())).any(|ym| {
                let by = Assignment::from_mask(self.y_vars.len(), ym);
                let full = with_x.overridden_by(&self.y_vars, &by);
                self.matrix.eval(&full)
            })
        })
    }
}

/// A Π₃-QBF formula `∀x ∃y ∀z ψ(x, y, z)` with `ψ` in DNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pi3Qbf {
    /// The outer universally quantified block `x`.
    pub x_vars: Vec<usize>,
    /// The existentially quantified block `y`.
    pub y_vars: Vec<usize>,
    /// The inner universally quantified block `z`.
    pub z_vars: Vec<usize>,
    /// The quantifier-free matrix `ψ`.
    pub matrix: Dnf,
}

impl Pi3Qbf {
    /// Builds a Π₃-QBF formula; panics if the blocks overlap or do not cover
    /// the matrix variables.
    pub fn new(x_vars: Vec<usize>, y_vars: Vec<usize>, z_vars: Vec<usize>, matrix: Dnf) -> Pi3Qbf {
        validate_blocks(&[&x_vars, &y_vars, &z_vars], matrix.num_vars);
        Pi3Qbf {
            x_vars,
            y_vars,
            z_vars,
            matrix,
        }
    }

    /// Decides the formula: for every `x` there is a `y` such that for every
    /// `z` the matrix is true. All blocks are enumerated exhaustively.
    pub fn is_true(&self) -> bool {
        let total = self.x_vars.len() + self.y_vars.len() + self.z_vars.len();
        assert!(total <= 30, "QBF solver limited to 30 variables in total");
        let base = Assignment::all_false(self.matrix.num_vars);
        (0u64..(1 << self.x_vars.len())).all(|xm| {
            let bx = Assignment::from_mask(self.x_vars.len(), xm);
            let with_x = base.overridden_by(&self.x_vars, &bx);
            (0u64..(1 << self.y_vars.len())).any(|ym| {
                let by = Assignment::from_mask(self.y_vars.len(), ym);
                let with_y = with_x.overridden_by(&self.y_vars, &by);
                (0u64..(1 << self.z_vars.len())).all(|zm| {
                    let bz = Assignment::from_mask(self.z_vars.len(), zm);
                    let full = with_y.overridden_by(&self.z_vars, &bz);
                    self.matrix.eval(&full)
                })
            })
        })
    }
}

fn validate_blocks(blocks: &[&Vec<usize>], num_vars: usize) {
    let mut seen = vec![false; num_vars];
    for block in blocks {
        for &v in *block {
            assert!(v < num_vars, "block variable {v} out of range");
            assert!(!seen[v], "variable {v} occurs in two quantifier blocks");
            seen[v] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "quantifier blocks do not cover all matrix variables"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{Clause, Literal};

    #[test]
    fn pi2_tautology_is_true() {
        // ∀x0 ∃y(=x1): (x0 ∨ x1) ∧ (¬x0 ∨ ¬x1) — pick y = ¬x.
        let matrix = Cnf::new(
            2,
            vec![
                Clause::new(vec![Literal::pos(0), Literal::pos(1)]),
                Clause::new(vec![Literal::neg(0), Literal::neg(1)]),
            ],
        );
        let qbf = Pi2Qbf::new(vec![0], vec![1], matrix);
        assert!(qbf.is_true());
        assert!(qbf.is_true_naive());
    }

    #[test]
    fn pi2_false_formula() {
        // ∀x0 ∃x1: x0  — false for x0 = false, no y can help.
        let matrix = Cnf::new(2, vec![Clause::new(vec![Literal::pos(0)])]);
        let qbf = Pi2Qbf::new(vec![0], vec![1], matrix);
        assert!(!qbf.is_true());
        assert!(!qbf.is_true_naive());
    }

    #[test]
    fn pi2_dpll_and_naive_agree_on_pseudorandom_formulas() {
        let mut seed: u64 = 0xDEADBEEFCAFE1234;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let nx = 2 + (next() % 2) as usize;
            let ny = 2 + (next() % 2) as usize;
            let n = nx + ny;
            let clauses: Vec<Clause> = (0..(3 + next() % 6))
                .map(|_| {
                    Clause::new(
                        (0..3)
                            .map(|_| Literal {
                                var: (next() % n as u64) as usize,
                                positive: next() % 2 == 0,
                            })
                            .collect(),
                    )
                })
                .collect();
            let matrix = Cnf::new(n, clauses);
            let qbf = Pi2Qbf::new((0..nx).collect(), (nx..n).collect(), matrix);
            assert_eq!(qbf.is_true(), qbf.is_true_naive());
        }
    }

    #[test]
    fn pi3_simple_true_formula() {
        // ∀x0 ∃y(x1) ∀z(x2): (x0 ∧ x1 ∧ x2) ∨ (x1 ∧ x2 ∧ x0) ... make it
        // independent of z: (x1 ∧ x1 ∧ x1) ∨ (¬x1 ∧ ¬x1 ∧ ¬x1) is always
        // satisfiable by choosing y freely — but must hold for all z, and z
        // doesn't occur, so the formula is true.
        let matrix = Dnf::new(
            3,
            vec![
                Clause::new(vec![Literal::pos(1), Literal::pos(1), Literal::pos(1)]),
                Clause::new(vec![Literal::neg(1), Literal::neg(1), Literal::neg(1)]),
            ],
        );
        let qbf = Pi3Qbf::new(vec![0], vec![1], vec![2], matrix);
        assert!(qbf.is_true());
    }

    #[test]
    fn pi3_false_because_of_inner_universal() {
        // ∀x0 ∃x1 ∀x2: (x2 ∧ x2 ∧ x2) — false whenever z = false.
        let matrix = Dnf::new(
            3,
            vec![Clause::new(vec![
                Literal::pos(2),
                Literal::pos(2),
                Literal::pos(2),
            ])],
        );
        let qbf = Pi3Qbf::new(vec![0], vec![1], vec![2], matrix);
        assert!(!qbf.is_true());
    }

    #[test]
    fn pi3_example_from_the_paper_appendix() {
        // Example C.7: ∀x1 ∃y1 ∃y2 ∀z1 ((x1 ∧ y1 ∧ z1) ∨ (¬x1 ∧ y2 ∧ z1)).
        // The paper notes this formula is FALSE (no assignment works for z1=0).
        // Variables: x1=0, y1=1, y2=2, z1=3.
        let matrix = Dnf::new(
            4,
            vec![
                Clause::new(vec![Literal::pos(0), Literal::pos(1), Literal::pos(3)]),
                Clause::new(vec![Literal::neg(0), Literal::pos(2), Literal::pos(3)]),
            ],
        );
        let qbf = Pi3Qbf::new(vec![0], vec![1, 2], vec![3], matrix);
        assert!(!qbf.is_true());
    }

    #[test]
    #[should_panic(expected = "two quantifier blocks")]
    fn overlapping_blocks_are_rejected() {
        let matrix = Cnf::new(2, vec![]);
        let _ = Pi2Qbf::new(vec![0, 1], vec![1], matrix);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn uncovered_variables_are_rejected() {
        let matrix = Cnf::new(3, vec![]);
        let _ = Pi2Qbf::new(vec![0], vec![1], matrix);
    }
}
