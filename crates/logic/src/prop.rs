//! Propositional formulas in CNF and DNF.

use std::fmt;

/// A propositional literal: a variable index with a sign.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Literal {
    /// The variable index (0-based).
    pub var: usize,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Literal {
    /// The positive literal of `var`.
    pub fn pos(var: usize) -> Literal {
        Literal {
            var,
            positive: true,
        }
    }

    /// The negative literal of `var`.
    pub fn neg(var: usize) -> Literal {
        Literal {
            var,
            positive: false,
        }
    }

    /// The opposite literal.
    pub fn negated(self) -> Literal {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Evaluates the literal under a total assignment.
    pub fn eval(self, assignment: &Assignment) -> bool {
        assignment.get(self.var) == self.positive
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "¬x{}", self.var)
        }
    }
}

/// A clause: a list of literals.
///
/// In a [`Cnf`] a clause is a disjunction; in a [`Dnf`] the same type is used
/// for conjunctive terms.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Clause {
    /// The literals of the clause.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// Builds a clause from literals.
    pub fn new(literals: Vec<Literal>) -> Clause {
        Clause { literals }
    }

    /// Evaluates the clause as a disjunction.
    fn eval_or(&self, assignment: &Assignment) -> bool {
        self.literals.iter().any(|l| l.eval(assignment))
    }

    /// Evaluates the clause as a conjunction.
    fn eval_and(&self, assignment: &Assignment) -> bool {
        self.literals.iter().all(|l| l.eval(assignment))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// A total truth assignment over variables `0..len`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// The all-false assignment over `n` variables.
    pub fn all_false(n: usize) -> Assignment {
        Assignment {
            values: vec![false; n],
        }
    }

    /// Builds an assignment from a vector of truth values.
    pub fn from_values(values: Vec<bool>) -> Assignment {
        Assignment { values }
    }

    /// Builds the assignment over `n` variables whose truth values are the
    /// bits of `mask` (variable `i` is true iff bit `i` of `mask` is set).
    pub fn from_mask(n: usize, mask: u64) -> Assignment {
        Assignment {
            values: (0..n).map(|i| mask & (1 << i) != 0).collect(),
        }
    }

    /// The truth value of variable `var` (false if out of range).
    pub fn get(&self, var: usize) -> bool {
        self.values.get(var).copied().unwrap_or(false)
    }

    /// Sets the truth value of variable `var`, growing the assignment if needed.
    pub fn set(&mut self, var: usize, value: bool) {
        if var >= self.values.len() {
            self.values.resize(var + 1, false);
        }
        self.values[var] = value;
    }

    /// The number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges two assignments over disjoint variable blocks: the result has
    /// the truth value of `other` wherever `vars` lists a variable.
    pub fn overridden_by(&self, vars: &[usize], other: &Assignment) -> Assignment {
        let mut out = self.clone();
        for (&v, i) in vars.iter().zip(0..) {
            out.set(v, other.get(i));
        }
        out
    }

    /// The truth values as a slice.
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

/// A CNF formula: a conjunction of disjunctive clauses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cnf {
    /// Number of propositional variables (indices `0..num_vars`).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Builds a CNF formula.
    pub fn new(num_vars: usize, clauses: Vec<Clause>) -> Cnf {
        Cnf { num_vars, clauses }
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.eval_or(assignment))
    }

    /// Whether every clause has exactly three literals.
    pub fn is_3cnf(&self) -> bool {
        self.clauses.iter().all(|c| c.literals.len() == 3)
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A DNF formula: a disjunction of conjunctive terms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dnf {
    /// Number of propositional variables (indices `0..num_vars`).
    pub num_vars: usize,
    /// The conjunctive terms.
    pub terms: Vec<Clause>,
}

impl Dnf {
    /// Builds a DNF formula.
    pub fn new(num_vars: usize, terms: Vec<Clause>) -> Dnf {
        Dnf { num_vars, terms }
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.terms.iter().any(|t| t.eval_and(assignment))
    }

    /// Whether every term has exactly three literals.
    pub fn is_3dnf(&self) -> bool {
        self.terms.iter().all(|t| t.literals.len() == 3)
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_evaluation() {
        let a = Assignment::from_values(vec![true, false]);
        assert!(Literal::pos(0).eval(&a));
        assert!(!Literal::neg(0).eval(&a));
        assert!(!Literal::pos(1).eval(&a));
        assert!(Literal::neg(1).eval(&a));
        assert_eq!(Literal::pos(3).negated(), Literal::neg(3));
    }

    #[test]
    fn assignment_from_mask_matches_bits() {
        let a = Assignment::from_mask(4, 0b1010);
        assert_eq!(a.values(), &[false, true, false, true]);
    }

    #[test]
    fn cnf_evaluation() {
        // (x0 ∨ ¬x1) ∧ (x1 ∨ x2)
        let cnf = Cnf::new(
            3,
            vec![
                Clause::new(vec![Literal::pos(0), Literal::neg(1)]),
                Clause::new(vec![Literal::pos(1), Literal::pos(2)]),
            ],
        );
        assert!(cnf.eval(&Assignment::from_values(vec![true, true, false])));
        assert!(!cnf.eval(&Assignment::from_values(vec![false, true, false])));
        assert!(!cnf.is_3cnf());
    }

    #[test]
    fn dnf_evaluation() {
        // (x0 ∧ x1) ∨ (¬x0 ∧ x2)
        let dnf = Dnf::new(
            3,
            vec![
                Clause::new(vec![Literal::pos(0), Literal::pos(1)]),
                Clause::new(vec![Literal::neg(0), Literal::pos(2)]),
            ],
        );
        assert!(dnf.eval(&Assignment::from_values(vec![true, true, false])));
        assert!(dnf.eval(&Assignment::from_values(vec![false, false, true])));
        assert!(!dnf.eval(&Assignment::from_values(vec![true, false, false])));
    }

    #[test]
    fn overridden_by_merges_blocks() {
        // variables 0,1 are the x-block; 2,3 are the y-block
        let base = Assignment::from_values(vec![true, false, false, false]);
        let y = Assignment::from_values(vec![true, true]);
        let merged = base.overridden_by(&[2, 3], &y);
        assert_eq!(merged.values(), &[true, false, true, true]);
    }

    #[test]
    fn set_grows_the_assignment() {
        let mut a = Assignment::all_false(1);
        a.set(3, true);
        assert_eq!(a.len(), 4);
        assert!(a.get(3));
        assert!(!a.get(2));
    }
}
