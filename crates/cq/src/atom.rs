//! Variables and atoms.

use std::fmt;

use crate::intern::Symbol;

/// A variable from the universe **var** (disjoint from **dom**).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(Symbol);

impl Variable {
    /// Interns `name` as a variable.
    pub fn new(name: &str) -> Variable {
        Variable(Symbol::new(name))
    }

    /// A numbered variable with a custom prefix, e.g. `Variable::indexed("x", 3)` is `x3`.
    pub fn indexed(prefix: &str, index: usize) -> Variable {
        Variable(Symbol::new(&format!("{prefix}{index}")))
    }

    /// The string representation of the variable.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.as_str())
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<Symbol> for Variable {
    /// The variable named by an already-interned symbol (no interner lookup).
    fn from(symbol: Symbol) -> Self {
        Variable(symbol)
    }
}

impl From<&str> for Variable {
    fn from(value: &str) -> Self {
        Variable::new(value)
    }
}

/// An atom `R(x₁, …, x_k)`: a relation name applied to a tuple of variables.
///
/// As in the paper, conjunctive queries do not use constants, so atom
/// arguments are always variables.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The relation name.
    pub relation: Symbol,
    /// The argument variables, in order.
    pub args: Vec<Variable>,
}

impl Atom {
    /// Builds an atom from a relation name and argument variables.
    pub fn new(relation: impl Into<Symbol>, args: Vec<Variable>) -> Atom {
        Atom {
            relation: relation.into(),
            args,
        }
    }

    /// Convenience constructor taking variable names as strings.
    pub fn from_names(relation: &str, args: &[&str]) -> Atom {
        Atom {
            relation: Symbol::new(relation),
            args: args.iter().map(|a| Variable::new(a)).collect(),
        }
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterates over the distinct variables of the atom, in first-occurrence order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = Vec::new();
        for &v in &self.args {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Whether `var` occurs in the atom.
    pub fn contains(&self, var: Variable) -> bool {
        self.args.contains(&var)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display_roundtrips_shape() {
        let a = Atom::from_names("R", &["x", "y", "x"]);
        assert_eq!(a.to_string(), "R(x, y, x)");
        assert_eq!(a.arity(), 3);
    }

    #[test]
    fn variables_are_deduplicated_in_order() {
        let a = Atom::from_names("R", &["x", "y", "x", "z", "y"]);
        let vars = a.variables();
        assert_eq!(
            vars,
            vec![Variable::new("x"), Variable::new("y"), Variable::new("z")]
        );
    }

    #[test]
    fn contains_checks_membership() {
        let a = Atom::from_names("R", &["x", "y"]);
        assert!(a.contains(Variable::new("x")));
        assert!(!a.contains(Variable::new("w")));
    }

    #[test]
    fn zero_arity_atoms_are_allowed() {
        let a = Atom::from_names("True", &[]);
        assert_eq!(a.arity(), 0);
        assert_eq!(a.to_string(), "True()");
    }

    #[test]
    fn atoms_are_set_comparable() {
        let a = Atom::from_names("R", &["x", "y"]);
        let b = Atom::from_names("R", &["x", "y"]);
        let c = Atom::from_names("R", &["y", "x"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
