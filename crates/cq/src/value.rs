//! Data values from the infinite domain **dom**.

use std::fmt;

use crate::intern::Symbol;

/// A data value from the domain **dom** of the paper.
///
/// The paper assumes an infinite domain of values representable as strings.
/// Values are interned [`Symbol`]s, so they are `Copy` and cheap to hash and
/// compare. Synthetic values (used when the decision procedures need "fresh"
/// values that cannot clash with user data) are created with
/// [`Value::synthetic`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(Symbol);

impl Value {
    /// Filler for storage that is never read — the unused inline slots of a
    /// [`crate::Tuple`]. It names nothing and must never be observable.
    pub(crate) const PAD: Value = Value(Symbol::PAD);

    /// Interns `name` as a data value.
    pub fn new(name: &str) -> Value {
        Value(Symbol::new(name))
    }

    /// A synthetic value distinct from any value created through
    /// [`Value::new`] with a typical identifier (the name contains `'$'`,
    /// which the parser rejects in user input).
    pub fn synthetic(index: usize) -> Value {
        Value(Symbol::new(&format!("$v{index}")))
    }

    /// A numbered value with a custom prefix, e.g. `Value::indexed("n", 3)`
    /// is the value `n3`.
    pub fn indexed(prefix: &str, index: usize) -> Value {
        Value(Symbol::new(&format!("{prefix}{index}")))
    }

    /// The string representation of the value.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }

    /// Whether this value was produced by [`Value::synthetic`].
    pub fn is_synthetic(self) -> bool {
        self.as_str().starts_with("$v")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({})", self.as_str())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<Symbol> for Value {
    /// The value named by an already-interned symbol (no interner lookup).
    fn from(symbol: Symbol) -> Self {
        Value(symbol)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::new(value)
    }
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::new(&value.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_content() {
        assert_eq!(Value::new("a"), Value::from("a"));
        assert_ne!(Value::new("a"), Value::new("b"));
    }

    #[test]
    fn synthetic_values_do_not_clash_with_user_values() {
        let user = Value::new("v0");
        let synth = Value::synthetic(0);
        assert_ne!(user, synth);
        assert!(synth.is_synthetic());
        assert!(!user.is_synthetic());
    }

    #[test]
    fn numeric_values_display_as_digits() {
        let v: Value = 42u64.into();
        assert_eq!(v.to_string(), "42");
    }

    #[test]
    fn indexed_builds_prefixed_names() {
        assert_eq!(Value::indexed("node", 7).as_str(), "node7");
    }
}
