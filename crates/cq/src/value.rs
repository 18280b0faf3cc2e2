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
///
/// A value may also be **opaque** ([`Value::opaque`]): an id of another
/// process's interner without its name, which is all a wire worker ever
/// holds. Joining, deduplicating and ordering read ids only, so opaque
/// values evaluate like any others; they display as `#<id>`.
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

    /// The value that stands for id `id` of another process's interner
    /// (see [`Symbol::opaque`]); `None` for an id ≥ 2³¹.
    pub fn opaque(id: u32) -> Option<Value> {
        Symbol::opaque(id).map(Value)
    }

    /// The id of the value in the id space it came from: this process's
    /// interner for a named value, the sender's for an opaque one.
    pub fn id(self) -> u32 {
        self.0.id()
    }

    /// The string representation of the value (the placeholder `#` for an
    /// opaque one, which has none; `Display` prints `#<id>`).
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }

    /// The symbol's whole id, opaque bit included ([`Symbol::raw`]): values
    /// order as these do.
    pub(crate) fn raw(self) -> u32 {
        self.0.raw()
    }

    /// The value whose [`Value::raw`] id is `raw`.
    pub(crate) fn from_raw(raw: u32) -> Value {
        Value(Symbol::from_raw(raw))
    }

    /// Whether this value was produced by [`Value::synthetic`].
    pub fn is_synthetic(self) -> bool {
        self.as_str().starts_with("$v")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({})", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
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
    fn opaque_values_display_their_id_and_order_by_it() {
        let seven = Value::opaque(7).unwrap();
        assert_eq!(seven.to_string(), "#7");
        assert_eq!(format!("{seven:?}"), "Value(#7)");
        assert_eq!(seven.id(), 7);
        assert_eq!(seven.as_str(), "#");
        assert!(!seven.is_synthetic());
        assert!(Value::opaque(6).unwrap() < seven && seven < Value::opaque(8).unwrap());
        assert!(Value::new("named") < Value::opaque(0).unwrap());
        assert_eq!(Value::opaque(1 << 31), None);
        // a named value's id is its symbol's
        let named = Value::new("named");
        assert_eq!(named.id(), named.symbol().id());
    }

    #[test]
    fn indexed_builds_prefixed_names() {
        assert_eq!(Value::indexed("node", 7).as_str(), "node7");
    }
}
