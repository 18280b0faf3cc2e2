//! A small recursive-descent parser for conjunctive queries, facts and
//! instances.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query    := atom (":-" | "<-") atoms "."?
//! atoms    := atom ("," atom)*
//! atom     := IDENT "(" (IDENT ("," IDENT)*)? ")"
//! instance := (fact ("." | ",")?)*
//! fact     := IDENT "(" (IDENT ("," IDENT)*)? ")"
//! IDENT    := [A-Za-z0-9_][A-Za-z0-9_']*
//! ```

use std::fmt;

use crate::atom::{Atom, Variable};
use crate::fact::{Fact, Tuple};
use crate::instance::Instance;
use crate::query::ConjunctiveQuery;
use crate::value::Value;

/// A parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() {
            let c = self.input[self.pos];
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'%' || c == b'#' {
                // comment to end of line
                while self.pos < self.input.len() && self.input[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", c as char)))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() {
            let c = self.input[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected an identifier"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("identifier is not valid UTF-8"))
    }

    /// A parenthesised, comma-separated list of identifiers, each mapped by
    /// `make` and collected straight into `C` — a fact's values land in its
    /// [`crate::Tuple`] without an intermediate vector.
    fn name_list<T, C: FromIterator<T>>(
        &mut self,
        make: impl Fn(&'a str) -> T,
    ) -> Result<C, ParseError> {
        self.skip_ws();
        self.expect(b'(')?;
        let mut first = true;
        std::iter::from_fn(|| {
            self.skip_ws();
            if self.eat(b')') {
                return None;
            }
            if !std::mem::take(&mut first) {
                if let Err(error) = self.expect(b',') {
                    return Some(Err(error));
                }
            }
            Some(self.ident().map(&make))
        })
        .collect()
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let rel = self.ident()?;
        Ok(Atom::new(rel, self.name_list(Variable::new)?))
    }

    fn fact(&mut self) -> Result<Fact, ParseError> {
        let rel = self.ident()?;
        Ok(Fact::new(rel, self.name_list::<_, Tuple>(Value::new)?))
    }

    fn query(&mut self) -> Result<ConjunctiveQuery, ParseError> {
        self.skip_ws();
        let head = self.atom()?;
        self.skip_ws();
        // accept ":-" or "<-"
        let ok = (self.eat(b':') || self.eat(b'<')) && self.eat(b'-');
        if !ok {
            return Err(self.error("expected ':-' or '<-' after the head atom"));
        }
        let mut body = Vec::new();
        loop {
            self.skip_ws();
            body.push(self.atom()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            break;
        }
        self.skip_ws();
        self.eat(b'.');
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("unexpected trailing input after the query"));
        }
        ConjunctiveQuery::new(head, body).map_err(|e| ParseError {
            position: 0,
            message: e.to_string(),
        })
    }

    fn instance(&mut self) -> Result<Instance, ParseError> {
        let mut facts = Vec::new();
        loop {
            self.skip_ws();
            if self.pos == self.input.len() {
                return Ok(Instance::from_facts(facts));
            }
            facts.push(self.fact()?);
            self.skip_ws();
            // optional separators
            while self.eat(b'.') || self.eat(b',') {
                self.skip_ws();
            }
        }
    }
}

/// Parses a conjunctive query, e.g. `"T(x, z) :- R(x, y), R(y, z)."`.
pub fn parse_query(text: &str) -> Result<ConjunctiveQuery, ParseError> {
    Parser::new(text).query()
}

/// Parses a single fact, e.g. `"R(a, b)"`.
pub fn parse_fact(text: &str) -> Result<Fact, ParseError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let f = p.fact()?;
    p.skip_ws();
    p.eat(b'.');
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("unexpected trailing input after the fact"));
    }
    Ok(f)
}

/// Parses an instance: a whitespace/period/comma separated list of facts,
/// e.g. `"R(a, b). R(b, c). S(a)."`. `%` and `#` start line comments.
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    Parser::new(text).instance()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Symbol;

    #[test]
    fn parses_simple_query() {
        let q = parse_query("T(x, z) :- R(x, y), R(y, z).").unwrap();
        assert_eq!(q.head().relation, Symbol::new("T"));
        assert_eq!(q.body_size(), 2);
    }

    #[test]
    fn parses_arrow_syntax_and_no_trailing_dot() {
        let q = parse_query("Answer(x) <- Edge(x, y)").unwrap();
        assert_eq!(q.head().relation, Symbol::new("Answer"));
    }

    #[test]
    fn parses_boolean_head() {
        let q = parse_query("T() :- R(x, y).").unwrap();
        assert!(q.is_boolean());
    }

    #[test]
    fn rejects_missing_body() {
        assert!(parse_query("T(x)").is_err());
        assert!(parse_query("T(x) :-").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse_query("T(x) :- R(x, y). extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_unsafe_queries_with_query_error_message() {
        let err = parse_query("T(x, w) :- R(x, y).").unwrap_err();
        assert!(err.message.contains("does not occur in the body"));
    }

    #[test]
    fn parses_fact_and_instance() {
        let f = parse_fact("R(a, b)").unwrap();
        assert_eq!(f, Fact::from_names("R", &["a", "b"]));

        let i = parse_instance("R(a, b). R(b, c), S(a)\n # comment\n T()").unwrap();
        assert_eq!(i.len(), 4);
        assert!(i.contains(&Fact::from_names("T", &[])));
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let i = parse_instance("% facts for node 1\nR(a, b).\n% more\nR(b, a).").unwrap();
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_instance("R(a, ").unwrap_err();
        assert!(err.position >= 4);
    }

    #[test]
    fn numeric_and_primed_identifiers() {
        let q = parse_query("T(x1) :- R(x1, x1'), S(42, x1).").unwrap();
        assert_eq!(q.variables().len(), 3);
    }
}
