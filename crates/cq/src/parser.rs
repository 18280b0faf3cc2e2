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
//! IDENT    := [A-Za-z0-9_']+
//! ```
//!
//! An instance is read without building a [`Fact`] per fact. Batches of
//! [`BATCH`] facts are lexed into their names, and each batch is interned
//! under one lock ([`Symbol::intern_all`]), in the order the names complete:
//! a fact's values, then its relation name. A fact of arity ≤ 4 then becomes
//! one packed integer key (a `u64` up to arity 2, a `u128` up to 4) in its
//! `(relation, arity)` run; each run is sorted as integers and unpacked
//! into ascending rows, which [`Instance::from_relations`] moves in.

use std::fmt;

use crate::atom::{Atom, Variable};
use crate::fact::{Fact, Tuple};
use crate::instance::{Instance, Runs};
use crate::intern::Symbol;
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

/// Facts per interning batch: enough to amortise the interner's lock,
/// few enough that the batch's names stay a few pages.
const BATCH: usize = 4096;

struct Parser<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            input: text.as_bytes(),
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
        // identifier bytes are ASCII, so both ends are char boundaries
        Ok(&self.text[start..self.pos])
    }

    /// A parenthesised, comma-separated list of identifiers, each mapped by
    /// `make` and collected straight into `C` — a fact's values land in its
    /// [`crate::Tuple`] without an intermediate vector.
    fn name_list<T, C: FromIterator<T>>(
        &mut self,
        mut make: impl FnMut(&'a str) -> T,
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
            Some(self.ident().map(&mut make))
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

    /// Lexes one fact into `batch`: its value names, then its relation
    /// name where that differs from the previous fact's.
    fn lex_fact(&mut self, batch: &mut Batch<'a>) -> Result<(), ParseError> {
        let relation = self.ident()?;
        let before = batch.names.len();
        self.name_list::<_, ()>(|name| batch.names.push(name))?;
        let arity = batch.names.len() - before;
        let named = relation != batch.relation;
        if named {
            batch.names.push(relation);
            batch.relation = relation;
        }
        batch.facts.push((arity, named));
        Ok(())
    }

    fn instance(&mut self) -> Result<Instance, ParseError> {
        let (mut batch, mut relation) = (Batch::default(), None);
        let mut runs = Runs::default();
        loop {
            self.skip_ws();
            if self.pos == self.input.len() {
                batch.file(&mut relation, &mut runs);
                return Ok(runs.finish());
            }
            self.lex_fact(&mut batch)?;
            self.skip_ws();
            // optional separators
            while self.eat(b'.') || self.eat(b',') {
                self.skip_ws();
            }
            if batch.facts.len() == BATCH {
                batch.file(&mut relation, &mut runs);
            }
        }
    }
}

/// The lexed, not yet interned facts of one batch.
#[derive(Default)]
struct Batch<'a> {
    /// Every fact's value names, each followed by the fact's relation name
    /// when that is recorded — the order the names are interned in.
    names: Vec<&'a str>,
    /// Per fact: its arity, and whether its relation name was recorded.
    facts: Vec<(usize, bool)>,
    /// The relation name of the last fact lexed, in this batch or before.
    relation: &'a str,
}

impl Batch<'_> {
    /// Interns the batch's names under one lock, files each of its facts in
    /// its run, and empties it. `relation` is the relation of the last fact
    /// filed, which a fact that records no relation name has.
    fn file(&mut self, relation: &mut Option<Symbol>, runs: &mut Runs) {
        let symbols = Symbol::intern_all(self.names.drain(..));
        let mut at = 0;
        let facts = self.facts.drain(..).map(|(arity, named)| {
            let values = symbols[at..at + arity]
                .iter()
                .map(|&symbol| Value::from(symbol));
            at += arity;
            if named {
                *relation = Some(symbols[at]);
                at += 1;
            }
            (relation.expect("the first fact names its relation"), values)
        });
        runs.extend(facts);
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

/// Pins of [`parse_instance`]'s observable behaviour: the instance it
/// builds, the order in which it interns fresh names, and the exact
/// position and message of every error.
#[cfg(test)]
mod pins {
    use super::*;
    use crate::intern::Symbol;

    /// More facts than two parse batches, so that a relation's run spans
    /// batches.
    const BEYOND_A_BATCH: usize = 2 * BATCH + 1808;

    /// splitmix64: a seeded stream for the random texts.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Relation names with their arities: nullary, every packed width,
    /// one past it (5, still an inline tuple), one past the inline tuple
    /// (6), and one relation with two arities.
    const SHAPES: [(&str, usize); 10] = [
        ("Pin0", 0),
        ("Pin1", 1),
        ("Pin2", 2),
        ("Pin3", 3),
        ("Pin4", 4),
        ("Pin5", 5),
        ("Pin6", 6),
        ("PinMixed", 1),
        ("PinMixed", 2),
        ("Pin2", 2),
    ];

    const NAMES: [&str; 12] = [
        "a", "b", "c", "d_1", "e'", "42", "_f", "g''", "H", "x0", "'q", "zz",
    ];

    /// A random text of `facts` facts over [`SHAPES`] and [`NAMES`] with
    /// repeats, random separators, whitespace and comments, and the facts
    /// it states.
    fn random_text(seed: u64, facts: usize) -> (String, Vec<Fact>) {
        let mut stream = Stream(seed);
        let mut text = String::new();
        let mut stated = Vec::new();
        for _ in 0..facts {
            let (relation, arity) = if stream.below(4) == 0 && !stated.is_empty() {
                // a duplicate of an earlier fact
                let earlier: &Fact = &stated[stream.below(stated.len())];
                let values: Vec<&str> = earlier.values.iter().map(|v| v.as_str()).collect();
                write_fact(&mut stream, &mut text, earlier.relation.as_str(), &values);
                stated.push(earlier.clone());
                continue;
            } else {
                SHAPES[stream.below(SHAPES.len())]
            };
            let values: Vec<&str> = (0..arity).map(|_| stream.pick(&NAMES)).collect();
            write_fact(&mut stream, &mut text, relation, &values);
            stated.push(Fact::from_names(relation, &values));
        }
        (text, stated)
    }

    fn write_fact(stream: &mut Stream, text: &mut String, relation: &str, values: &[&str]) {
        const SPACE: [&str; 5] = ["", " ", "\n", "\t ", "  "];
        text.push_str(relation);
        text.push_str(stream.pick(&SPACE));
        text.push('(');
        for (at, value) in values.iter().enumerate() {
            if at > 0 {
                text.push_str(stream.pick(&SPACE));
                text.push(',');
            }
            text.push_str(stream.pick(&SPACE));
            text.push_str(value);
        }
        text.push_str(stream.pick(&SPACE));
        text.push(')');
        text.push_str(stream.pick(&SPACE));
        text.push_str(stream.pick(&["", ".", ",", ". ", ".\n", ",\n", "..", ".,"]));
        match stream.below(8) {
            0 => text.push_str(" % a comment, R(not, a, fact).\n"),
            1 => text.push_str("# another ) comment\n"),
            _ => text.push_str(stream.pick(&SPACE)),
        }
    }

    #[test]
    fn random_texts_parse_to_the_bulk_build_of_their_facts() {
        for seed in 0..64 {
            let facts = if seed % 16 == 0 {
                BEYOND_A_BATCH
            } else {
                1 + seed as usize * 7
            };
            let (text, stated) = random_text(seed, facts);
            let parsed = parse_instance(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                parsed,
                Instance::from_facts(stated),
                "seed {seed}: {text:?}"
            );
        }
    }

    #[test]
    fn a_relation_with_two_arities_keeps_both() {
        let parsed =
            parse_instance("PinTwo(a, b). PinTwo(a). PinTwo(). PinTwo(a, b) PinTwo(a)").unwrap();
        let expected = Instance::from_facts([
            Fact::from_names("PinTwo", &[]),
            Fact::from_names("PinTwo", &["a"]),
            Fact::from_names("PinTwo", &["a", "b"]),
        ]);
        assert_eq!(parsed, expected);
        assert_eq!(
            parsed.facts_of(Symbol::new("PinTwo")),
            expected.facts_of(Symbol::new("PinTwo"))
        );
    }

    /// Every name of `text`, each once, in the order the parser interns
    /// them: a fact's values left to right, then its relation name.
    fn interning_order(text: &str) -> Vec<&str> {
        let mut order: Vec<&str> = Vec::new();
        for fact in text.split_terminator('.') {
            let (relation, values) = fact.trim().split_once('(').unwrap();
            let values = values.trim_end_matches(')').split(',').map(str::trim);
            for name in values.chain([relation]) {
                if !name.is_empty() && !order.contains(&name) {
                    order.push(name);
                }
            }
        }
        order
    }

    #[test]
    fn fresh_names_get_ascending_ids_in_first_seen_order() {
        let text = "PinIdR(pin_id_a, pin_id_b). PinIdS(pin_id_b, pin_id_c). PinIdR(pin_id_d). \
                    PinIdT(). PinIdS(pin_id_e, pin_id_a).";
        parse_instance(text).unwrap();
        let order = interning_order(text);
        assert_eq!(order[..4], ["pin_id_a", "pin_id_b", "PinIdR", "pin_id_c"]);
        let ids: Vec<u32> = order.iter().map(|name| Symbol::new(name).id()).collect();
        assert!(ids.is_sorted_by(|a, b| a < b), "{order:?} got ids {ids:?}");

        // across batches: every fact brings a fresh value, and every
        // hundredth a fresh relation
        let text: String = (0..BEYOND_A_BATCH)
            .map(|i| format!("PinIdRel{}(pin_id_v{i}, pin_id_w).", i / 100))
            .collect();
        parse_instance(&text).unwrap();
        let order = interning_order(&text);
        assert_eq!(
            order.len(),
            BEYOND_A_BATCH + BEYOND_A_BATCH.div_ceil(100) + 1
        );
        let ids: Vec<u32> = order.iter().map(|name| Symbol::new(name).id()).collect();
        assert!(ids.is_sorted_by(|a, b| a < b));
    }

    #[test]
    fn malformed_inputs_keep_their_position_and_message() {
        let good = "R(a, b). ".repeat(BEYOND_A_BATCH / 2 + 3);
        let in_a_later_batch = format!("{good}R(a, b) S(c,, d).");
        let cases: [(&str, usize, &str); 10] = [
            ("R(a, ", 5, "expected an identifier"),
            ("R(a b)", 4, "expected ','"),
            ("R(a,)", 4, "expected an identifier"),
            ("R a", 2, "expected '('"),
            ("(a)", 0, "expected an identifier"),
            ("R(é)", 2, "expected an identifier"),
            ("R(a) S", 6, "expected '('"),
            ("R(a); S(b)", 4, "expected an identifier"),
            ("\n\n\nR(a, b).\nR(a, .\n", 17, "expected an identifier"),
            (&in_a_later_batch, good.len() + 12, "expected an identifier"),
        ];
        for (text, position, message) in cases {
            let error = parse_instance(text).unwrap_err();
            let shown = text.get(text.len().saturating_sub(20)..).unwrap_or(text);
            assert_eq!(
                (error.position, error.message.as_str()),
                (position, message),
                "{shown:?}"
            );
        }
    }
}
