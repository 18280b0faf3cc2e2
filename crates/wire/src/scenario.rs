//! The textual scenario format: one file describing a complete distributed
//! evaluation — query, data, per-round policies, round cap and feedback
//! relation.
//!
//! The grammar extends the `cq::parser` grammar (same identifiers, same
//! query and fact syntax, same `%`/`#` line comments) with the stanzas the
//! query language cannot express — networks, distribution policies and
//! round schedules:
//!
//! ```text
//! scenario := stanza*
//! stanza   := "query" QUERY                       # cq query, ends at '.'
//!           | "queries" "{" QUERY+ "}"            # a query sequence
//!           | "instance" "{" FACT* "}"            # cq instance syntax
//!           | "policy" "{" entry* "}"             # explicit per-fact policy
//!           | "schedule" policy ("," policy)*     # one entry per round
//!           | "rounds" NUMBER
//!           | "feedback" IDENT
//! entry    := IDENT ":" FACT*                     # node: its facts (one line,
//!           | "default" ":" IDENT*                #   or terminated by ';')
//! policy   := "broadcast"   network
//!           | "round-robin" network
//!           | "hash"        counts                # one count: buckets on the
//!                                                 # join var ("hash-join"
//!                                                 # is the same policy)
//!           | "hypercube"   counts                # one uniform budget, or
//!                                                 # per-dimension buckets
//!           | "explicit"                          # the policy stanza
//! network  := "(" NUMBER ")" | ":" NUMBER         # n0 … n{N-1}
//!           | "{" IDENT+ "}"                      # explicitly named nodes
//! counts   := "(" NUMBER ("," NUMBER)* ")" | ":" NUMBER
//! ```
//!
//! `name:n` is the command line's spelling of `name(n)`: the positional
//! `<policy>` and `--schedule` of `pcq-analyze run` are policy lists in this
//! grammar ([`PolicySpec::parse_schedule`]), so one resolver names the
//! policies of every run.
//!
//! Exactly one of `query` / `queries` is required (the former is sugar for
//! a one-element sequence; a multi-query scenario runs its queries in
//! order, eliding reshuffles at transferable boundaries — see
//! `MultiRoundEngine::evaluate_queries`), along with `instance` and
//! `schedule`; each stanza appears at most once, `rounds` defaults to 1
//! and `feedback` to none. The schedule's last policy repeats past the
//! end, exactly like [`distribution::RoundSchedule`].
//!
//! The `policy` stanza is the scenario form of the `pc` policy-file format
//! ("one line per node, an optional `default:` line assigns unlisted
//! facts"): it defines one explicit fact→nodes policy, and a schedule
//! entry `explicit` runs a round under it. Entries end at a newline, a
//! `;`, or the closing `}`; facts on an entry line use the cq fact syntax
//! with flexible separators. The stanza's body and a policy file are one
//! format, parsed by one [`ExplicitSpec::parse`].
//!
//! [`Scenario`]'s `Display` impl is the pretty-printer; parsing is its
//! exact inverse (`Scenario::parse(s.to_string()) == s` for every value),
//! which the property suite pins.

use std::collections::BTreeMap;
use std::fmt;

use cq::{ConjunctiveQuery, Fact, Instance, Symbol};
use distribution::{DistributionPolicy, ExplicitPolicy, HypercubePolicy, Network, Node};

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// A parse error in a scenario file, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// Byte offset at which the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ScenarioError {}

/// The network a broadcast / round-robin policy runs over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkSpec {
    /// `N` standard-named nodes `n0 … n{N-1}`.
    Size(usize),
    /// Explicitly named nodes. Names that are all digits are reserved for
    /// [`NetworkSpec::Size`] and rejected by the parser.
    Named(Vec<Symbol>),
}

impl NetworkSpec {
    /// Materializes the network.
    pub fn build(&self) -> Result<Network, String> {
        match self {
            NetworkSpec::Size(0) => Err("a network needs at least one node".to_string()),
            NetworkSpec::Size(n) => Ok(Network::with_size(*n)),
            NetworkSpec::Named(names) if names.is_empty() => {
                Err("a network needs at least one node".to_string())
            }
            NetworkSpec::Named(names) => {
                Ok(Network::new(names.iter().map(|n| Node::new(n.as_str()))))
            }
        }
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkSpec::Size(n) => write!(f, "({n})"),
            NetworkSpec::Named(names) => {
                write!(f, "{{")?;
                for (i, name) in names.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{name}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The scenario form of the `pc` policy-file format: an explicit per-fact
/// distribution policy — which nodes each listed fact goes to, plus the
/// default nodes receiving every unlisted fact.
///
/// The assignment map is canonical (nodes sorted, facts as a set), so the
/// pretty-printer's output re-parses to an equal value; the default node
/// list keeps its written order (it is an argument list, not a set).
/// Node names use the scenario identifier charset — in particular an
/// assignment key may not be the reserved word `default` — which the
/// stanza parser and [`ExplicitSpec::build_policy`] enforce, so every
/// parsed spec survives the print∘parse round trip, and a `pc` policy file
/// names its nodes as the stanza does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExplicitSpec {
    /// Per-node fact assignments.
    pub assignments: BTreeMap<Symbol, Instance>,
    /// Nodes receiving every fact not listed in `assignments`.
    pub default: Vec<Symbol>,
}

impl ExplicitSpec {
    /// Parses the policy-file format, which is also the body of a
    /// scenario's `policy { … }` stanza: `node: facts…` entries plus at
    /// most one `default: nodes…` entry, each ending at a newline or a `;`.
    /// An entry's head is the text before its `:`. Positions in an error
    /// count from the start of `text`.
    pub fn parse(text: &str) -> Result<ExplicitSpec, ScenarioError> {
        Parser::new(text).policy_entries()
    }

    /// Whether `name` can appear as a node name in the textual stanza: the
    /// scenario identifier charset (alphanumerics, `_`, `'`, interior
    /// dashes), non-empty.
    fn is_node_name(name: &str) -> bool {
        !name.is_empty()
            && name.bytes().enumerate().all(|(i, b)| {
                b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' || (b == b'-' && i > 0)
            })
            && !name.ends_with('-')
    }

    /// Checks the invariants the textual format relies on (see the type
    /// docs); the parser upholds them by construction,
    /// [`ExplicitSpec::build_policy`] by calling this.
    fn validate(&self) -> Result<(), String> {
        for name in self.assignments.keys() {
            if name.as_str() == "default" {
                return Err("'default' is reserved and cannot name a policy node".to_string());
            }
            if !ExplicitSpec::is_node_name(name.as_str()) {
                return Err(format!("'{name}' is not a node name"));
            }
        }
        for name in &self.default {
            if !ExplicitSpec::is_node_name(name.as_str()) {
                return Err(format!("'{name}' is not a node name"));
            }
        }
        Ok(())
    }

    /// Materializes the [`ExplicitPolicy`]: the network is every node
    /// mentioned anywhere in the spec, each listed fact maps to the nodes
    /// whose entries list it, and unlisted facts map to the default nodes.
    pub fn build(&self) -> Result<Box<dyn DistributionPolicy>, String> {
        self.build_policy()
            .map(|p| Box::new(p) as Box<dyn DistributionPolicy>)
    }

    /// [`ExplicitSpec::build`] with the concrete policy type — the one
    /// materialization of the `pc` policy-file semantics (the CLI's
    /// policy-file loader delegates here too). A node name the stanza would
    /// reject is an error that names it.
    pub fn build_policy(&self) -> Result<ExplicitPolicy, String> {
        if self.assignments.is_empty() && self.default.is_empty() {
            return Err("the policy stanza assigns no facts".to_string());
        }
        self.validate()?;
        let mut network = Network::default();
        for &name in self.assignments.keys().chain(self.default.iter()) {
            network.add(Node::from(name));
        }
        let default_nodes: Vec<Node> = self.default.iter().map(|&n| Node::from(n)).collect();
        let mut policy = ExplicitPolicy::new(network).with_default(default_nodes);
        let mut by_fact: BTreeMap<&Fact, Vec<Node>> = BTreeMap::new();
        for (&node, facts) in &self.assignments {
            for fact in facts.facts() {
                by_fact.entry(fact).or_default().push(Node::from(node));
            }
        }
        for (fact, nodes) in by_fact {
            policy.assign(fact.clone(), nodes);
        }
        Ok(policy)
    }
}

impl fmt::Display for ExplicitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy {{")?;
        for (node, facts) in &self.assignments {
            write!(f, "  {node}:")?;
            for fact in facts.facts() {
                write!(f, " {fact}")?;
            }
            writeln!(f)?;
        }
        if !self.default.is_empty() {
            write!(f, "  default:")?;
            for node in &self.default {
                write!(f, " {node}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "}}")
    }
}

/// One round's distribution policy, by name and parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// Every fact — listed or produced by a later round — to every node.
    Broadcast(NetworkSpec),
    /// The scenario instance's facts dealt round-robin over the nodes
    /// (facts produced by later rounds are skipped, as the CLI's
    /// `round-robin:<n>` spec does).
    RoundRobin(NetworkSpec),
    /// Single-key hash partitioning on the query's first join variable
    /// ([`HypercubePolicy::hash_join`]); `hash-join` names it too.
    Hash {
        /// Number of hash buckets (= nodes).
        buckets: usize,
    },
    /// A Hypercube policy: one uniform budget, or per-dimension bucket
    /// counts (one per query variable).
    Hypercube {
        /// Bucket counts; length 1 means a uniform budget per dimension.
        buckets: Vec<usize>,
    },
    /// The scenario's explicit per-fact policy (its `policy { … }` stanza);
    /// built through [`Scenario::build_schedule`], which owns the stanza.
    Explicit,
}

impl PolicySpec {
    /// Parses a comma-separated policy list: the body of a `schedule`
    /// stanza, on its own.
    pub fn parse_schedule(text: &str) -> Result<Vec<PolicySpec>, ScenarioError> {
        let mut parser = Parser::new(text);
        let schedule = parser.schedule()?;
        if parser.pos < text.len() {
            return Err(parser.error("expected ',' or the end of the policy list"));
        }
        Ok(schedule)
    }

    /// Builds the concrete policy for `query` over `instance` (round-robin
    /// enumerates the instance's facts; the hash-based policies only need
    /// the query).
    pub fn build(
        &self,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<Box<dyn DistributionPolicy>, String> {
        match self {
            PolicySpec::Broadcast(network) => {
                Ok(Box::new(ExplicitPolicy::total_broadcast(&network.build()?)))
            }
            PolicySpec::RoundRobin(network) => {
                let network = network.build()?;
                Ok(Box::new(ExplicitPolicy::round_robin(&network, instance)))
            }
            PolicySpec::Hash { buckets } => HypercubePolicy::hash_join(query, *buckets)
                .map(|p| Box::new(p) as Box<dyn DistributionPolicy>),
            PolicySpec::Hypercube { buckets } => {
                let policy = match buckets.as_slice() {
                    [] => return Err("hypercube needs at least one bucket count".to_string()),
                    [budget] => HypercubePolicy::uniform(query, *budget),
                    per_dimension => {
                        let dims = query.variables().len();
                        if per_dimension.len() != dims {
                            return Err(format!(
                                "hypercube lists {} bucket counts, but the query has {dims} variables",
                                per_dimension.len()
                            ));
                        }
                        HypercubePolicy::with_buckets(query, per_dimension)
                    }
                };
                policy
                    .map(|p| Box::new(p) as Box<dyn DistributionPolicy>)
                    .map_err(|e| format!("hypercube policy: {e}"))
            }
            PolicySpec::Explicit => Err(
                "an 'explicit' schedule entry is built from the scenario's policy stanza \
                 (use Scenario::build_schedule)"
                    .to_string(),
            ),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Broadcast(network) => write!(f, "broadcast{network}"),
            PolicySpec::RoundRobin(network) => write!(f, "round-robin{network}"),
            PolicySpec::Hash { buckets } => write!(f, "hash({buckets})"),
            PolicySpec::Hypercube { buckets } => {
                write!(f, "hypercube(")?;
                for (i, b) in buckets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            PolicySpec::Explicit => write!(f, "explicit"),
        }
    }
}

/// A complete distributed-evaluation scenario: everything `pcq-analyze run`
/// needs, in one parseable, printable value. Its text is also its wire
/// form (see the `Encode` impl).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The conjunctive queries to evaluate, in order (non-empty). A
    /// one-element sequence is the classic single-query scenario; longer
    /// sequences run under the multi-query engine, which checks
    /// transferability from each query's anchor (the last query that
    /// reshuffled) and elides the reshuffle where it holds.
    pub queries: Vec<ConjunctiveQuery>,
    /// The initial database instance.
    pub instance: Instance,
    /// The explicit per-fact policy stanza, if the file has one (required
    /// when the schedule contains [`PolicySpec::Explicit`]).
    pub policy: Option<ExplicitSpec>,
    /// Per-round policy specs (the last one repeats past the end).
    pub schedule: Vec<PolicySpec>,
    /// Maximum number of rounds (≥ 1; the run may stop earlier at the
    /// fixpoint).
    pub rounds: usize,
    /// Optional feedback relation: each round's outputs re-enter the next
    /// round renamed into this relation.
    pub feedback: Option<Symbol>,
}

impl Scenario {
    /// Parses a scenario file (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        Parser::new(text).scenario()
    }

    /// The scenario's first (for most scenarios: only) query. The sequence
    /// is non-empty by construction — the parser rejects empty `queries`,
    /// and a decoded scenario is a parsed one.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.queries[0]
    }

    /// Builds the concrete per-round policies of the schedule. `explicit`
    /// entries are built from the scenario's policy stanza; query-derived
    /// policies (hash, hypercube) are shaped by the **first** query — in a
    /// multi-query scenario later queries either run on the shards that
    /// policy placed (elision) or re-shard under it.
    pub fn build_schedule(&self) -> Result<Vec<Box<dyn DistributionPolicy>>, String> {
        self.schedule
            .iter()
            .map(|spec| {
                match spec {
                    PolicySpec::Explicit => self
                        .policy
                        .as_ref()
                        .ok_or_else(|| {
                            "the schedule says 'explicit' but the scenario has no policy stanza"
                                .to_string()
                        })
                        .and_then(ExplicitSpec::build),
                    other => other.build(self.query(), &self.instance),
                }
                .map_err(|e| format!("schedule entry '{spec}': {e}"))
            })
            .collect()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "% pcq scenario")?;
        match self.queries.as_slice() {
            [query] => writeln!(f, "query {query}")?,
            queries => {
                writeln!(f, "queries {{")?;
                for query in queries {
                    writeln!(f, "  {query}")?;
                }
                writeln!(f, "}}")?;
            }
        }
        writeln!(f, "instance {{")?;
        for fact in self.instance.facts() {
            writeln!(f, "  {fact}.")?;
        }
        writeln!(f, "}}")?;
        if let Some(policy) = &self.policy {
            write!(f, "{policy}")?;
        }
        write!(f, "schedule ")?;
        for (i, policy) in self.schedule.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{policy}")?;
        }
        writeln!(f)?;
        writeln!(f, "rounds {}", self.rounds)?;
        if let Some(feedback) = self.feedback {
            writeln!(f, "feedback {feedback}")?;
        }
        Ok(())
    }
}

/// A scenario crosses the wire as its own text: the payload is the
/// pretty-printer's output, and decoding is [`Scenario::parse`], so the
/// grammar is the one place that knows a scenario's invariants.
impl Encode for Scenario {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.to_string());
    }
}

impl Decode for Scenario {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Scenario::parse(dec.str()?).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

/// Recursive-descent scenario parser, in the style of `cq::parser` (which
/// it delegates to for the embedded query and facts).
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ScenarioError {
        ScenarioError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() {
            let c = bytes[self.pos];
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'%' || c == b'#' {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ScenarioError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", c as char)))
        }
    }

    /// An identifier in the cq charset, optionally extended with interior
    /// dashes (for the `round-robin` keyword).
    fn ident(&mut self) -> Result<&'a str, ScenarioError> {
        self.skip_ws();
        let bytes = self.bytes();
        let start = self.pos;
        while self.pos < bytes.len() {
            let c = bytes[self.pos];
            let interior_dash = c == b'-' && self.pos > start;
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' || interior_dash {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected an identifier"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn number(&mut self) -> Result<usize, ScenarioError> {
        let word = self.ident()?;
        word.parse()
            .map_err(|_| self.error(format!("'{word}' is not a number")))
    }

    /// Captures the text up to and including the next `terminator`
    /// (exclusive in the returned slice) and hands it to `parse`. A
    /// terminator inside a `%`/`#` line comment does not count — the
    /// captured text keeps its comments (the `cq` parsers skip them too).
    /// `parse` fails with a position in the captured text, which the error
    /// reports as a position in the whole input.
    fn delegate<T>(
        &mut self,
        terminator: u8,
        what: &str,
        parse: impl FnOnce(&str) -> Result<T, (usize, String)>,
    ) -> Result<T, ScenarioError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.bytes();
        while self.pos < bytes.len() && bytes[self.pos] != terminator {
            if bytes[self.pos] == b'%' || bytes[self.pos] == b'#' {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                self.pos += 1;
            }
        }
        if self.pos == bytes.len() {
            return Err(ScenarioError {
                position: start,
                message: format!("unterminated {what}: expected '{}'", terminator as char),
            });
        }
        let text = &self.input[start..self.pos];
        self.pos += 1; // consume the terminator
        parse(text).map_err(|(at, message)| ScenarioError {
            position: start + at,
            message,
        })
    }

    fn network_spec(&mut self) -> Result<NetworkSpec, ScenarioError> {
        self.skip_ws();
        if self.eat(b':') {
            return Ok(NetworkSpec::Size(self.number()?));
        }
        if self.eat(b'(') {
            let n = self.number()?;
            self.skip_ws();
            self.expect(b')')?;
            return Ok(NetworkSpec::Size(n));
        }
        self.expect(b'{')
            .map_err(|_| self.error("expected '(size)', ':size' or '{node names}'"))?;
        let mut names = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            let name = self.ident()?;
            if name.bytes().all(|b| b.is_ascii_digit()) {
                return Err(self.error(format!(
                    "node name '{name}' is all digits; use ({name}) for a sized network"
                )));
            }
            names.push(Symbol::new(name));
        }
        if names.is_empty() {
            return Err(self.error("a named network needs at least one node"));
        }
        Ok(NetworkSpec::Named(names))
    }

    fn policy(&mut self) -> Result<PolicySpec, ScenarioError> {
        let name = self.ident()?;
        match name {
            "broadcast" => Ok(PolicySpec::Broadcast(self.network_spec()?)),
            "round-robin" => Ok(PolicySpec::RoundRobin(self.network_spec()?)),
            "hash" | "hash-join" => match self.counts()?[..] {
                [buckets] => Ok(PolicySpec::Hash { buckets }),
                _ => Err(self.error(format!("{name} takes one bucket count"))),
            },
            "hypercube" => Ok(PolicySpec::Hypercube {
                buckets: self.counts()?,
            }),
            "explicit" => Ok(PolicySpec::Explicit),
            other => Err(self.error(format!(
                "unknown policy '{other}' (expected broadcast, round-robin, hash, \
                 hash-join, hypercube or explicit)"
            ))),
        }
    }

    /// `(n, n, …)`, or `:n` for a single count.
    fn counts(&mut self) -> Result<Vec<usize>, ScenarioError> {
        self.skip_ws();
        if self.eat(b':') {
            return Ok(vec![self.number()?]);
        }
        self.expect(b'(')?;
        let mut counts = vec![self.number()?];
        loop {
            self.skip_ws();
            if self.eat(b')') {
                return Ok(counts);
            }
            self.expect(b',')?;
            counts.push(self.number()?);
        }
    }

    /// `policy ("," policy)*`, and the whitespace after it.
    fn schedule(&mut self) -> Result<Vec<PolicySpec>, ScenarioError> {
        let mut policies = vec![self.policy()?];
        loop {
            self.skip_ws();
            if !self.eat(b',') {
                return Ok(policies);
            }
            policies.push(self.policy()?);
        }
    }

    /// Captures one policy entry: everything up to the next newline or `;`
    /// (consumed) or the end of the input. A `%`/`#` comment ends the entry
    /// early and is skipped to its end of line.
    fn entry(&mut self) -> &'a str {
        let bytes = self.bytes();
        let start = self.pos;
        let mut end = self.pos;
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'\n' | b';' => {
                    self.pos += 1; // consume the terminator
                    return &self.input[start..end];
                }
                b'%' | b'#' => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => {
                    self.pos += 1;
                    end = self.pos;
                }
            }
        }
        &self.input[start..end]
    }

    /// The policy entries that make up the whole input (see
    /// [`ExplicitSpec::parse`]).
    fn policy_entries(&mut self) -> Result<ExplicitSpec, ScenarioError> {
        let mut spec = ExplicitSpec::default();
        let mut saw_default = false;
        loop {
            self.skip_ws();
            if self.eat(b';') {
                continue;
            }
            if self.pos == self.input.len() {
                break;
            }
            let entry_at = self.pos;
            let error = |message: String| ScenarioError {
                position: entry_at,
                message,
            };
            let entry = self.entry();
            let (head, body) = entry
                .split_once(':')
                .ok_or_else(|| error(format!("expected ':' in policy entry '{}'", entry.trim())))?;
            let body_at = entry_at + head.len() + 1;
            let head = head.trim();
            if head == "default" {
                if saw_default {
                    return Err(error("duplicate 'default' line in the policy".to_string()));
                }
                saw_default = true;
                for node in body.split_whitespace() {
                    if !ExplicitSpec::is_node_name(node) {
                        return Err(error(format!("'{node}' is not a node name")));
                    }
                    spec.default.push(Symbol::new(node));
                }
            } else {
                if !ExplicitSpec::is_node_name(head) {
                    return Err(error(format!("'{head}' is not a node name")));
                }
                let facts = cq::parse_instance(body).map_err(|e| ScenarioError {
                    position: body_at + e.position,
                    message: format!("in policy entry '{head}': {}", e.message),
                })?;
                spec.assignments
                    .entry(Symbol::new(head))
                    .or_default()
                    .extend(facts.facts().cloned());
            }
        }
        if spec.assignments.is_empty() && spec.default.is_empty() {
            return Err(self.error("the policy assigns no facts"));
        }
        Ok(spec)
    }

    fn scenario(&mut self) -> Result<Scenario, ScenarioError> {
        let mut queries: Option<Vec<ConjunctiveQuery>> = None;
        let mut instance: Option<Instance> = None;
        let mut policy: Option<ExplicitSpec> = None;
        let mut schedule: Option<Vec<PolicySpec>> = None;
        let mut rounds: Option<usize> = None;
        let mut feedback: Option<Symbol> = None;
        loop {
            self.skip_ws();
            if self.pos == self.input.len() {
                break;
            }
            let keyword_at = self.pos;
            let keyword = self.ident()?;
            let duplicate = |p: &Parser<'_>| ScenarioError {
                position: keyword_at,
                message: format!("duplicate '{}' stanza", &p.input[keyword_at..p.pos]),
            };
            match keyword {
                "query" => {
                    if queries.is_some() {
                        return Err(duplicate(self));
                    }
                    // A query ends at its first '.', which cannot occur in
                    // an identifier — capture through it and let cq parse.
                    queries = Some(vec![self.delegate(b'.', "query", |text| {
                        ConjunctiveQuery::parse(&format!("{text}."))
                            .map_err(|e| (e.position, format!("in query stanza: {}", e.message)))
                    })?]);
                }
                "queries" => {
                    if queries.is_some() {
                        return Err(duplicate(self));
                    }
                    self.skip_ws();
                    self.expect(b'{')?;
                    let mut sequence = Vec::new();
                    loop {
                        self.skip_ws();
                        if self.eat(b'}') {
                            break;
                        }
                        if self.pos == self.input.len() {
                            return Err(
                                self.error("unterminated queries stanza: expected '}'")
                            );
                        }
                        sequence.push(self.delegate(b'.', "query", |text| {
                            ConjunctiveQuery::parse(&format!("{text}.")).map_err(|e| {
                                (e.position, format!("in queries stanza: {}", e.message))
                            })
                        })?);
                    }
                    if sequence.is_empty() {
                        return Err(ScenarioError {
                            position: keyword_at,
                            message: "the queries stanza lists no queries".to_string(),
                        });
                    }
                    queries = Some(sequence);
                }
                "instance" => {
                    if instance.is_some() {
                        return Err(duplicate(self));
                    }
                    self.skip_ws();
                    self.expect(b'{')?;
                    instance = Some(self.delegate(b'}', "instance block", |text| {
                        cq::parse_instance(text)
                            .map_err(|e| (e.position, format!("in instance stanza: {}", e.message)))
                    })?);
                }
                "policy" => {
                    if policy.is_some() {
                        return Err(duplicate(self));
                    }
                    self.skip_ws();
                    self.expect(b'{')?;
                    policy = Some(self.delegate(b'}', "policy stanza", |text| {
                        ExplicitSpec::parse(text)
                            .map_err(|e| (e.position, format!("in policy stanza: {}", e.message)))
                    })?);
                }
                "schedule" => {
                    if schedule.is_some() {
                        return Err(duplicate(self));
                    }
                    schedule = Some(self.schedule()?);
                }
                "rounds" => {
                    if rounds.is_some() {
                        return Err(duplicate(self));
                    }
                    let n = self.number()?;
                    if n == 0 {
                        return Err(self.error("rounds must be at least 1"));
                    }
                    rounds = Some(n);
                }
                "feedback" => {
                    if feedback.is_some() {
                        return Err(duplicate(self));
                    }
                    let name = self.ident()?;
                    if name.contains('-') {
                        return Err(self.error(format!(
                            "feedback relation '{name}' is not a cq identifier"
                        )));
                    }
                    feedback = Some(Symbol::new(name));
                }
                other => {
                    return Err(ScenarioError {
                        position: keyword_at,
                        message: format!(
                            "unknown stanza '{other}' (expected query, queries, instance, policy, schedule, rounds or feedback)"
                        ),
                    })
                }
            }
        }
        let queries = queries.ok_or(ScenarioError {
            position: self.input.len(),
            message: "scenario has no 'query' stanza".to_string(),
        })?;
        let instance = instance.ok_or(ScenarioError {
            position: self.input.len(),
            message: "scenario has no 'instance' stanza".to_string(),
        })?;
        let schedule = schedule.ok_or(ScenarioError {
            position: self.input.len(),
            message: "scenario has no 'schedule' stanza".to_string(),
        })?;
        if schedule.contains(&PolicySpec::Explicit) && policy.is_none() {
            return Err(ScenarioError {
                position: self.input.len(),
                message: "the schedule says 'explicit' but the scenario has no 'policy' stanza"
                    .to_string(),
            });
        }
        Ok(Scenario {
            queries,
            instance,
            policy,
            schedule,
            rounds: rounds.unwrap_or(1),
            feedback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            queries: vec![ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()],
            instance: cq::parse_instance("R(a, b). R(b, c). R(c, d).").unwrap(),
            policy: None,
            schedule: vec![
                PolicySpec::Hash { buckets: 3 },
                PolicySpec::Hypercube { buckets: vec![2] },
            ],
            rounds: 6,
            feedback: Some(Symbol::new("R")),
        }
    }

    fn sample_explicit() -> Scenario {
        let mut assignments = BTreeMap::new();
        assignments.insert(
            Symbol::new("n0"),
            cq::parse_instance("R(a, b). R(b, c).").unwrap(),
        );
        assignments.insert(Symbol::new("n1"), cq::parse_instance("R(b, c).").unwrap());
        Scenario {
            queries: vec![ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()],
            instance: cq::parse_instance("R(a, b). R(b, c). R(c, d).").unwrap(),
            policy: Some(ExplicitSpec {
                assignments,
                default: vec![Symbol::new("n0"), Symbol::new("n1")],
            }),
            schedule: vec![PolicySpec::Explicit, PolicySpec::Hash { buckets: 2 }],
            rounds: 2,
            feedback: None,
        }
    }

    fn sample_multi() -> Scenario {
        Scenario {
            queries: vec![
                ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap(),
                ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap(),
            ],
            instance: cq::parse_instance("R(a, a). R(a, b). R(b, c).").unwrap(),
            policy: None,
            schedule: vec![PolicySpec::Broadcast(NetworkSpec::Size(2))],
            rounds: 4,
            feedback: None,
        }
    }

    #[test]
    fn pretty_printed_scenarios_re_parse_to_equal_values() {
        for s in [sample(), sample_multi()] {
            let text = s.to_string();
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, s, "pretty-printer output:\n{text}");
        }
    }

    #[test]
    fn multi_query_scenarios_parse_print_and_encode() {
        let text = "
            % two-hop after the loop query: PC transfers, the reshuffle
            % can be elided
            queries {
              T(x, z) :- R(x, y), R(y, z), R(y, y).
              T(x, z) :- R(x, y), R(y, z).
            }
            instance { R(a, a). R(a, b). R(b, c). }
            schedule broadcast(2)
            rounds 4
        ";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s, sample_multi());
        assert_eq!(s.queries.len(), 2);
        assert_eq!(s.query(), &s.queries[0]);
        // printer output uses the block form and re-parses exactly
        let printed = s.to_string();
        assert!(printed.contains("queries {"), "{printed}");
        assert_eq!(Scenario::parse(&printed).unwrap(), s);
        // and the wire codec agrees
        let bytes = crate::frame::encode_frame(&s);
        assert_eq!(crate::frame::decode_frame::<Scenario>(&bytes).unwrap(), s);
    }

    #[test]
    fn single_query_scenarios_keep_the_query_stanza_form() {
        // Backward compatibility: one query prints as `query …`, never as
        // a one-element block.
        let printed = sample().to_string();
        assert!(printed.contains("query T("), "{printed}");
        assert!(!printed.contains("queries {"), "{printed}");
    }

    #[test]
    fn malformed_query_sequences_are_rejected() {
        let tail = "instance { R(a). }\nschedule hash(2)";
        for (text, needle) in [
            (format!("queries {{ }}\n{tail}"), "lists no queries"),
            (
                "queries { T(x) :- R(x). T(y) :- R(y).".to_string(),
                "unterminated queries stanza",
            ),
            (
                format!("query T(x) :- R(x).\nqueries {{ T(x) :- R(x). }}\n{tail}"),
                "duplicate",
            ),
            (
                format!("queries {{ T(x) :- R(x). }}\nquery T(x) :- R(x).\n{tail}"),
                "duplicate",
            ),
        ] {
            let err = Scenario::parse(&text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?} gave {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn parses_a_hand_written_file_with_comments() {
        let text = "
            % transitive closure by repeated squaring (cf. sec 3.5.)
            query T(x, z) :- % squaring step, i.e. R∘R.
                  R(x, y), R(y, z).
            instance {
              R(a, b). R(b, c)   # separators are flexible, {braces} too
              R(c, d).
            }
            schedule broadcast(2), hypercube(2, 2, 2)
            rounds 8
            feedback R
        ";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.instance.len(), 3);
        assert_eq!(s.rounds, 8);
        assert_eq!(s.feedback, Some(Symbol::new("R")));
        assert_eq!(
            s.schedule,
            vec![
                PolicySpec::Broadcast(NetworkSpec::Size(2)),
                PolicySpec::Hypercube {
                    buckets: vec![2, 2, 2]
                },
            ]
        );
        // and it round-trips through the printer too
        assert_eq!(Scenario::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn named_networks_parse_and_roundtrip() {
        let text = "
            query T(x) :- R(x, y).
            instance { R(a, b). }
            schedule round-robin{east west}, broadcast{solo}
        ";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(
            s.schedule[0],
            PolicySpec::RoundRobin(NetworkSpec::Named(vec![
                Symbol::new("east"),
                Symbol::new("west")
            ]))
        );
        assert_eq!(s.rounds, 1);
        assert_eq!(Scenario::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn stanza_errors_report_one_offset_into_the_file() {
        let head = "query T(x) :- R(x, y).\n";
        for (text, position, message) in [
            (
                format!("{head}instance {{ R(a, b). R(a, . }}\nschedule hash(2)\n"),
                48,
                "in instance stanza: expected an identifier",
            ),
            (
                format!(
                    "{head}instance {{ R(a, b). }}\npolicy {{\n  n0: R(a, b)\n  n1: R(a, b) R(b,\n}}\n\
                     schedule explicit\n"
                ),
                86,
                "in policy stanza: in policy entry 'n1': expected an identifier",
            ),
            (
                format!("{head}instance {{ }}\npolicy {{ n0: R(a, b)\n b@d: R(b, c) }}\n"),
                58,
                "in policy stanza: 'b@d' is not a node name",
            ),
            (
                "query T(x) :- R(x, y), S(y z).".to_string(),
                27,
                "in query stanza: expected ','",
            ),
            (
                "queries { T(x) :- R(x).\n T(x) :- R(x) S(x). }".to_string(),
                38,
                "in queries stanza: unexpected trailing input after the query",
            ),
        ] {
            let err = Scenario::parse(&text).unwrap_err();
            assert_eq!(
                (err.position, err.message.as_str()),
                (position, message),
                "{text:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_scenarios_with_positions() {
        for (text, needle) in [
            ("instance { R(a). }\nschedule hash(2)", "no 'query'"),
            ("query T(x) :- R(x).", "no 'instance'"),
            ("query T(x) :- R(x).\ninstance { R(a). }", "no 'schedule'"),
            ("query T(x) :- R(x).\nquery T(y) :- R(y).", "duplicate"),
            ("frobnicate 3", "unknown stanza"),
            (
                "query T(x) :- R(x).\ninstance { R(a). }\nschedule teleport(3)",
                "unknown policy",
            ),
            (
                "query T(x) :- R(x).\ninstance { R(a). }\nschedule hash(2)\nrounds 0",
                "at least 1",
            ),
            (
                "query T(x) :- R(x).\ninstance { R(a). }\nschedule broadcast{12}",
                "all digits",
            ),
            ("query T(x) :- R(x, y", "unterminated"),
            (
                "query T(w) :- R(x).\ninstance { }\nschedule hash(2)",
                "query stanza",
            ),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?} gave {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn schedules_build_into_working_policies() {
        let s = Scenario::parse(
            "query T(x, z) :- R(x, y), S(y, z).
             instance { R(a, b). S(b, c). R(c, d). S(d, e). }
             schedule broadcast(3), round-robin(2), hash(4), hypercube(2)",
        )
        .unwrap();
        let policies = s.build_schedule().unwrap();
        assert_eq!(policies.len(), 4);
        assert_eq!(policies[0].network().len(), 3);
        assert_eq!(policies[1].network().len(), 2);
        assert_eq!(policies[2].network().len(), 4);
        // a broadcast round is parallel-correct: one round must match
        let outcome = distribution::OneRoundEngine::new(policies[0].as_ref())
            .evaluate(s.query(), &s.instance);
        assert_eq!(*outcome.result, cq::evaluate(s.query(), &s.instance));
    }

    /// Parses a policy list and builds it for `query` over no facts.
    fn resolve(
        spec: &str,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<Box<dyn DistributionPolicy>>, String> {
        let schedule = PolicySpec::parse_schedule(spec).map_err(|e| e.to_string())?;
        let built = schedule.iter().map(|p| p.build(query, &Instance::new()));
        built.collect()
    }

    #[test]
    fn policy_lists_resolve_in_both_spellings_and_reject_garbage() {
        let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap();
        let schedule = resolve("hash-join:4,hypercube:2", &q).unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule[0].network().len(), 4);
        assert_eq!(schedule[1].network().len(), 8); // 2^3 variables

        // `name:n` is `name(n)`, `hash-join` is `hash`, and the printer
        // keeps to one spelling of each
        for (colon, canonical) in [
            ("hypercube:2", "hypercube(2)"),
            ("broadcast:2", "broadcast(2)"),
            ("round-robin : 2", "round-robin(2)"),
            ("hash-join:3,hypercube:2", "hash(3), hypercube(2)"),
            ("hash-join(3)", "hash(3)"),
            (
                "hash-join:2,broadcast:3,hypercube:2",
                "hash(2), broadcast(3), hypercube(2)",
            ),
            (
                "explicit, hypercube(2, 2, 2)",
                "explicit, hypercube(2, 2, 2)",
            ),
        ] {
            let parsed = PolicySpec::parse_schedule(colon).unwrap();
            assert_eq!(parsed, PolicySpec::parse_schedule(canonical).unwrap());
            let printed: Vec<String> = parsed.iter().map(ToString::to_string).collect();
            assert_eq!(printed.join(", "), canonical);
        }
        // a broadcast is total: a fact of no instance still goes everywhere
        let broadcast = &resolve("broadcast:3", &q).unwrap()[0];
        assert_eq!(
            broadcast
                .nodes_for(&Fact::from_names("Z", &["q", "r"]))
                .len(),
            3
        );

        for bad in [
            "",
            "hash-join",
            "hash-join:x",
            "hash-join:0",
            "hash-join(2, 3)",
            "frobnicate:3",
            "broadcast:0",
            "hypercube:2,",
            "hypercube:2 hash:2",
            "hypercube:2:3",
        ] {
            assert!(resolve(bad, &q).is_err(), "{bad:?} must be rejected");
        }
        // a hash policy needs a variable to hash on
        let nullary = ConjunctiveQuery::parse("T() :- R().").unwrap();
        assert!(resolve("hash-join:2", &nullary).is_err());
    }

    #[test]
    fn bad_schedule_parameters_fail_at_build_time() {
        let s = Scenario::parse(
            "query T(x, z) :- R(x, y), R(y, z).
             instance { R(a, b). }
             schedule hypercube(2, 2)",
        )
        .unwrap();
        let err = match s.build_schedule() {
            Ok(_) => panic!("mismatched hypercube dimensions must not build"),
            Err(err) => err,
        };
        assert!(err.contains("3 variables"), "{err}");

        let s = Scenario::parse("query T(x) :- R(x).\ninstance { R(a). }\nschedule broadcast(0)")
            .unwrap();
        assert!(s.build_schedule().is_err());
    }

    #[test]
    fn scenarios_round_trip_through_the_binary_codec() {
        for s in [sample(), sample_explicit()] {
            let bytes = crate::frame::encode_frame(&s);
            // the frame's payload is the printed scenario, verbatim
            let text = s.to_string();
            assert!(bytes.ends_with(text.as_bytes()), "{bytes:?}");
            let back: Scenario = crate::frame::decode_frame(&bytes).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn policy_stanza_parses_prints_and_reparses() {
        let s = sample_explicit();
        let text = s.to_string();
        assert!(
            text.contains("policy {"),
            "printer must emit the stanza:\n{text}"
        );
        assert!(text.contains("schedule explicit, hash(2)"));
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, s, "printed scenario:\n{text}");
    }

    #[test]
    fn hand_written_policy_stanzas_parse() {
        // Newline- and semicolon-terminated entries, duplicate node lines
        // merging, comments, and the default line — the pc policy-file
        // format embedded in a scenario.
        let s = Scenario::parse(
            "query T(x, z) :- R(x, y), R(y, z), R(x, x).
             instance { R(a, a). R(a, b). R(b, a). R(b, b). }
             policy {
               n0: R(a, a) R(b, a)   % the loop lives on both
               n0: R(b, b)           # merges with the line above
               n1: R(a, a), R(a, b); n1: R(b, b)
               default: n0 n1
             }
             schedule explicit",
        )
        .unwrap();
        let spec = s.policy.as_ref().unwrap();
        assert_eq!(spec.assignments[&Symbol::new("n0")].len(), 3);
        assert_eq!(spec.assignments[&Symbol::new("n1")].len(), 3);
        assert_eq!(spec.default.len(), 2);
        // Example 3.5: the policy is parallel-correct for the loop query.
        let policies = s.build_schedule().unwrap();
        let outcome = distribution::OneRoundEngine::new(policies[0].as_ref())
            .evaluate(s.query(), &s.instance);
        assert_eq!(*outcome.result, cq::evaluate(s.query(), &s.instance));
        // and the whole thing round-trips
        assert_eq!(Scenario::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn explicit_policy_default_routes_unlisted_facts() {
        let s = Scenario::parse(
            "query T(x) :- R(x, y).
             instance { R(a, b). R(c, d). }
             policy {
               n0: R(a, b)
               default: n1
             }
             schedule explicit",
        )
        .unwrap();
        let policies = s.build_schedule().unwrap();
        let listed = policies[0].nodes_for(&cq::Fact::from_names("R", &["a", "b"]));
        let unlisted = policies[0].nodes_for(&cq::Fact::from_names("R", &["c", "d"]));
        assert_eq!(listed.into_iter().collect::<Vec<_>>(), [Node::new("n0")]);
        assert_eq!(unlisted.into_iter().collect::<Vec<_>>(), [Node::new("n1")]);
    }

    #[test]
    fn decoded_policy_stanzas_must_survive_the_print_parse_round_trip() {
        // A scenario frame carries the scenario's text, so a value the
        // grammar cannot print — a policy node named by the reserved word
        // "default" or by no node name at all, no queries, an empty
        // schedule, rounds 0, `explicit` without a policy stanza — decodes
        // to a typed error with the parser's byte offset, never to a value
        // that violates parse∘print = id.
        let decoded =
            |s: &Scenario| crate::frame::decode_frame::<Scenario>(&crate::frame::encode_frame(s));
        let rejected = |s: Scenario, what: &str| {
            let err = decoded(&s).unwrap_err();
            assert!(
                matches!(&err, DecodeError::Invalid(why) if why.starts_with("scenario error at byte")),
                "{what} must be rejected, got {err:?}"
            );
        };
        for bad_name in ["default", "has space", "-dash", "a-"] {
            let mut assignments = BTreeMap::new();
            assignments.insert(Symbol::new(bad_name), cq::parse_instance("R(a).").unwrap());
            let mut s = sample_explicit();
            s.policy = Some(ExplicitSpec {
                assignments,
                default: vec![],
            });
            rejected(s, &format!("node name {bad_name:?}"));
        }
        let mut s = sample();
        s.queries.clear();
        rejected(s, "no queries");
        let mut s = sample();
        s.schedule.clear();
        rejected(s, "an empty schedule");
        let mut s = sample();
        s.rounds = 0;
        rejected(s, "rounds 0");
        let mut s = sample_explicit();
        s.policy = None;
        rejected(s, "'explicit' without a policy stanza");
        // Dashed-but-valid node names pass end to end, parser included.
        let s = Scenario::parse(
            "query T(x) :- R(x).\ninstance { R(a). }\n\
             policy { east-1: R(a)\n default: east-1 }\nschedule explicit",
        )
        .unwrap();
        assert_eq!(decoded(&s).unwrap(), s);
        assert_eq!(Scenario::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn malformed_policy_stanzas_are_rejected() {
        let base = "query T(x) :- R(x).\ninstance { R(a). }\n";
        for (tail, needle) in [
            ("schedule explicit", "no 'policy' stanza"),
            ("policy { }\nschedule explicit", "assigns no facts"),
            ("policy { n0 R(a). }\nschedule explicit", "expected ':'"),
            (
                "policy { n0: R(a)\ndefault: n1\ndefault: n2 }\nschedule explicit",
                "duplicate 'default'",
            ),
            ("policy { n0: R(a(b)) }\nschedule explicit", "policy entry"),
            ("policy { n0: R(a)", "unterminated policy stanza"),
            (
                "policy { n0: R(a). }\npolicy { n1: R(a). }\nschedule explicit",
                "duplicate",
            ),
        ] {
            let text = format!("{base}{tail}");
            let err = Scenario::parse(&text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{tail:?} gave {err} (wanted {needle:?})"
            );
        }
    }
}
