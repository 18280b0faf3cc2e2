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
//! with flexible separators.
//!
//! [`Scenario`]'s `Display` impl is the pretty-printer; parsing is its
//! exact inverse (`Scenario::parse(s.to_string()) == s` for every value),
//! which the property suite pins.

use std::collections::BTreeMap;
use std::fmt;

use cq::{ConjunctiveQuery, Fact, Instance, Symbol};
use distribution::{DistributionPolicy, ExplicitPolicy, HypercubePolicy, Network, Node};
use workloads::hash_join_policy;

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
/// Node names must satisfy [`ExplicitSpec::is_node_name`] — in particular
/// an assignment key may not be the reserved word `default` — which both
/// the stanza parser and the binary decoder enforce, so every parsed *or
/// decoded* spec survives the print∘parse round trip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExplicitSpec {
    /// Per-node fact assignments.
    pub assignments: BTreeMap<Symbol, Instance>,
    /// Nodes receiving every fact not listed in `assignments`.
    pub default: Vec<Symbol>,
}

impl ExplicitSpec {
    /// Whether `name` can appear as a node name in the textual stanza: the
    /// scenario identifier charset (alphanumerics, `_`, `'`, interior
    /// dashes), non-empty.
    pub fn is_node_name(name: &str) -> bool {
        !name.is_empty()
            && name.bytes().enumerate().all(|(i, b)| {
                b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' || (b == b'-' && i > 0)
            })
            && !name.ends_with('-')
    }

    /// Checks the invariants the textual format relies on (see the type
    /// docs); the parser upholds them by construction, the binary decoder
    /// by calling this.
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
    /// policy-file loader delegates here too).
    pub fn build_policy(&self) -> Result<ExplicitPolicy, String> {
        if self.assignments.is_empty() && self.default.is_empty() {
            return Err("the policy stanza assigns no facts".to_string());
        }
        let mut network = Network::default();
        for name in self.assignments.keys().chain(self.default.iter()) {
            network.add(Node::new(name.as_str()));
        }
        let default_nodes: Vec<Node> = self.default.iter().map(|n| Node::new(n.as_str())).collect();
        let mut policy = ExplicitPolicy::new(network).with_default(default_nodes);
        let mut by_fact: BTreeMap<&Fact, Vec<Node>> = BTreeMap::new();
        for (node, facts) in &self.assignments {
            for fact in facts.facts() {
                by_fact
                    .entry(fact)
                    .or_default()
                    .push(Node::new(node.as_str()));
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
    /// (`workloads::hash_join_policy`); `hash-join` names it too.
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
                let network = network.build()?;
                Ok(Box::new(
                    ExplicitPolicy::new(network.clone()).with_default(network.nodes()),
                ))
            }
            PolicySpec::RoundRobin(network) => {
                let network = network.build()?;
                Ok(Box::new(ExplicitPolicy::round_robin(&network, instance)))
            }
            PolicySpec::Hash { buckets } => hash_join_policy(query, *buckets)
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
/// needs, in one parseable, printable, binary-encodable value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The conjunctive queries to evaluate, in order (non-empty). A
    /// one-element sequence is the classic single-query scenario; longer
    /// sequences run under the multi-query engine, which checks
    /// transferability between consecutive queries and elides the
    /// reshuffle where it holds.
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
    /// is non-empty by construction — both the parser and the binary
    /// decoder reject empty `queries`.
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

impl Encode for Scenario {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.queries.len());
        for query in &self.queries {
            query.encode(enc);
        }
        self.instance.encode(enc);
        self.policy.encode(enc);
        enc.usize(self.schedule.len());
        for policy in &self.schedule {
            policy.encode(enc);
        }
        enc.usize(self.rounds);
        self.feedback.encode(enc);
    }
}

impl Decode for Scenario {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.usize()?;
        if count == 0 {
            return Err(DecodeError::Invalid("scenario has no queries".to_string()));
        }
        let mut queries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            queries.push(ConjunctiveQuery::decode(dec)?);
        }
        let instance = Instance::decode(dec)?;
        let policy = Option::<ExplicitSpec>::decode(dec)?;
        let schedule = Vec::<PolicySpec>::decode(dec)?;
        if schedule.is_empty() {
            return Err(DecodeError::Invalid(
                "scenario has an empty schedule".to_string(),
            ));
        }
        if schedule.contains(&PolicySpec::Explicit) && policy.is_none() {
            return Err(DecodeError::Invalid(
                "scenario schedule says 'explicit' but carries no policy stanza".to_string(),
            ));
        }
        let rounds = dec.usize()?;
        if rounds == 0 {
            return Err(DecodeError::Invalid("scenario has rounds 0".to_string()));
        }
        let feedback = Option::<Symbol>::decode(dec)?;
        Ok(Scenario {
            queries,
            instance,
            policy,
            schedule,
            rounds,
            feedback,
        })
    }
}

impl Encode for ExplicitSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.assignments.len());
        for (node, facts) in &self.assignments {
            node.encode(enc);
            facts.encode(enc);
        }
        self.default.encode(enc);
    }
}

impl Decode for ExplicitSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let entries = dec.usize()?;
        let mut assignments = BTreeMap::new();
        for _ in 0..entries {
            let node = Symbol::decode(dec)?;
            let facts = Instance::decode(dec)?;
            assignments.insert(node, facts);
        }
        let default = Vec::<Symbol>::decode(dec)?;
        let spec = ExplicitSpec {
            assignments,
            default,
        };
        // Decoded specs must satisfy the same naming invariants the stanza
        // parser enforces, or printing them would not re-parse (e.g. a node
        // literally named "default" would print as the default-nodes line).
        spec.validate()
            .map_err(|message| DecodeError::Invalid(format!("policy stanza: {message}")))?;
        Ok(spec)
    }
}

const TAG_BROADCAST: u8 = 0;
const TAG_ROUND_ROBIN: u8 = 1;
const TAG_HASH: u8 = 2;
const TAG_HYPERCUBE: u8 = 3;
const TAG_EXPLICIT: u8 = 4;

impl Encode for PolicySpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PolicySpec::Broadcast(network) => {
                enc.byte(TAG_BROADCAST);
                network.encode(enc);
            }
            PolicySpec::RoundRobin(network) => {
                enc.byte(TAG_ROUND_ROBIN);
                network.encode(enc);
            }
            PolicySpec::Hash { buckets } => {
                enc.byte(TAG_HASH);
                enc.usize(*buckets);
            }
            PolicySpec::Hypercube { buckets } => {
                enc.byte(TAG_HYPERCUBE);
                buckets.encode(enc);
            }
            PolicySpec::Explicit => enc.byte(TAG_EXPLICIT),
        }
    }
}

impl Decode for PolicySpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            TAG_BROADCAST => Ok(PolicySpec::Broadcast(NetworkSpec::decode(dec)?)),
            TAG_ROUND_ROBIN => Ok(PolicySpec::RoundRobin(NetworkSpec::decode(dec)?)),
            TAG_HASH => Ok(PolicySpec::Hash {
                buckets: dec.usize()?,
            }),
            TAG_HYPERCUBE => Ok(PolicySpec::Hypercube {
                buckets: Vec::<usize>::decode(dec)?,
            }),
            TAG_EXPLICIT => Ok(PolicySpec::Explicit),
            tag => Err(DecodeError::UnknownTag {
                context: "PolicySpec",
                tag,
            }),
        }
    }
}

impl Encode for NetworkSpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            NetworkSpec::Size(n) => {
                enc.byte(0);
                enc.usize(*n);
            }
            NetworkSpec::Named(names) => {
                enc.byte(1);
                names.encode(enc);
            }
        }
    }
}

impl Decode for NetworkSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            0 => Ok(NetworkSpec::Size(dec.usize()?)),
            1 => Ok(NetworkSpec::Named(Vec::<Symbol>::decode(dec)?)),
            tag => Err(DecodeError::UnknownTag {
                context: "NetworkSpec",
                tag,
            }),
        }
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
    fn delegate<T>(
        &mut self,
        terminator: u8,
        what: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
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
        parse(text).map_err(|message| ScenarioError {
            position: start,
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

    /// Captures one policy-stanza entry body: everything up to the next
    /// newline, `;` or `}` (the `}` is left for the stanza loop). A `%`/`#`
    /// comment ends the body early and is skipped to its end of line.
    fn entry_body(&mut self) -> &'a str {
        let bytes = self.bytes();
        let start = self.pos;
        let mut end = self.pos;
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'\n' | b';' => {
                    self.pos += 1; // consume the terminator
                    return &self.input[start..end];
                }
                b'}' => return &self.input[start..end],
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

    /// Parses the body of a `policy { … }` stanza (the `{` is already
    /// consumed): `node: facts…` entries plus at most one
    /// `default: nodes…` line.
    fn policy_stanza(&mut self) -> Result<ExplicitSpec, ScenarioError> {
        let mut spec = ExplicitSpec::default();
        let mut saw_default = false;
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            if self.eat(b';') {
                continue;
            }
            if self.pos == self.input.len() {
                return Err(self.error("unterminated policy stanza: expected '}'"));
            }
            let entry_at = self.pos;
            let name = self.ident()?;
            self.skip_ws();
            self.expect(b':')
                .map_err(|_| self.error(format!("expected ':' after '{name}'")))?;
            let body = self.entry_body();
            if name == "default" {
                if saw_default {
                    return Err(ScenarioError {
                        position: entry_at,
                        message: "duplicate 'default' line in the policy stanza".to_string(),
                    });
                }
                saw_default = true;
                for node in body.split_whitespace() {
                    if !ExplicitSpec::is_node_name(node) {
                        return Err(ScenarioError {
                            position: entry_at,
                            message: format!("'{node}' is not a node name"),
                        });
                    }
                    spec.default.push(Symbol::new(node));
                }
            } else {
                if !ExplicitSpec::is_node_name(name) {
                    return Err(ScenarioError {
                        position: entry_at,
                        message: format!("'{name}' is not a node name"),
                    });
                }
                let facts = cq::parse_instance(body).map_err(|e| ScenarioError {
                    position: entry_at,
                    message: format!("in policy entry '{name}': {e}"),
                })?;
                spec.assignments
                    .entry(Symbol::new(name))
                    .or_default()
                    .extend(facts.facts().cloned());
            }
        }
        if spec.assignments.is_empty() && spec.default.is_empty() {
            return Err(self.error("the policy stanza assigns no facts"));
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
                            .map_err(|e| format!("in query stanza: {e}"))
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
                            ConjunctiveQuery::parse(&format!("{text}."))
                                .map_err(|e| format!("in queries stanza: {e}"))
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
                        cq::parse_instance(text).map_err(|e| format!("in instance stanza: {e}"))
                    })?);
                }
                "policy" => {
                    if policy.is_some() {
                        return Err(duplicate(self));
                    }
                    self.skip_ws();
                    self.expect(b'{')?;
                    policy = Some(self.policy_stanza()?);
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
        // and the binary codec agrees
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
        assert_eq!(outcome.result, cq::evaluate(s.query(), &s.instance));
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
        assert_eq!(outcome.result, cq::evaluate(s.query(), &s.instance));
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
        // A spec whose assignment key is the reserved word "default" (or
        // not a node name at all) would print as something the parser
        // cannot read back; the binary decoder must reject it instead of
        // producing a value that violates parse∘print = id.
        for bad_name in ["default", "has space", "-dash", "a-"] {
            let mut assignments = BTreeMap::new();
            assignments.insert(Symbol::new(bad_name), cq::parse_instance("R(a).").unwrap());
            let spec = ExplicitSpec {
                assignments,
                default: vec![],
            };
            let bytes = crate::frame::encode_frame(&spec);
            let err = crate::frame::decode_frame::<ExplicitSpec>(&bytes).unwrap_err();
            assert!(
                matches!(err, DecodeError::Invalid(_)),
                "node name {bad_name:?} must be rejected, got {err:?}"
            );
        }
        // Dashed-but-valid node names pass end to end, parser included.
        let s = Scenario::parse(
            "query T(x) :- R(x).\ninstance { R(a). }\n\
             policy { east-1: R(a)\n default: east-1 }\nschedule explicit",
        )
        .unwrap();
        let bytes = crate::frame::encode_frame(&s);
        assert_eq!(crate::frame::decode_frame::<Scenario>(&bytes).unwrap(), s);
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
