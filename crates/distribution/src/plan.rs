//! The run plan: every decision of a run, made before the first reshuffle.
//!
//! Parallel-correctness (Definition 3.1), transferability (Definition 4.1)
//! and the Hypercube results (Lemma 5.7) are properties of queries and
//! policies, not of the instance. So [`MultiRoundEngine::plan`] builds a
//! [`RunPlan`] from the queries, the schedule, the feedback relation and
//! the round cap alone, asking the transfer oracle every question under one
//! `plan` span, and the round loop only carries it out. Per query it holds
//! the **elision claim** ([`Claim`]) — the oracle's verdict on the query's
//! **anchor**, the last query before it that the plan does not elide,
//! asked only without feedback (which renames the resident facts) and with
//! `reshuffle_always` off — and one [`Slot`] per schedule entry the round
//! cap reaches. Transferability is transitive (Definition 4.1), so a claim
//! about the anchor is as sound as a chain of claims about predecessors.
//! A `yes` says how the query reads the anchor's resident shards
//! ([`ResidentRead`]); over shards split into atom parts that takes a (C3)
//! witness (see [`crate::parts`]), and a `yes` without one is refused. One
//! guard stays with the data: a `yes` elides the reshuffle only if the
//! nodes hold the anchor's shards, that is the anchor's run **converged**
//! in its last slot and no query ran after it.
//!
//! [`MultiRoundEngine::plan`]: crate::MultiRoundEngine::plan

use std::fmt;

use cq::{ConjunctiveQuery, Symbol, Variable};

use crate::network::Node;
use crate::parts::AtomSplit;
use crate::policy::DistributionPolicy;

/// One schedule entry of a query's run. Its rounds ship full chunks of the
/// input; with feedback they ship deltas: the first resets the nodes and
/// ships the whole state, every later one what the round before it added.
/// Either way the chunks are split by body atom when `split` is given, so
/// a delta round too derives each valuation only at its home node.
pub struct Slot<'p> {
    /// The round the entry starts at: its index in the schedule.
    pub first_round: usize,
    /// The entry's policy.
    pub policy: &'p dyn DistributionPolicy,
    pub(crate) split: Option<&'p AtomSplit>,
}

impl Slot<'_> {
    /// The atom parts a round of the slot splits its chunks into (0: none).
    pub fn parts(&self) -> usize {
        self.split.map_or(0, |split| split.parts().len())
    }
}

/// How an elided query runs over the shards its anchor left resident.
#[derive(Clone, Debug)]
pub struct ResidentRead {
    /// The query the resident round announces: the query itself over plain
    /// shards; over atom parts `θ(Q′)`, with atom `i` over part `R#μ(i)`.
    pub query: ConjunctiveQuery,
    /// `μ`: for every atom of `query`, the anchor atom whose part it reads
    /// (empty over plain shards).
    pub parts: Vec<usize>,
    /// The anchor's variables no atom `μ(i)` mentions.
    pub pinned: Vec<Variable>,
    /// The nodes that take part: those at bucket 0 in every pinned
    /// dimension (every node of the anchor's last slot over plain shards).
    pub nodes: Vec<Node>,
}

/// An elision claim: the transfer oracle's verdict on a query and its
/// anchor, and how a `yes` reads the anchor's shards.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The query whose resident shards the claim is about: the last query
    /// before this one that the plan does not elide.
    pub anchor: usize,
    /// Whether parallel-correctness transfers from the anchor.
    pub transfers: bool,
    /// How the query reads the anchor's resident shards. `None` when it
    /// does not transfer, or when it does but no (C3) witness reads the
    /// anchor's atom parts: the claim is refused and the query reshuffles.
    pub read: Option<ResidentRead>,
}

/// The plan of one query of a run.
pub struct QueryPlan<'p> {
    /// The query.
    pub query: ConjunctiveQuery,
    /// The elision claim, or `None` where elision is impossible without
    /// data (the first query, feedback, `reshuffle_always`).
    pub elide: Option<Claim>,
    /// One slot per schedule entry the round cap reaches, in round order.
    pub slots: Vec<Slot<'p>>,
}

impl<'p> QueryPlan<'p> {
    /// The slot that round `round` runs in: the last one repeats.
    pub fn slot(&self, round: usize) -> &Slot<'p> {
        &self.slots[round.min(self.slots.len() - 1)]
    }

    /// Whether the plan elides the query's reshuffle: a `yes` claim with
    /// a read of its anchor's shards.
    pub fn elides(&self) -> bool {
        self.elide
            .as_ref()
            .is_some_and(|claim| claim.read.is_some())
    }
}

/// Every decision of a run, made before any data moves (see the module
/// docs). Its [`Display`](fmt::Display) is its one rendering.
pub struct RunPlan<'p> {
    pub(crate) queries: Vec<QueryPlan<'p>>,
    /// The most rounds a query's run takes: the cap, and without feedback
    /// at most one per schedule entry (a further round would repeat one).
    pub(crate) rounds: usize,
    /// Whether a run without feedback has converged once it ran `rounds`:
    /// its last round then ran the schedule's last entry.
    pub(crate) converges_at_cap: bool,
    pub(crate) feedback: Option<Symbol>,
}

impl<'p> RunPlan<'p> {
    /// The per-query plans, in run order.
    pub fn queries(&self) -> &[QueryPlan<'p>] {
        &self.queries
    }

    /// How many elision claims the plan asked the transfer oracle about.
    pub fn transfer_checks(&self) -> usize {
        self.queries.iter().filter(|q| q.elide.is_some()).count()
    }
}

impl Claim {
    /// The claim as the plan prints it; `nodes` is the size of the
    /// anchor's last network.
    fn display(&self, nodes: usize) -> String {
        let anchor = self.anchor;
        let Some(read) = &self.read else {
            return match self.transfers {
                true => format!(
                    "refused, transfers from query {anchor} but no (C3) witness reads its parts"
                ),
                false => format!("no, does not transfer from query {anchor}"),
            };
        };
        let mut line = format!("yes, transfers from query {anchor}");
        if !read.parts.is_empty() {
            let atoms = read.query.body().iter().enumerate();
            let atoms: Vec<String> = atoms.map(|(i, a)| format!("{i}→{}", a.relation)).collect();
            line += &format!("; reads parts {}", atoms.join(" "));
        }
        if !read.pinned.is_empty() {
            let pinned: Vec<&str> = read.pinned.iter().map(|v| v.as_str()).collect();
            let (pinned, taking) = (pinned.join(", "), read.nodes.len());
            line += &format!("; pins {pinned} at bucket 0: {taking} of {nodes} nodes");
        }
        line
    }
}

/// Split or plain, from the policy and the query alone: split by body atom
/// exactly when the policy is a Hypercube built for `query` whose split
/// exists (see `HypercubePolicy::split_for`).
pub(crate) fn split_of<'p, P>(policy: &'p P, query: &ConjunctiveQuery) -> Option<&'p AtomSplit>
where
    P: DistributionPolicy + ?Sized,
{
    policy.as_hypercube()?.split_for(query)
}

impl fmt::Display for RunPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (queries, rounds) = (self.queries.len(), self.rounds);
        let feedback = self.feedback.map_or("none".to_string(), |r| r.to_string());
        writeln!(
            f,
            "{queries} query(s), at most {rounds} round(s) each, feedback {feedback}; \
             left to the data: the anchor's run converged"
        )?;
        let range = |a: usize, b: usize| match b > a {
            true => format!("rounds {a}-{b}"),
            false => format!("round {a}"),
        };
        for (index, query) in self.queries.iter().enumerate() {
            writeln!(f, "query {index}: {}", query.query)?;
            if let Some(claim) = &query.elide {
                let anchor = self.queries[claim.anchor].slots.last();
                let nodes = anchor.map_or(0, |slot| slot.policy.network().len());
                writeln!(f, "  elide: {}", claim.display(nodes))?;
            }
            // An elided query's slots run only as the fallback.
            let fallback = match query.elides() {
                true => "if the anchor did not converge: ",
                false => "",
            };
            for slot in &query.slots {
                let first = slot.first_round;
                let last = if first + 1 < query.slots.len() {
                    first
                } else {
                    rounds - 1
                };
                let how = match self.feedback {
                    None => "full chunks".to_string(),
                    Some(_) if last > first => {
                        format!("reset at round {first}, delta {}", range(first + 1, last))
                    }
                    Some(_) => format!("reset at round {first}"),
                };
                let split = match (slot.parts(), self.feedback) {
                    (0, _) => String::new(),
                    (parts, None) => format!(" split into {parts} atom parts"),
                    (parts, Some(_)) => format!(", split into {parts} atom parts"),
                };
                let nodes = slot.policy.network().len();
                writeln!(
                    f,
                    "  {fallback}{}: entry {first} ({nodes} nodes), {how}{split}",
                    range(first, last)
                )?;
            }
        }
        Ok(())
    }
}
