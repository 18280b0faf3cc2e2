//! The run plan: every decision of a run, made before the first reshuffle.
//!
//! Parallel-correctness (Definition 3.1), transferability (Definition 4.1)
//! and the Hypercube results (Lemma 5.7) are properties of queries and
//! policies, not of the instance. So [`MultiRoundEngine::plan`] builds a
//! [`RunPlan`] from the queries, the schedule, the feedback relation and
//! the round cap alone, asking the transfer oracle every question under one
//! `plan` span, and the round loop only carries it out. Per query it holds
//! the **elision claim** — the oracle's verdict on the previous query,
//! asked only without feedback (which renames the resident facts) and with
//! `reshuffle_always` off — and one [`Slot`] per schedule entry the round
//! cap reaches. Two guards stay with the data: a `yes` elides the reshuffle
//! only if the run that last reshuffled **converged** and left a
//! **non-empty resident set**.
//!
//! [`MultiRoundEngine::plan`]: crate::MultiRoundEngine::plan

use std::fmt;

use cq::{ConjunctiveQuery, Symbol};

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

/// The plan of one query of a run.
pub struct QueryPlan<'p> {
    /// The query.
    pub query: ConjunctiveQuery,
    /// Whether parallel-correctness transfers from the previous query, or
    /// `None` where elision is impossible without data.
    pub elide: Option<bool>,
    /// One slot per schedule entry the round cap reaches, in round order.
    pub slots: Vec<Slot<'p>>,
}

impl<'p> QueryPlan<'p> {
    /// The slot that round `round` runs in: the last one repeats.
    pub fn slot(&self, round: usize) -> &Slot<'p> {
        &self.slots[round.min(self.slots.len() - 1)]
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
             left to the data: converged, resident set non-empty"
        )?;
        let range = |a: usize, b: usize| match b > a {
            true => format!("rounds {a}-{b}"),
            false => format!("round {a}"),
        };
        for (index, query) in self.queries.iter().enumerate() {
            writeln!(f, "query {index}: {}", query.query)?;
            if let Some(transfers) = query.elide {
                let verdict = if transfers {
                    "yes, transfers"
                } else {
                    "no, does not transfer"
                };
                writeln!(f, "  elide: {verdict} from query {}", index - 1)?;
            }
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
                    "  {}: entry {first} ({nodes} nodes), {how}{split}",
                    range(first, last)
                )?;
            }
        }
        Ok(())
    }
}
