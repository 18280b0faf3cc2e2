//! Phase-level comparison of two trace summaries — the analysis behind
//! `pcq-analyze trace diff <base.json> <new.json>`.
//!
//! The diff aligns the *attributed* rollups of two traced runs: per-phase
//! totals (did `window_wait` grow?), per-round critical-path durations
//! (which round got slower?), and per-process wall clocks. A phase whose
//! total grows past the threshold is a regression; round regressions carry
//! a cause line naming the phases that grew versus stayed flat, so the
//! report reads "round 3 +38%: window_wait grew 5.1x, eval flat" rather
//! than just "slower".
//!
//! Noise control: phases below `min_us` in **both** runs are ignored —
//! micro-phases jitter by large ratios without mattering. The gate is
//! deliberately one-sided (improvements never fail a diff).

use std::collections::BTreeSet;
use std::fmt;

use crate::json::JsonValue;
use crate::trace::process_label;
use crate::trace_export::{format_us, TraceSummary};

/// Knobs for [`diff_summaries`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// A phase (or round) counts as regressed when it grows by more than
    /// this percentage.
    pub threshold_pct: f64,
    /// Ignore phases below this total in both runs — ratios over
    /// microsecond noise are meaningless.
    pub min_us: u64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold_pct: 25.0,
            min_us: 1_000,
        }
    }
}

/// Growth of `new` over `base` in percent (`None` when `base` is zero —
/// a phase that appeared from nothing has no meaningful ratio).
fn change_pct(base: u64, new: u64) -> Option<f64> {
    (base > 0).then(|| (new as f64 - base as f64) * 100.0 / base as f64)
}

/// A change in percent as JSON: one decimal, `null` when there is none.
fn pct_json(pct: Option<f64>) -> JsonValue {
    pct.map_or(JsonValue::Null, |pct| JsonValue::fixed(pct, 1))
}

/// Renders a change as `+38.2%` / `-12.0%` / `new` / `0%`.
fn format_change(base: u64, new: u64) -> String {
    match change_pct(base, new) {
        Some(pct) => format!("{pct:+.1}%"),
        None if new > 0 => "new".to_string(),
        None => "0%".to_string(),
    }
}

/// One span name compared across the two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDelta {
    /// Span name.
    pub name: String,
    /// Total microseconds in the base run.
    pub base_total_us: u64,
    /// Total microseconds in the new run.
    pub new_total_us: u64,
    /// Span count in the base run.
    pub base_count: u64,
    /// Span count in the new run.
    pub new_count: u64,
    /// Growth in percent (`None` when absent from the base run).
    pub change_pct: Option<f64>,
    /// Whether this phase trips the regression gate.
    pub regressed: bool,
}

/// One critical-path round compared across the two runs (aligned by
/// round number; a round present in only one run has `None` on the
/// other side).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundDelta {
    /// Round number.
    pub round: u64,
    /// Duration in the base run.
    pub base_dur_us: Option<u64>,
    /// Duration in the new run.
    pub new_dur_us: Option<u64>,
    /// Growth in percent when present in both runs with nonzero base.
    pub change_pct: Option<f64>,
    /// Whether this round trips the regression gate.
    pub regressed: bool,
}

/// One process lane's wall clock compared across the two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessDelta {
    /// Lane label (`coordinator`, `worker 0`, …).
    pub label: String,
    /// Wall-clock extent in the base run.
    pub base_wall_us: u64,
    /// Wall-clock extent in the new run.
    pub new_wall_us: u64,
    /// Growth in percent.
    pub change_pct: Option<f64>,
}

/// The full comparison: aligned rollups plus the regression verdicts.
#[derive(Clone, Debug, Default)]
pub struct TraceDiff {
    /// Every phase seen in either run, ordered by name.
    pub phases: Vec<PhaseDelta>,
    /// Every critical-path round seen in either run, ordered by number.
    pub rounds: Vec<RoundDelta>,
    /// Every process lane seen in either run.
    pub processes: Vec<ProcessDelta>,
    /// Human-readable regression lines (with causes); empty means the
    /// diff is clean.
    pub regressions: Vec<String>,
    /// Dropped events across both inputs — nonzero means the comparison
    /// runs on incomplete timelines.
    pub dropped_events: u64,
    /// The threshold the verdicts used.
    pub threshold_pct: f64,
}

impl TraceDiff {
    /// True when no phase or round regressed past the threshold.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the diff as a JSON document (for `--json`).
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    JsonValue::object([
                        ("base_total_us", JsonValue::from(p.base_total_us)),
                        ("new_total_us", JsonValue::from(p.new_total_us)),
                        ("base_count", JsonValue::from(p.base_count)),
                        ("new_count", JsonValue::from(p.new_count)),
                        ("change_pct", pct_json(p.change_pct)),
                        ("regressed", JsonValue::from(p.regressed)),
                    ]),
                )
            })
            .collect();
        let rounds = self
            .rounds
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("round", JsonValue::from(r.round)),
                    ("base_dur_us", JsonValue::from(r.base_dur_us)),
                    ("new_dur_us", JsonValue::from(r.new_dur_us)),
                    ("change_pct", pct_json(r.change_pct)),
                    ("regressed", JsonValue::from(r.regressed)),
                ])
            })
            .collect();
        let processes = self
            .processes
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    JsonValue::object([
                        ("base_wall_us", JsonValue::from(p.base_wall_us)),
                        ("new_wall_us", JsonValue::from(p.new_wall_us)),
                        ("change_pct", pct_json(p.change_pct)),
                    ]),
                )
            })
            .collect();
        JsonValue::object([
            ("clean", JsonValue::from(self.clean())),
            ("threshold_pct", JsonValue::fixed(self.threshold_pct, 1)),
            ("dropped_events", JsonValue::from(self.dropped_events)),
            (
                "regressions",
                JsonValue::array(self.regressions.iter().map(|line| line.as_str().into())),
            ),
            ("phases", JsonValue::Object(phases)),
            ("rounds", JsonValue::Array(rounds)),
            ("processes", JsonValue::Object(processes)),
        ])
    }
}

/// The one-sided regression gate shared by phases and rounds.
fn regresses(base: u64, new: u64, options: &DiffOptions) -> bool {
    if base < options.min_us && new < options.min_us {
        return false;
    }
    match change_pct(base, new) {
        Some(pct) => pct > options.threshold_pct,
        // Appeared from nothing: only meaningful when the new total
        // clears the noise floor on its own.
        None => new >= options.min_us,
    }
}

/// Why things got slower: the phases that grew the most (by absolute
/// microseconds), contrasted with the biggest phase that stayed flat.
fn cause_line(phases: &[PhaseDelta], options: &DiffOptions) -> String {
    let mut growers: Vec<&PhaseDelta> = phases
        .iter()
        .filter(|p| p.regressed && p.new_total_us > p.base_total_us)
        .collect();
    growers.sort_by_key(|p| std::cmp::Reverse(p.new_total_us - p.base_total_us));
    let mut parts: Vec<String> = growers
        .iter()
        .take(3)
        .map(|p| {
            let growth = match p.base_total_us {
                0 => "appeared".to_string(),
                base => format!("grew {:.1}x", p.new_total_us as f64 / base as f64),
            };
            format!(
                "{} {} (+{})",
                p.name,
                growth,
                format_us(p.new_total_us - p.base_total_us)
            )
        })
        .collect();
    // The biggest phase that did NOT regress, as contrast ("eval flat").
    if let Some(flat) = phases
        .iter()
        .filter(|p| !p.regressed && p.base_total_us >= options.min_us)
        .max_by_key(|p| p.base_total_us)
    {
        parts.push(format!("{} flat", flat.name));
    }
    parts.join(", ")
}

/// Compares two summaries under the given options.
pub fn diff_summaries(base: &TraceSummary, new: &TraceSummary, options: DiffOptions) -> TraceDiff {
    let mut diff = TraceDiff {
        dropped_events: base.dropped_events + new.dropped_events,
        threshold_pct: options.threshold_pct,
        ..TraceDiff::default()
    };

    let names: BTreeSet<&String> = base.phases.keys().chain(new.phases.keys()).collect();
    for name in names {
        let b = base.phases.get(name).cloned().unwrap_or_default();
        let n = new.phases.get(name).cloned().unwrap_or_default();
        diff.phases.push(PhaseDelta {
            name: name.clone(),
            base_total_us: b.total_us,
            new_total_us: n.total_us,
            base_count: b.count,
            new_count: n.count,
            change_pct: change_pct(b.total_us, n.total_us),
            regressed: regresses(b.total_us, n.total_us, &options),
        });
    }

    let round_numbers: BTreeSet<u64> = base
        .rounds
        .iter()
        .chain(new.rounds.iter())
        .map(|r| r.round)
        .collect();
    for round in round_numbers {
        // Rounds repeat per query in multi-query scenarios; summing per
        // number keeps the alignment stable either way.
        let total = |summary: &TraceSummary| -> Option<u64> {
            let rounds: Vec<u64> = summary
                .rounds
                .iter()
                .filter(|r| r.round == round)
                .map(|r| r.dur_us)
                .collect();
            (!rounds.is_empty()).then(|| rounds.iter().sum())
        };
        let b = total(base);
        let n = total(new);
        diff.rounds.push(RoundDelta {
            round,
            base_dur_us: b,
            new_dur_us: n,
            change_pct: change_pct(b.unwrap_or(0), n.unwrap_or(0)),
            regressed: match (b, n) {
                (Some(b), Some(n)) => regresses(b, n, &options),
                // A round present on only one side reflects different
                // convergence, not a latency regression.
                _ => false,
            },
        });
    }

    let pids: BTreeSet<u32> = base
        .processes
        .keys()
        .chain(new.processes.keys())
        .copied()
        .collect();
    for pid in pids {
        let b = base.processes.get(&pid).cloned().unwrap_or_default();
        let n = new.processes.get(&pid).cloned().unwrap_or_default();
        diff.processes.push(ProcessDelta {
            label: process_label(pid),
            base_wall_us: b.wall_us,
            new_wall_us: n.wall_us,
            change_pct: change_pct(b.wall_us, n.wall_us),
        });
    }

    let causes = cause_line(&diff.phases, &options);
    for phase in diff.phases.iter().filter(|p| p.regressed) {
        diff.regressions.push(format!(
            "phase {}: {} -> {} ({})",
            phase.name,
            format_us(phase.base_total_us),
            format_us(phase.new_total_us),
            format_change(phase.base_total_us, phase.new_total_us),
        ));
    }
    for round in diff.rounds.iter().filter(|r| r.regressed) {
        let detail = if causes.is_empty() {
            String::new()
        } else {
            format!(": {causes}")
        };
        diff.regressions.push(format!(
            "round {} {} -> {} ({}){}",
            round.round,
            format_us(round.base_dur_us.unwrap_or(0)),
            format_us(round.new_dur_us.unwrap_or(0)),
            format_change(
                round.base_dur_us.unwrap_or(0),
                round.new_dur_us.unwrap_or(0)
            ),
            detail,
        ));
    }
    diff
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped_events > 0 {
            writeln!(
                f,
                "WARNING: {} events dropped across inputs — totals are lower bounds",
                self.dropped_events
            )?;
        }
        writeln!(f, "phases:")?;
        let mut phases: Vec<&PhaseDelta> = self.phases.iter().collect();
        phases.sort_by(|a, b| {
            b.new_total_us
                .max(b.base_total_us)
                .cmp(&a.new_total_us.max(a.base_total_us))
                .then(a.name.cmp(&b.name))
        });
        for p in phases {
            writeln!(
                f,
                "  {:<22} {:>10} -> {:>10}  {:>8}{}",
                p.name,
                format_us(p.base_total_us),
                format_us(p.new_total_us),
                format_change(p.base_total_us, p.new_total_us),
                if p.regressed { "  REGRESSED" } else { "" },
            )?;
        }
        if !self.rounds.is_empty() {
            writeln!(f, "\nrounds:")?;
            for r in &self.rounds {
                let side = |v: Option<u64>| match v {
                    Some(us) => format_us(us),
                    None => "-".to_string(),
                };
                writeln!(
                    f,
                    "  round {:<4} {:>10} -> {:>10}  {:>8}{}",
                    r.round,
                    side(r.base_dur_us),
                    side(r.new_dur_us),
                    format_change(r.base_dur_us.unwrap_or(0), r.new_dur_us.unwrap_or(0)),
                    if r.regressed { "  REGRESSED" } else { "" },
                )?;
            }
        }
        if !self.processes.is_empty() {
            writeln!(f, "\nprocesses (wall clock):")?;
            for p in &self.processes {
                writeln!(
                    f,
                    "  {:<14} {:>10} -> {:>10}  {:>8}",
                    p.label,
                    format_us(p.base_wall_us),
                    format_us(p.new_wall_us),
                    format_change(p.base_wall_us, p.new_wall_us),
                )?;
            }
        }
        writeln!(f)?;
        if self.clean() {
            writeln!(
                f,
                "clean: no phase grew more than {:.0}%",
                self.threshold_pct
            )?;
        } else {
            for line in &self.regressions {
                writeln!(f, "REGRESSION {line}")?;
            }
            writeln!(
                f,
                "{} regression(s) past the {:.0}% threshold",
                self.regressions.len(),
                self.threshold_pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_export::{PhaseStats, RoundStats};

    fn summary(phases: &[(&str, u64, u64)], rounds: &[(u64, u64)]) -> TraceSummary {
        let mut s = TraceSummary::default();
        for (name, count, total) in phases {
            s.phases.insert(
                name.to_string(),
                PhaseStats {
                    count: *count,
                    total_us: *total,
                    min_us: 0,
                    max_us: *total,
                    self_us: *total,
                },
            );
        }
        for (round, dur) in rounds {
            s.rounds.push(RoundStats {
                round: *round,
                dur_us: *dur,
            });
        }
        s
    }

    #[test]
    fn identical_summaries_diff_clean() {
        let s = summary(&[("eval_round", 3, 30_000)], &[(0, 10_000), (1, 20_000)]);
        let diff = diff_summaries(&s, &s.clone(), DiffOptions::default());
        assert!(diff.clean(), "{:?}", diff.regressions);
        assert!(diff.to_string().contains("clean"));
    }

    #[test]
    fn grown_phase_regresses_with_cause() {
        let base = summary(
            &[("window_wait", 4, 2_000), ("eval_chunk", 4, 40_000)],
            &[(0, 42_000)],
        );
        let new = summary(
            &[("window_wait", 4, 10_200), ("eval_chunk", 4, 40_100)],
            &[(0, 60_300)],
        );
        let diff = diff_summaries(&base, &new, DiffOptions::default());
        assert!(!diff.clean());
        let text = diff.to_string();
        assert!(text.contains("REGRESSION phase window_wait"), "{text}");
        // The round regression names the grower and the flat phase.
        let round_line = diff
            .regressions
            .iter()
            .find(|l| l.starts_with("round 0"))
            .expect("round regression");
        assert!(round_line.contains("window_wait grew 5.1x"), "{round_line}");
        assert!(round_line.contains("eval_chunk flat"), "{round_line}");
    }

    #[test]
    fn improvements_and_noise_stay_clean() {
        // A big improvement and a tiny-phase blowup (under min_us in
        // both runs) are both fine.
        let base = summary(&[("eval_chunk", 4, 100_000), ("requeue_wait", 1, 10)], &[]);
        let new = summary(&[("eval_chunk", 4, 50_000), ("requeue_wait", 1, 900)], &[]);
        let diff = diff_summaries(&base, &new, DiffOptions::default());
        assert!(diff.clean(), "{:?}", diff.regressions);
    }

    #[test]
    fn phase_appearing_from_nothing_regresses_when_large() {
        let base = summary(&[("eval_chunk", 4, 50_000)], &[]);
        let new = summary(
            &[("eval_chunk", 4, 50_000), ("state_rebuild", 2, 30_000)],
            &[],
        );
        let diff = diff_summaries(&base, &new, DiffOptions::default());
        assert_eq!(diff.regressions.len(), 1);
        assert!(
            diff.regressions[0].contains("state_rebuild"),
            "{:?}",
            diff.regressions
        );
        assert!(
            diff.regressions[0].contains("new"),
            "{:?}",
            diff.regressions
        );
    }

    #[test]
    fn rounds_missing_on_one_side_do_not_regress() {
        let base = summary(&[], &[(0, 10_000)]);
        let new = summary(&[], &[(0, 10_000), (1, 50_000)]);
        let diff = diff_summaries(&base, &new, DiffOptions::default());
        assert!(diff.clean());
        assert_eq!(diff.rounds.len(), 2);
        assert_eq!(diff.rounds[1].base_dur_us, None);
    }

    #[test]
    fn threshold_is_respected() {
        let base = summary(&[("eval_chunk", 4, 100_000)], &[]);
        let new = summary(&[("eval_chunk", 4, 130_000)], &[]);
        let strict = DiffOptions {
            threshold_pct: 25.0,
            ..DiffOptions::default()
        };
        let lax = DiffOptions {
            threshold_pct: 50.0,
            ..DiffOptions::default()
        };
        assert!(!diff_summaries(&base, &new, strict).clean());
        assert!(diff_summaries(&base, &new, lax).clean());
    }

    #[test]
    fn json_rendering_parses_back() {
        let base = summary(&[("eval_chunk", 4, 100_000)], &[(0, 100_000)]);
        let new = summary(&[("eval_chunk", 4, 200_000)], &[(0, 200_000)]);
        let diff = diff_summaries(&base, &new, DiffOptions::default());
        let doc = JsonValue::parse(&diff.to_json().to_string()).unwrap();
        assert_eq!(doc.get("clean").cloned(), Some(JsonValue::Bool(false)));
        assert!(doc
            .get("regressions")
            .and_then(JsonValue::as_array)
            .is_some_and(|r| !r.is_empty()));
    }
}
