//! The five named workloads and their seeded input generators.
//!
//! Every input is a function of `--seed` alone, drawn from the SplitMix64
//! generator below — not from the repo's vendored `rand`, so a change to
//! program code can never change the inputs. The generators write facts,
//! query, scenario and policy files under `benchmark/out/inputs/`; the
//! program only ever sees those files.
//!
//! Sizes are chosen so one op takes a few tenths of a second: a run of
//! `--seconds` then holds dozens of ops and finds quiet ones among them. Each
//! generator keeps the *amount of work* nearly independent of the seed
//! (regular degrees instead of uniform edges, a fixed round count, balanced
//! buckets — each choice is explained where it is made), because the
//! contract compares runs made with different seeds: with uniform random
//! inputs `wall_s` moved 4-16 % from seed to seed, against 2 % between
//! runs of one seed.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pcq::logic::{Clause, Dnf, Literal, Pi3Qbf};

/// Workers (and so threads/processes) per op: `nproc` is 2 on the
/// reference box, and an op must never use more.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TriOneroundMem,
    SparseOneroundProc,
    ClosureSeminaiveProc,
    RelaxMultiquerySock,
    DecidePcTransfer,
}

pub const ALL: [Workload; 5] = [
    Workload::TriOneroundMem,
    Workload::SparseOneroundProc,
    Workload::ClosureSeminaiveProc,
    Workload::RelaxMultiquerySock,
    Workload::DecidePcTransfer,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TriOneroundMem => "tri_oneround_mem",
            Workload::SparseOneroundProc => "sparse_oneround_proc",
            Workload::ClosureSeminaiveProc => "closure_seminaive_proc",
            Workload::RelaxMultiquerySock => "relax_multiquery_sock",
            Workload::DecidePcTransfer => "decide_pc_transfer",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the same sentence `BENCHMARK.json` carries
    /// (a self-test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TriOneroundMem => {
                "cyclic triangle query, one round in memory: worst-case-optimal multiway join, \
                 distribute and centralized verify do the work, wire does none - the bypass for \
                 every wire change"
            }
            Workload::SparseOneroundProc => {
                "acyclic 2-atom join with a Zipf join column over worker processes: little join \
                 work, so text parse, distribute, encode/frame/decode and skewed load dominate; \
                 binary join path"
            }
            Workload::ClosureSeminaiveProc => {
                "semi-naive transitive closure with feedback over worker processes: many small \
                 delta frames, resident worker state, per-round barriers, and a reference \
                 fixpoint verify as costly as the run"
            }
            Workload::RelaxMultiquerySock => {
                "relax query family over TCP sockets: transferability consulted at runtime, one \
                 reshuffle elided and one refused, resident shards - distribution and wire used \
                 a third way"
            }
            Workload::DecidePcTransfer => {
                "the paper's decision procedures as CLI calls (pc yes, pc NO, transfer on a QBF \
                 pair): valuation and homomorphism enumeration, no distribution or wire - must \
                 not move when those change"
            }
        }
    }
}

/// SplitMix64: tiny, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input sizes of every workload. `full` is what the numbers in PERF.md
/// and the baseline are measured on; `quick` is about 20× less work per
/// op, for smoke runs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// tri: a random digraph over this many values with this in- and
    /// out-degree.
    pub tri_values: usize,
    pub tri_degree: usize,
    /// sparse: facts in each of R and S (and values of the join column).
    pub sparse_facts: usize,
    /// closure: vertices on the path, and skip-one chords added to it.
    pub closure_vertices: usize,
    pub closure_chords: usize,
    /// relax: a random digraph over this many values with this degree
    /// (every third value also gets a self-loop).
    pub relax_values: usize,
    pub relax_degree: usize,
    /// decide: values of the complete binary relation the pc-yes policy
    /// covers (the 3-chain has `values⁴` candidate valuations); the pc-NO
    /// policy covers half as many.
    pub decide_values: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            tri_values: 200,
            tri_degree: 30,
            sparse_facts: 20_000,
            closure_vertices: 128,
            closure_chords: 64,
            relax_values: 200,
            relax_degree: 12,
            decide_values: 16,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            tri_values: 70,
            tri_degree: 11,
            sparse_facts: 1_000,
            closure_vertices: 40,
            closure_chords: 20,
            relax_values: 60,
            relax_degree: 4,
            decide_values: 8,
        }
    }
}

/// The generated files of one workload, as the CLI and the probes need
/// them.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// `run <query> hypercube:<budget> <facts> --transport <transport>`.
    OneRound {
        query: PathBuf,
        budget: usize,
        facts: PathBuf,
        transport: &'static str,
    },
    /// `run --scenario <scenario> --transport <transport> [--semi-naive]`.
    Scenario {
        scenario: PathBuf,
        transport: &'static str,
        semi_naive: bool,
    },
    /// `pc <query> <policy_yes>`, `pc <query> <policy_no>`,
    /// `transfer <from> <to>`.
    Decide {
        query: PathBuf,
        policy_yes: PathBuf,
        policy_no: PathBuf,
        from: PathBuf,
        to: PathBuf,
        /// The QBF's truth value as `logic` decides it, which is the
        /// expected transfer verdict (Proposition C.6).
        transfers: bool,
    },
}

const TRIANGLE: &str = "T(x, y, z) :- E(x, y), E(y, z), E(z, x).";
const TWO_PATH_JOIN: &str = "T(x, y, z) :- R(x, y), S(y, z).";
const TWO_PATH: &str = "T(x, z) :- R(x, y), R(y, z).";
const TWO_PATH_LOOP: &str = "T(x, z) :- R(x, y), R(y, z), R(y, y).";
const THREE_CHAIN: &str = "T(x, w) :- R(x, y), R(y, z), R(z, w).";

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    std::fs::write(path, text)
}

/// A random digraph in which every vertex has in- and out-degree `degree`
/// (less the few edges two permutations share): the union of `degree`
/// random permutations. Uniformly drawn edges give Poisson degrees, and the
/// join work — a sum of in-degree x out-degree products — then moves
/// several percent from seed to seed.
fn regular_digraph(rng: &mut Rng, vertices: usize, degree: usize) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    let mut targets: Vec<usize> = (0..vertices).collect();
    for _ in 0..degree {
        rng.shuffle(&mut targets);
        edges.extend(targets.iter().copied().enumerate());
    }
    edges
}

fn facts(relation: &str, pairs: &BTreeSet<(usize, usize)>, separator: &str) -> String {
    let mut out = String::new();
    for (a, b) in pairs {
        write!(out, "{relation}(v{a}, v{b}).{separator}").expect("writing to a String");
    }
    out
}

/// Generates `workload`'s input files for `seed` into `dir` (created if
/// missing). The same `(workload, seed, sizes)` always writes the same
/// bytes.
pub fn generate(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    // Decorrelate the workloads' streams without making them share state.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    match workload {
        Workload::TriOneroundMem => {
            let edges = regular_digraph(&mut rng, sizes.tri_values, sizes.tri_degree);
            let (query, facts_path) = (dir.join("triangle.query"), dir.join("edges.facts"));
            write(&query, TRIANGLE)?;
            write(&facts_path, &facts("E", &edges, "\n"))?;
            Ok(Inputs::OneRound {
                query,
                budget: 4,
                facts: facts_path,
                transport: "memory",
            })
        }
        Workload::SparseOneroundProc => {
            // R's join column is a permutation — every value joins exactly
            // once, so the answer has |S| facts whatever the seed; with a
            // uniform column the heavy Zipf values meet 0-3 R-facts and the
            // answer size swings by a sixth.
            let n = sizes.sparse_facts;
            let mut column: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut column);
            let r: BTreeSet<(usize, usize)> = column.iter().map(|&y| (rng.below(n), y)).collect();
            // Zipf(1.1) over the join column: cumulative weights, inverted
            // by binary search.
            let mut cumulative = Vec::with_capacity(n);
            let mut total = 0.0;
            for rank in 1..=n {
                total += (rank as f64).powf(-1.1);
                cumulative.push(total);
            }
            let mut s = BTreeSet::new();
            while s.len() < sizes.sparse_facts {
                let u = rng.unit() * total;
                let y = cumulative.partition_point(|&c| c <= u).min(n - 1);
                s.insert((y, rng.below(4 * n)));
            }
            let (query, facts_path) = (dir.join("join.query"), dir.join("rs.facts"));
            write(&query, TWO_PATH_JOIN)?;
            write(&facts_path, &(facts("R", &r, "\n") + &facts("S", &s, "\n")))?;
            Ok(Inputs::OneRound {
                query,
                budget: 3,
                facts: facts_path,
                transport: "process",
            })
        }
        Workload::ClosureSeminaiveProc => {
            // A path plus random skip-one chords (i -> i+2): the closure is
            // every pair i < j at distance >= 2 whatever the seed, and the
            // longest shortest path stays above half the path, so path
            // doubling needs the same number of rounds. Arbitrary chords
            // shorten the diameter by a seed-dependent amount, and one
            // round more or less moved wall_s by 16 %.
            let n = sizes.closure_vertices;
            let mut edges: BTreeSet<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            while edges.len() < n - 1 + sizes.closure_chords {
                let from = rng.below(n - 2);
                edges.insert((from, from + 2));
            }
            let scenario = dir.join("closure.pcq");
            write(
                &scenario,
                &format!(
                    "query {TWO_PATH}\ninstance {{ {}}}\nschedule hypercube(2)\nrounds 12\nfeedback R\n",
                    facts("R", &edges, " ")
                ),
            )?;
            Ok(Inputs::Scenario {
                scenario,
                transport: "process",
                semi_naive: true,
            })
        }
        Workload::RelaxMultiquerySock => {
            let n = sizes.relax_values;
            let mut edges = regular_digraph(&mut rng, n, sizes.relax_degree);
            edges.extend((0..n).step_by(3).map(|v| (v, v)));
            let scenario = dir.join("relax.pcq");
            write(
                &scenario,
                &format!(
                    "queries {{\n  {TWO_PATH_LOOP}\n  {TWO_PATH}\n  {TWO_PATH_LOOP}\n}}\n\
                     instance {{ {}}}\nschedule hypercube(3)\nrounds 4\n",
                    facts("R", &edges, " ")
                ),
            )?;
            Ok(Inputs::Scenario {
                scenario,
                transport: "socket",
                semi_naive: false,
            })
        }
        Workload::DecidePcTransfer => {
            let query = dir.join("chain3.query");
            write(&query, THREE_CHAIN)?;
            let (policy_yes, policy_no) = (dir.join("cube.policy"), dir.join("broken.policy"));
            write(
                &policy_yes,
                &decide_policy(&mut rng, sizes.decide_values, false),
            )?;
            // The NO search stops at the first violation, wherever the seed
            // put it; over half the values even a late one costs ~1 ms.
            write(
                &policy_no,
                &decide_policy(&mut rng, sizes.decide_values / 2, true),
            )?;

            let qbf = decide_qbf(&mut rng);
            let pair = pcq::reductions::pi3_to_transfer(&qbf);
            let (from, to) = (dir.join("qbf_from.query"), dir.join("qbf_to.query"));
            write(&from, &pair.from.to_string())?;
            write(&to, &pair.to.to_string())?;
            Ok(Inputs::Decide {
                query,
                policy_yes,
                policy_no,
                from,
                to,
                transfers: qbf.is_true(),
            })
        }
    }
}

/// A policy file for the 3-chain `T(x,w) :- R(x,y), R(y,z), R(z,w)` over
/// the complete binary relation on `values` values and four nodes.
///
/// Unbroken it is a hypercube-style policy: a seeded balanced 2-bucket hash
/// `h`, node `(i, j)` holds the valuations with `h(y) = i`, `h(z) = j`, so
/// every valuation's facts meet and the verdict is *yes*. With `broken`, one
/// seeded fact `R(a, b)` is kept only at node `(1-h(b), 1-h(b))`, where
/// `R(b, z)` is absent for every `z` with `h(z) = h(b)`: the valuation
/// `(a, b, z, w)` no longer meets, so the verdict is *NO* by construction.
fn decide_policy(rng: &mut Rng, values: usize, broken: bool) -> String {
    let mut order: Vec<usize> = (0..values).collect();
    rng.shuffle(&mut order);
    let mut h = vec![0usize; values];
    for (position, &value) in order.iter().enumerate() {
        h[value] = position % 2;
    }
    let node = |i: usize, j: usize| 2 * i + j;
    let mut chunks: Vec<BTreeSet<(usize, usize)>> = vec![BTreeSet::new(); 4];
    for a in 0..values {
        for b in 0..values {
            for free in 0..2 {
                chunks[node(h[b], free)].insert((a, b)); // as R(x, y)
                chunks[node(free, h[a])].insert((a, b)); // as R(z, w)
            }
            chunks[node(h[a], h[b])].insert((a, b)); // as R(y, z)
        }
    }
    if broken {
        let a = rng.below(values);
        let b = (a + 1 + rng.below(values - 1)) % values;
        for chunk in &mut chunks {
            chunk.remove(&(a, b));
        }
        chunks[node(1 - h[b], 1 - h[b])].insert((a, b));
    }
    let mut out = String::new();
    for (index, chunk) in chunks.iter().enumerate() {
        let line = facts("R", chunk, " ").replace('.', "");
        writeln!(out, "n{}{}: {}", index / 2, index % 2, line.trim_end())
            .expect("writing to a String");
    }
    out
}

/// A seeded true Π₃-QBF `∀x ∃y ∀z ψ` with `ψ = (x ≡ y)` or `ψ = (x ≡ ¬y)`
/// as a two-term 3-DNF: polarities and term order come from the seed.
///
/// Random matrices (the shape of `logic::random_pi3_qbf(2, 1, 1, 2)`) were
/// tried first and dropped: they are almost always false, and the time to
/// find the counterexample swings 4× with the seed. In this family the
/// two terms disagree on `y`'s polarity, which keeps the decision
/// procedure's work within a few percent across all eight members, and
/// the verdict is *yes*, so the search is exhaustive.
fn decide_qbf(rng: &mut Rng) -> Pi3Qbf {
    let (x_positive, y_positive) = (rng.below(2) == 1, rng.below(2) == 1);
    let term = |x: bool, y: bool| {
        let y = Literal {
            var: 1,
            positive: y,
        };
        Clause::new(vec![
            Literal {
                var: 0,
                positive: x,
            },
            y,
            y,
        ])
    };
    let mut terms = vec![term(x_positive, y_positive), term(!x_positive, !y_positive)];
    if rng.below(2) == 1 {
        terms.reverse();
    }
    Pi3Qbf::new(vec![0], vec![1], vec![2], Dnf::new(3, terms))
}

/// The 1-fact scenario behind the `cli.floor_*` probes: process start,
/// worker spawn, handshake and shutdown with no data to speak of.
pub fn write_floor_scenario(dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("floor.pcq");
    write(
        &path,
        &format!("query {TWO_PATH}\ninstance {{ R(a, b). }}\nschedule hypercube(2)\nrounds 1\n"),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_differs_across_seeds() {
        let root = std::env::temp_dir().join(format!("pcq-benchmark-gen-{}", std::process::id()));
        let sizes = Sizes::quick();
        for workload in ALL {
            let dirs = ["a", "b", "c"].map(|d| root.join(workload.name()).join(d));
            generate(workload, 7, &sizes, &dirs[0]).unwrap();
            generate(workload, 7, &sizes, &dirs[1]).unwrap();
            generate(workload, 8, &sizes, &dirs[2]).unwrap();
            let [a, b, c] = dirs.map(|d| read_all(&d));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{}: same seed, same bytes", workload.name());
            assert_ne!(a, c, "{}: another seed, other inputs", workload.name());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rng_is_uniform_enough_and_stays_in_range() {
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.below(5)] += 1;
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
        for count in counts {
            assert!((9_000..11_000).contains(&count), "{counts:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
