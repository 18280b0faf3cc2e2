//! The metrics half: named [`Counter`]s and [`Histogram`]s behind a
//! [`Registry`].
//!
//! A registry is an *instance*, not a process global: each transport or
//! engine owns one (usually behind an [`Arc`]), hands counter handles to
//! the components it instruments, and reads them back for reports. Two
//! engines running side by side — the normal situation under `cargo
//! test` — therefore never pollute each other's counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared monotonically-increasing counter. Cloning yields another
/// handle onto the same underlying value, so a component can hold the
/// handle while the registry (and its reports) read the same number —
/// one source of truth.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere — for components that work
    /// standalone but can be handed registry-backed handles instead.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How many samples a histogram retains for quantile estimation. Beyond
/// this, the reservoir becomes a ring over the most recent samples —
/// `count`/`sum`/`min`/`max` stay exact over everything ever recorded,
/// the quantiles describe the trailing window.
const RESERVOIR_CAPACITY: usize = 4096;

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Retained samples for quantiles: a ring buffer over the most recent
    /// [`RESERVOIR_CAPACITY`] recordings (see the constant's docs).
    samples: Mutex<Vec<u64>>,
    /// Ring cursor into `samples` once the reservoir is full.
    cursor: AtomicU64,
}

/// A shared histogram: count/sum/min/max behind four lock-free atomics
/// (exact over every sample), plus a bounded reservoir of recent samples
/// behind a mutex so snapshots can report p50/p90/p99 quantiles.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

/// A point-in-time reading of a [`Histogram`].
///
/// The quantiles are nearest-rank over the retained reservoir (the most
/// recent ≤ 4096 samples); with fewer recordings than that capacity they
/// are exact. An empty histogram reads all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median of the retained samples.
    pub p50: u64,
    /// 90th percentile of the retained samples.
    pub p90: u64,
    /// 99th percentile of the retained samples.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
            cursor: AtomicU64::new(0),
        }))
    }
}

/// Nearest-rank quantile (lower interpolation) over a sorted non-empty
/// slice: `p` in percent.
fn quantile(sorted: &[u64], p: u64) -> u64 {
    let index = (sorted.len() as u64 - 1) * p / 100;
    sorted[index as usize]
}

impl Histogram {
    /// A histogram not registered anywhere.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
        let mut samples = inner.samples.lock().expect("histogram reservoir poisoned");
        if samples.len() < RESERVOIR_CAPACITY {
            samples.push(value);
        } else {
            let at = inner.cursor.fetch_add(1, Ordering::Relaxed) as usize;
            samples[at % RESERVOIR_CAPACITY] = value;
        }
    }

    /// The current count/sum/min/max plus reservoir quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        Histogram::merged_snapshot(std::slice::from_ref(self))
    }

    /// One snapshot of several histograms read as one: count, sum, min and
    /// max exact over every sample of every histogram, the quantiles
    /// nearest-rank over the union of their reservoirs.
    pub fn merged_snapshot(histograms: &[Histogram]) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot {
            min: u64::MAX,
            ..HistogramSnapshot::default()
        };
        let mut sorted = Vec::new();
        for histogram in histograms {
            let inner = &histogram.0;
            merged.count += inner.count.load(Ordering::Relaxed);
            merged.sum = merged.sum.wrapping_add(inner.sum.load(Ordering::Relaxed));
            merged.min = merged.min.min(inner.min.load(Ordering::Relaxed));
            merged.max = merged.max.max(inner.max.load(Ordering::Relaxed));
            sorted.extend_from_slice(&inner.samples.lock().expect("histogram reservoir poisoned"));
        }
        if merged.count == 0 {
            merged.min = 0;
        }
        if !sorted.is_empty() {
            sorted.sort_unstable();
            merged.p50 = quantile(&sorted, 50);
            merged.p90 = quantile(&sorted, 90);
            merged.p99 = quantile(&sorted, 99);
        }
        merged
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.snapshot().mean()
    }
}

/// A named collection of counters and histograms. `counter(name)`
/// returns the existing handle when the name is already registered, so
/// every component asking for `"index_cache_hits"` shares one value.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use. The returned handle stays live after the registry is gone.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().expect("metrics registry poisoned");
        counters.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, creating it empty on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.histograms.lock().expect("metrics registry poisoned");
        histograms.entry(name.to_string()).or_default().clone()
    }

    /// Current value of the counter under `name` (0 when absent — an
    /// unregistered counter has never been incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        let counters = self.counters.lock().expect("metrics registry poisoned");
        counters.get(name).map(Counter::get).unwrap_or(0)
    }

    /// A snapshot of every counter, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let counters = self.counters.lock().expect("metrics registry poisoned");
        counters
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// A snapshot of every histogram, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        Registry::merged_histograms(&[self])
    }

    /// A snapshot of every histogram of `registries`, sorted by name; the
    /// histograms sharing a name are read as one
    /// ([`Histogram::merged_snapshot`]).
    pub fn merged_histograms(registries: &[&Registry]) -> BTreeMap<String, HistogramSnapshot> {
        let mut named: BTreeMap<String, Vec<Histogram>> = BTreeMap::new();
        for registry in registries {
            let histograms = registry
                .histograms
                .lock()
                .expect("metrics registry poisoned");
            for (name, histogram) in histograms.iter() {
                named
                    .entry(name.clone())
                    .or_default()
                    .push(histogram.clone());
            }
        }
        named
            .into_iter()
            .map(|(name, histograms)| (name, Histogram::merged_snapshot(&histograms)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_value() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter_value("hits"), 3);
        assert_eq!(a.get(), 3);
        assert_eq!(registry.counter_value("absent"), 0);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let registry = Registry::new();
        let h = registry.histogram("wait_us");
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(10);
        h.record(4);
        h.record(7);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 21);
        assert_eq!(snap.min, 4);
        assert_eq!(snap.max, 10);
        assert_eq!(h.mean(), 7);
    }

    #[test]
    fn quantiles_use_nearest_rank_over_all_samples() {
        let h = Histogram::detached();
        for value in 1..=100 {
            h.record(value);
        }
        let snap = h.snapshot();
        // (len - 1) * p / 100 over the sorted values 1..=100.
        assert_eq!(snap.p50, 50);
        assert_eq!(snap.p90, 90);
        assert_eq!(snap.p99, 99);
        assert_eq!(snap.max, 100);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.max);
    }

    #[test]
    fn quantiles_of_single_sample_collapse_to_it() {
        let h = Histogram::detached();
        h.record(42);
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p90, snap.p99), (42, 42, 42));
    }

    #[test]
    fn reservoir_keeps_only_recent_samples_but_exact_totals() {
        let h = Histogram::detached();
        // Overfill the reservoir: the first RESERVOIR_CAPACITY zeros are
        // overwritten by the trailing ones, so quantiles see only ones
        // while count/sum stay exact.
        for _ in 0..RESERVOIR_CAPACITY {
            h.record(0);
        }
        for _ in 0..RESERVOIR_CAPACITY {
            h.record(1);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 2 * RESERVOIR_CAPACITY as u64);
        assert_eq!(snap.sum, RESERVOIR_CAPACITY as u64);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.p50, 1);
        assert_eq!(snap.p99, 1);
    }

    #[test]
    fn same_named_histograms_merge_exactly_and_pool_their_reservoirs() {
        let (a, b) = (Registry::new(), Registry::new());
        for value in [3, 1, 2] {
            a.histogram("lat_us").record(value);
        }
        for value in [20, 10] {
            b.histogram("lat_us").record(value);
        }
        b.histogram("only_b").record(7);
        let merged = Registry::merged_histograms(&[&a, &b]);
        // count, sum, min, max over all five; quantiles over 1 2 3 10 20
        let expected = HistogramSnapshot {
            count: 5,
            sum: 36,
            min: 1,
            max: 20,
            p50: 3,
            p90: 10,
            p99: 10,
        };
        assert_eq!(merged["lat_us"], expected);
        assert_eq!(merged["only_b"], b.histograms()["only_b"]);
        // an empty histogram adds nothing, and a lone one is its snapshot
        a.histogram("empty");
        let h = a.histogram("lat_us");
        assert_eq!(
            Histogram::merged_snapshot(&[h.clone(), Histogram::detached()]),
            h.snapshot()
        );
        assert_eq!(
            Registry::merged_histograms(&[&a])["empty"],
            HistogramSnapshot::default()
        );
    }

    #[test]
    fn registries_are_isolated_instances() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("n").inc();
        assert_eq!(a.counter_value("n"), 1);
        assert_eq!(b.counter_value("n"), 0);
    }

    #[test]
    fn snapshots_list_everything_by_name() {
        let registry = Registry::new();
        registry.counter("b").add(2);
        registry.counter("a").inc();
        registry.histogram("h").record(5);
        let counters = registry.counters();
        assert_eq!(
            counters.keys().collect::<Vec<_>>(),
            vec![&"a".to_string(), &"b".to_string()]
        );
        assert_eq!(counters["a"], 1);
        assert_eq!(registry.histograms()["h"].sum, 5);
    }

    #[test]
    fn counters_survive_concurrent_increments() {
        let registry = Registry::new();
        let counter = registry.counter("races");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.counter_value("races"), 4000);
    }
}
