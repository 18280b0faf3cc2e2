//! Median, quartile and quiet-machine arithmetic for the reported metrics.

/// The median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What `values` — times of the same work, repeated — read on a quiet
/// machine: the third-smallest (the second of fewer than eight, the first
/// of fewer than four).
///
/// The reference VM shares its host. For minutes at a stretch neighbours
/// slow cache-heavy work by 1.3-2x, in bursts that outlast a run, and the
/// run's median moves with them: 20-27 % between runs of the same code.
/// Disturbance only ever adds time, so the low end of a run's ops is what
/// the program itself costs; it moves 5-10 % in the same hours. The two
/// smallest are left out because an op can read low by mistake (a turbo
/// burst that began and ended inside it, unseen by the clock samples
/// around it — see `clock`): about three runs in a hundred had such an
/// op, 8-10 % below the next.
pub fn quiet(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() / 4).min(2)]
}

/// First and third quartile by the exclusive method — the same numbers as
/// Python's `statistics.quantiles(values, n=4)`, which the benchmark
/// contract measures run-to-run spread with. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        // position quarter*(n+1)/4 in 1-based ranks, clamped to the data
        let rank = (quarter * (n + 1)) as f64 / 4.0;
        let below = (rank.floor() as usize).clamp(1, n - 1);
        let frac = rank - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_is_the_third_smallest() {
        assert_eq!(quiet(&[5.0, 3.0, 9.0, 1.0, 4.0, 8.0, 7.0, 6.0, 2.0]), 3.0);
        assert_eq!(quiet(&[5.0, 3.0, 9.0, 1.0, 4.0, 8.0, 7.0, 6.0]), 4.0);
        // too few to leave two out
        assert_eq!(quiet(&[5.0, 3.0, 9.0, 1.0, 4.0]), 3.0);
        assert_eq!(quiet(&[2.0, 7.0, 1.0]), 1.0);
        assert_eq!(quiet(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // two samples extrapolate like Python: [1, 2] -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
