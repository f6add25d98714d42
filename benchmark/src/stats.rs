//! Summaries the report is built from: percentiles that know how many
//! samples back them, the median slice rate, and the paper's two accuracy
//! scores (own copies, so the benchmark does not depend on `deepdb-bench`).

use deepdb::Value;

/// Samples a reported percentile must leave above itself to be trusted.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the picked rank.
    pub beyond: usize,
}

impl Pctl {
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> Pctl {
    assert!(!sorted.is_empty(), "no samples to summarize");
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    Pctl {
        value: sorted[rank],
        samples: sorted.len(),
        beyond: sorted.len() - 1 - rank,
    }
}

/// Median of an unsorted sample (mean of the middle pair when even); 0 when
/// empty, the reading of a lane that had nothing to time.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, minimum and maximum rate over the slices of a phase, each given
/// as (operations finished, seconds from its first start to its last end).
/// Slices no op finished in (a phase cut short) are left out.
pub fn slice_rates(slices: &[(u64, f64)]) -> (f64, f64, f64) {
    let rates: Vec<f64> = slices
        .iter()
        .filter(|(ops, secs)| *ops > 0 && *secs > 0.0)
        .map(|(ops, secs)| *ops as f64 / secs)
        .collect();
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rates.iter().copied().fold(0.0, f64::max);
    (
        median(&rates),
        if rates.is_empty() { 0.0 } else { min },
        max,
    )
}

/// The q-error of an estimate (≥ 1; both sides floored at one tuple).
pub fn qerror(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Relative error `|est − truth| / |truth|` in percent. A zero truth scores
/// 0 when the estimate is zero too and 100 otherwise, so the score stays
/// finite.
pub fn rel_error_pct(estimate: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-12 {
        return if estimate.abs() < 1e-9 { 0.0 } else { 100.0 };
    }
    100.0 * (estimate - truth).abs() / truth.abs()
}

/// Mean per-group relative error in percent as Figures 9/10 score grouped
/// queries: each group capped at 100 %, a group missing from the estimate
/// counts 100 %.
pub fn grouped_rel_error_pct(truth: &[(Vec<Value>, f64)], estimate: &[(Vec<Value>, f64)]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let total: f64 = truth
        .iter()
        .map(|(key, t)| match estimate.iter().find(|(k, _)| k == key) {
            Some((_, e)) => rel_error_pct(*e, *t).min(100.0),
            None => 100.0,
        })
        .sum();
    total / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_samples_beyond_and_honours_the_ten_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!((p95.value, p95.samples, p95.beyond), (95.0, 100, 5));
        assert!(!p95.supported(), "5 samples beyond p95 of 100 is too few");
        let p50 = percentile(&v, 0.5);
        assert_eq!((p50.value, p50.beyond), (51.0, 49));
        assert!(p50.supported());

        let v: Vec<f64> = (1..=201).map(f64::from).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!((p95.value, p95.beyond), (191.0, 10));
        assert!(p95.supported(), "exactly ten beyond is enough");
        assert!(!percentile(&v, 0.99).supported());
    }

    #[test]
    fn median_of_slices_ignores_empty_slices() {
        let slices = [(100, 2.0), (300, 2.0), (400, 4.0), (0, 0.0), (0, 0.0)];
        assert_eq!(slice_rates(&slices), (100.0, 50.0, 150.0));
        let (med, _, _) = slice_rates(&[(10, 1.0), (20, 1.0), (30, 1.0), (40, 1.0)]);
        assert_eq!(med, 25.0);
        assert_eq!(slice_rates(&[]), (0.0, 0.0, 0.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn qerror_is_symmetric_and_floored() {
        assert_eq!(qerror(10.0, 100.0), 10.0);
        assert_eq!(qerror(100.0, 10.0), 10.0);
        assert_eq!(qerror(0.0, 0.0), 1.0);
        assert_eq!(qerror(0.2, 4.0), 4.0);
    }

    #[test]
    fn relative_errors_stay_finite() {
        assert_eq!(rel_error_pct(110.0, 100.0), 10.0);
        assert_eq!(rel_error_pct(-90.0, -100.0), 10.0);
        assert_eq!(rel_error_pct(0.0, 0.0), 0.0);
        assert_eq!(rel_error_pct(3.0, 0.0), 100.0);
    }

    #[test]
    fn grouped_error_caps_and_penalizes_missing_groups() {
        let key = |i: i64| vec![Value::Int(i)];
        let truth = vec![(key(1), 100.0), (key(2), 10.0), (key(3), 50.0)];
        // Group 1 is 10 % off, group 2 is 400 % off (capped), group 3 missing.
        let est = vec![(key(1), 110.0), (key(2), 50.0), (key(9), 1.0)];
        let got = grouped_rel_error_pct(&truth, &est);
        assert!((got - (10.0 + 100.0 + 100.0) / 3.0).abs() < 1e-12, "{got}");
        assert_eq!(grouped_rel_error_pct(&[], &est), 0.0);
    }
}
