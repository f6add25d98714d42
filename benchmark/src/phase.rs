//! The closed measuring loop every workload runs — issue the next operation
//! when the previous one returns, until the time is up — and the summary of
//! what it measured.

use std::time::Instant;

use crate::stats::{self, Pctl};
use crate::trace::Tracer;

/// Most slices a phase is cut into for its summary.
const MAX_SLICES: usize = 10;
/// Operations a slice needs: with 200, its p95 has ten samples beyond it.
const MIN_SLICE_OPS: usize = 200;

/// One workload's operation, as the measuring loop sees it.
pub trait Op {
    /// Most spans one `before` + `run` pair records.
    fn spans_per_op(&self) -> usize;

    /// Work the stream needs before operation `i` that is not part of it
    /// (the writes of `update_mixed`). Not timed as the operation.
    fn before(&mut self, _i: usize, _tr: Option<&mut Tracer>) {}

    /// Run operation `i` and check its output. `false` counts as a failure.
    fn run(&mut self, i: usize, tr: Option<&mut Tracer>) -> bool;

    /// The stream has nothing left to issue.
    fn exhausted(&self) -> bool {
        false
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// (end in ns since the phase began, latency in ns) of every operation.
    ops: Vec<(u64, u32)>,
    /// Operations of the stream that are not the timed one (the write
    /// batches of `update_mixed`); they can fail too.
    pub extra_attempted: u64,
    pub failed: u64,
}

/// A phase in the numbers the report prints. A shared host slows down in
/// bursts, and a burst inflates a percentile pooled over the whole phase, so
/// the phase is cut into up to ten slices of equal operation count and the
/// **median over slices** of each slice's rate, p50 and p95 is reported: a
/// burst has to cover half the phase to move it.
pub struct Summary {
    pub slices: usize,
    pub ops_per_slice: usize,
    /// Median, minimum and maximum slice rate, operations per second.
    pub rate: (f64, f64, f64),
    pub p50_us: f64,
    pub p95_us: f64,
    /// `[p50, p95, p99, p99.9]` pooled over the whole phase, for reference.
    pub pooled: [Pctl; 4],
}

impl Phase {
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64 + self.extra_attempted
    }

    /// Fold in the phase another client thread ran over the same interval.
    pub fn merge(&mut self, other: Phase) {
        self.ops.extend(other.ops);
        self.ops.sort_unstable();
        self.extra_attempted += other.extra_attempted;
        self.failed += other.failed;
    }

    /// Summarize a phase that measured at least one operation.
    pub fn summary(&self) -> Summary {
        let n = self.ops.len();
        let slices = (n / MIN_SLICE_OPS).clamp(1, MAX_SLICES);
        let per = n / slices;
        let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
        // The first slice starts when its first operation did.
        let mut from_ns = self.ops[0].0 - u64::from(self.ops[0].1);
        for chunk in self.ops[..per * slices].chunks(per) {
            let to_ns = chunk[per - 1].0;
            rates.push((per as u64, (to_ns - from_ns) as f64 / 1e9));
            from_ns = to_ns;
            let sorted = sorted_us(chunk);
            p50s.push(stats::percentile(&sorted, 0.5).value);
            p95s.push(stats::percentile(&sorted, 0.95).value);
        }
        let pooled = sorted_us(&self.ops);
        Summary {
            slices,
            ops_per_slice: per,
            rate: stats::slice_rates(&rates),
            p50_us: stats::median(&p50s),
            p95_us: stats::median(&p95s),
            pooled: [0.5, 0.95, 0.99, 0.999].map(|q| stats::percentile(&pooled, q)),
        }
    }
}

/// Latencies in µs, ascending.
fn sorted_us(ops: &[(u64, u32)]) -> Vec<f64> {
    let mut v: Vec<f64> = ops.iter().map(|&(_, ns)| f64::from(ns) / 1e3).collect();
    stats::sort(&mut v);
    v
}

/// Run `op` back to back for `seconds`, or until the stream or the tracer's
/// room runs out. `reserve` samples are allocated up front so the loop
/// itself does not allocate.
pub fn drive(
    op: &mut impl Op,
    seconds: f64,
    reserve: usize,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let total_ns = (seconds * 1e9) as u64;
    let mut phase = Phase {
        ops: Vec::with_capacity(reserve),
        ..Phase::default()
    };
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let spans_per_op = op.spans_per_op();
    let mut i = 0;
    loop {
        if op.exhausted() || tracer.as_ref().is_some_and(|t| t.is_full(spans_per_op)) {
            break;
        }
        op.before(i, tracer.as_deref_mut());
        let start = now();
        if start >= total_ns {
            break;
        }
        let ok = op.run(i, tracer.as_deref_mut());
        let end = now();
        phase
            .ops
            .push((end, u32::try_from(end - start).unwrap_or(u32::MAX)));
        phase.failed += u64::from(!ok);
        i += 1;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin {
        runs: usize,
        limit: usize,
    }

    impl Op for Spin {
        fn spans_per_op(&self) -> usize {
            1
        }
        fn run(&mut self, i: usize, _tr: Option<&mut Tracer>) -> bool {
            self.runs += 1;
            std::hint::black_box((0..2_000).sum::<u64>());
            i % 4 != 3
        }
        fn exhausted(&self) -> bool {
            self.runs >= self.limit
        }
    }

    #[test]
    fn loop_counts_every_op_once_and_stops_on_time_or_exhaustion() {
        let mut op = Spin {
            runs: 0,
            limit: usize::MAX,
        };
        let phase = drive(&mut op, 0.05, 1024, None);
        assert_eq!(phase.attempted() as usize, op.runs);
        assert_eq!(phase.failed, phase.attempted() / 4);
        let s = phase.summary();
        assert!(0.0 < s.rate.1 && s.rate.1 <= s.rate.0 && s.rate.0 <= s.rate.2);

        let mut op = Spin { runs: 0, limit: 7 };
        let phase = drive(&mut op, 5.0, 16, None);
        assert_eq!(phase.attempted(), 7);
        assert_eq!(phase.summary().slices, 1);
    }

    /// `n` back-to-back operations of `lat_ns(i)` each.
    fn phase_of(n: usize, lat_ns: impl Fn(usize) -> u32) -> Phase {
        let mut end = 0u64;
        let ops = (0..n)
            .map(|i| {
                end += u64::from(lat_ns(i));
                (end, lat_ns(i))
            })
            .collect();
        Phase {
            ops,
            ..Phase::default()
        }
    }

    #[test]
    fn median_of_slices_shrugs_off_a_burst_the_pooled_p95_feels() {
        // 2 000 ops of 10 µs; ops 400..800 (two slices of ten) run 3x slower.
        let burst = |i: usize| {
            if (400..800).contains(&i) {
                30_000
            } else {
                10_000
            }
        };
        let s = phase_of(2_000, burst).summary();
        assert_eq!((s.slices, s.ops_per_slice), (10, 200));
        assert_eq!((s.p50_us, s.p95_us), (10.0, 10.0));
        assert_eq!(s.rate.0, 100_000.0);
        assert!(
            (s.rate.1 - 100_000.0 / 3.0).abs() < 1e-6,
            "min {}",
            s.rate.1
        );
        assert_eq!(s.pooled[1].value, 30.0, "the pooled p95 sits in the burst");
        assert_eq!((s.pooled[1].samples, s.pooled[1].beyond), (2_000, 100));
    }

    #[test]
    fn few_operations_make_one_pooled_slice_and_merge_orders_by_end() {
        let mut a = phase_of(150, |_| 1_000);
        a.merge(phase_of(149, |_| 1_007));
        let s = a.summary();
        assert_eq!((s.slices, s.ops_per_slice), (1, 299));
        assert_eq!(s.pooled[0].samples, 299);
        assert!(a.ops.windows(2).all(|w| w[0].0 <= w[1].0));
        // Two clients side by side: 299 ops in ~150 µs.
        assert!(s.rate.0 > 1.9e6, "rate {}", s.rate.0);
    }
}
