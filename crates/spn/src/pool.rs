//! Fused multi-model sweeps: one routine, inline or fanned out over scoped
//! helper threads.
//!
//! Every sweep is a list of [`SweepJob`]s: per job the job-wide leaf-value
//! tables are built into **caller-owned** [`SweepTables`], the probes are
//! cut into tiles, and [`WorkerScratch::run`] sweeps each tile and writes
//! its outputs. Tiles run on the calling thread in the one inline driver
//! ([`sweep_inline`]: no tile vector, no locks, no allocation once the
//! tables and the thread's scratch have grown) — [`WorkerPool::sweep`] with
//! `threads <= 1` and both evaluators go through it — or, when
//! [`WorkerPool::sweep`] is given more threads, from one locked tile queue
//! that the calling thread and up to `threads - 1` scoped helpers (never
//! more helpers than tiles beyond the first) drain together. The scope
//! joins every helper before the sweep returns, so tiles borrow the
//! caller's data directly. Cancellation and fault hooks are honoured at
//! every tile on both branches; a panic inside any tile is rethrown on the
//! calling thread once every helper has been joined.
//!
//! The pool itself only parks the helpers' [`WorkerScratch`]es between
//! sweeps, so steady-state sweeps do not regrow tile buffers.
//!
//! Determinism: a tile's result depends only on its own probes and its own
//! scratch, never on which thread ran it or in what order, so every thread
//! count (including the inline `threads <= 1` branch) produces
//! bitwise-identical results.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::arena::{ActiveSet, CompiledSpn};
use crate::batch::SWEEP_TILE;
use crate::kernel::{Expectation, LeafValueTable, MaxProduct, SweepScratch, NO_LEAF};
use crate::maxprod::{MpeOutcome, MpeProbe};
use crate::SpnQuery;

/// Upper bound on threads draining one sweep — a backstop against
/// pathological `threads` arguments, far above any realistic sweep
/// parallelism.
const MAX_WORKERS: usize = 32;

/// Default worker-thread count for sweeps when callers pass `threads == 0`:
/// the host's available parallelism, clamped to `[1, 16]` (sweep tiles are
/// coarse; past ~16 workers the tile count, not the host, is the limit).
/// Probed once per process.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 16)
    })
}

/// Cooperative cancellation for an in-flight sweep, shared between the
/// submitter (who owns the flag) and every thread draining its tiles.
///
/// Every thread checks the flag before each tile it runs
/// ([`WorkerScratch::run`]); once it reads cancelled, remaining tiles are
/// *skipped*, leaving their outputs at the zeroed placeholder. The sweep
/// still drains and joins normally, but the outputs of a cancelled sweep
/// are garbage, so callers must check [`CancelFlag::is_cancelled`] before
/// trusting them.
///
/// A flag can carry an optional deadline; deadline expiry is latched into
/// the atomic on first observation so steady-state checks stay one relaxed
/// load.
#[derive(Debug, Default)]
pub struct CancelFlag {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelFlag {
    /// A flag that only cancels when [`CancelFlag::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A flag that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancelled — explicitly or because the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancel();
                true
            }
            _ => false,
        }
    }
}

/// A fault injected at a tile boundary by a [`SweepJob::fault`] hook:
/// either panic inside the claiming thread's tile (exercising the sweep's
/// panic propagation) or sleep before evaluating (simulating a slow
/// model under deadline pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileFault {
    Panic,
    Delay(Duration),
}

/// Deterministic fault hook fired once per claimed tile, before the cancel
/// check and evaluation. Returning `None` means "no fault here". Used by
/// the serving chaos harness; production sweeps leave it unset.
pub type TileFaultFn<'a> = dyn Fn() -> Option<TileFault> + Sync + 'a;

/// Caller-owned leaf-value tables of one [`SweepJob`], one per probe kind.
/// Every sweep of the job rebuilds them in place and the job's tiles only
/// gather from them; they are grow-only and recycle what a
/// smaller batch leaves unused, so a caller that keeps one per model
/// (`deepdb-core` does, per thread) sweeps without allocating once they
/// have seen its probe layouts.
#[derive(Debug, Clone, Default)]
pub struct SweepTables {
    expect: LeafValueTable,
    mpe: LeafValueTable,
}

/// One model's share of a fused multi-model sweep: an expectation-probe
/// batch **and** a max-product probe batch against one compiled arena, each
/// with a caller-owned output slice of the same length. Both batches belong
/// to the same logical sweep — the model's sweep counter advances once per
/// job, no matter which probe kinds it carries.
pub struct SweepJob<'a> {
    pub spn: &'a CompiledSpn,
    pub queries: &'a [SpnQuery],
    pub out: &'a mut [f64],
    /// Max-product probes riding the same sweep (classification / MPE).
    pub mpe: &'a [MpeProbe],
    pub mpe_out: &'a mut [MpeOutcome],
    /// Scratch the job's leaf-value tables are built into.
    pub tables: &'a mut SweepTables,
    /// Cooperative cancel flag checked before every tile; cancelled tiles
    /// are skipped (outputs keep their zeroed placeholder), so the caller
    /// must check the flag before trusting `out`/`mpe_out`.
    pub cancel: Option<&'a CancelFlag>,
    /// Fault-injection hook fired at every tile start (chaos testing only).
    pub fault: Option<&'a TileFaultFn<'a>>,
    /// Query-scoped prune set for every tile of this job (both probe kinds).
    /// Must cover the union of all the job's constrained columns plus every
    /// MPE probe's target column ([`CompiledSpn::active_set`]); pruned
    /// sweeps are then bitwise identical to full ones. `None` = full sweep.
    pub active: Option<&'a ActiveSet>,
}

impl<'a> SweepJob<'a> {
    /// Expectation-only job (the common AQP/cardinality shape).
    pub fn expect(
        spn: &'a CompiledSpn,
        queries: &'a [SpnQuery],
        out: &'a mut [f64],
        tables: &'a mut SweepTables,
    ) -> Self {
        Self {
            spn,
            queries,
            out,
            mpe: &[],
            mpe_out: &mut [],
            tables,
            cancel: None,
            fault: None,
            active: None,
        }
    }

    /// Build the job-wide leaf-value tables — every (leaf, distinct slot)
    /// pair is evaluated exactly once per job, on the submitting thread —
    /// then cut both probe batches into independent tiles, handing each to
    /// `emit` in probe order. Advances the model's sweep counter once when
    /// any probe is present.
    fn into_tiles(self, mut emit: impl FnMut(Tile<'a>)) {
        let SweepJob {
            spn,
            queries,
            out,
            mpe,
            mpe_out,
            tables,
            cancel,
            fault,
            active,
        } = self;
        assert_eq!(queries.len(), out.len(), "sweep job arity mismatch");
        assert_eq!(mpe.len(), mpe_out.len(), "sweep job MPE arity mismatch");
        if queries.is_empty() && mpe.is_empty() {
            return;
        }
        if !queries.is_empty() {
            tables.expect.build::<Expectation>(spn, queries);
        }
        if !mpe.is_empty() {
            tables.mpe.build::<MaxProduct>(spn, mpe);
        }
        let tables: &'a SweepTables = tables;
        // Both probe kinds of one job are one fused sweep of the model.
        spn.note_sweep();
        let tile = |kind| Tile {
            kind,
            cancel,
            fault,
            active,
        };
        let mut base = 0;
        for (q, o) in queries.chunks(SWEEP_TILE).zip(out.chunks_mut(SWEEP_TILE)) {
            emit(tile(TileKind::Expect(spn, q, o, &tables.expect, base)));
            base += q.len();
        }
        let mut base = 0;
        for (p, o) in mpe.chunks(SWEEP_TILE).zip(mpe_out.chunks_mut(SWEEP_TILE)) {
            emit(tile(TileKind::Mpe(spn, p, o, &tables.mpe, base)));
            base += p.len();
        }
    }
}

/// A unit of sweep work: one tile of one probe kind against one model,
/// plus its job's cancel/fault hooks and prune set.
struct Tile<'a> {
    kind: TileKind<'a>,
    cancel: Option<&'a CancelFlag>,
    fault: Option<&'a TileFaultFn<'a>>,
    active: Option<&'a ActiveSet>,
}

/// The tile's payload: one probe-kind chunk against one model, the job-wide
/// leaf-value table the tile gathers from, and the tile's probe offset
/// within its job batch.
enum TileKind<'a> {
    Expect(
        &'a CompiledSpn,
        &'a [SpnQuery],
        &'a mut [f64],
        &'a LeafValueTable,
        usize,
    ),
    Mpe(
        &'a CompiledSpn,
        &'a [MpeProbe],
        &'a mut [MpeOutcome],
        &'a LeafValueTable,
        usize,
    ),
}

/// Evaluator scratch of one thread draining tiles: the calling thread's
/// lives in a thread-local, a helper's is parked in its [`WorkerPool`]
/// between sweeps, so steady-state sweeps are allocation-free.
#[derive(Default)]
struct WorkerScratch {
    expect: SweepScratch,
    maxprod: SweepScratch,
}

impl WorkerScratch {
    fn run(&mut self, tile: &mut Tile<'_>) {
        // Chaos hook first: injected panics/delays land exactly where a
        // genuinely faulty or slow tile would.
        if let Some(fault) = tile.fault {
            match fault() {
                Some(TileFault::Panic) => panic!("injected tile fault"),
                Some(TileFault::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
        }
        // Cooperative cancellation: skip the arithmetic, keep the drain
        // protocol (the claimed index is already consumed, outputs stay
        // zeroed, and the job still joins normally).
        if tile.cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        match &mut tile.kind {
            TileKind::Expect(spn, queries, out, table, base) => {
                let s = &mut self.expect;
                s.sweep::<Expectation>(spn, queries, table, *base, tile.active);
                out.copy_from_slice(s.root_values());
            }
            TileKind::Mpe(spn, probes, out, table, base) => {
                let s = &mut self.maxprod;
                s.sweep::<MaxProduct>(spn, probes, table, *base, tile.active);
                for ((slot, &score), &leaf) in out.iter_mut().zip(s.root_values()).zip(s.root_aux())
                {
                    *slot = MpeOutcome {
                        score,
                        value: match leaf {
                            NO_LEAF => None,
                            payload => spn.leaf_mode(payload),
                        },
                    };
                }
            }
        }
    }
}

thread_local! {
    /// The calling thread's own pinned scratch — it runs inline sweeps and
    /// drains fanned-out tiles alongside the helpers.
    static SUBMITTER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

/// The inline sweep driver: every job's tiles run on the calling thread, as
/// they are cut, with the thread's pinned scratch — no tile vector, no
/// locks, no allocation once the tables and the scratch have grown.
/// [`WorkerPool::sweep`] with `threads <= 1` and both evaluators run here.
pub(crate) fn sweep_inline<'a>(jobs: impl IntoIterator<Item = SweepJob<'a>>) {
    SUBMITTER_SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        for job in jobs {
            job.into_tiles(|mut tile| scratch.run(&mut tile));
        }
    });
}

/// Run tiles off `queue` until it is empty.
fn drain(queue: &Mutex<std::vec::IntoIter<Tile<'_>>>, scratch: &mut WorkerScratch) {
    loop {
        // Take the tile in its own statement so the guard is released
        // before the tile runs. Nothing under the lock can panic, so the
        // queue is never poisoned mid-pop.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(mut tile) = next else { return };
        scratch.run(&mut tile);
    }
}

/// The sweep fan-out. It owns no threads: a threaded [`WorkerPool::sweep`]
/// spawns scoped helpers and joins them before returning. What it keeps
/// across sweeps is the helpers' evaluator scratch, so tile buffers are
/// not regrown on every call.
#[derive(Default)]
pub struct WorkerPool {
    /// Scratch of helpers that finished cleanly, for the next sweep's
    /// helpers to take.
    idle: Mutex<Vec<WorkerScratch>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("idle", &self.lock_idle().len())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool: no scratch until the first threaded sweep parks some.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_idle(&self) -> MutexGuard<'_, Vec<WorkerScratch>> {
        // Only whole pushes and pops run under the lock; recover instead of
        // cascading a poison.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Execute one fused sweep per job — the single sweep routine. With
    /// `threads <= 1` every job's tiles run on the calling thread as they
    /// are cut; otherwise the tiles of **all** jobs are shared out over up
    /// to `threads` threads (the calling thread included). `threads == 0`
    /// means [`default_threads`]. Results are bitwise identical for every
    /// thread count.
    pub fn sweep<'a>(&self, jobs: impl IntoIterator<Item = SweepJob<'a>>, threads: usize) {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        if threads <= 1 {
            sweep_inline(jobs);
            return;
        }
        let mut tiles: Vec<Tile<'a>> = Vec::new();
        for job in jobs {
            job.into_tiles(|tile| tiles.push(tile));
        }
        let helpers = threads.min(MAX_WORKERS).min(tiles.len()).saturating_sub(1);
        let queue = Mutex::new(tiles.into_iter());
        let panic = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    let mut scratch = self.lock_idle().pop().unwrap_or_default();
                    let queue = &queue;
                    scope.spawn(move || {
                        drain(queue, &mut scratch);
                        scratch
                    })
                })
                .collect();
            // A panic on the calling thread must not skip the joins, so it
            // is caught and rethrown after them.
            let own = catch_unwind(AssertUnwindSafe(|| {
                SUBMITTER_SCRATCH.with(|s| drain(&queue, &mut s.borrow_mut()))
            }));
            let mut panic = own.err();
            for handle in handles {
                match handle.join() {
                    Ok(scratch) => self.lock_idle().push(scratch),
                    // The helper's scratch unwound with it.
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            panic
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnMeta, DataView, LeafPred, Spn, SpnParams};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn model() -> Spn {
        let cols = vec![
            vec![0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, f64::NAN],
            vec![10.0, 20.0, 30.0, 30.0, 40.0, 10.0, 20.0, 30.0],
        ];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        Spn::learn(DataView::new(&cols, &meta), &SpnParams::default())
    }

    /// A hook-free expectation sweep with fresh tables.
    fn clean_sweep(
        pool: &WorkerPool,
        compiled: &CompiledSpn,
        queries: &[SpnQuery],
        threads: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; queries.len()];
        let mut tables = SweepTables::default();
        pool.sweep(
            [SweepJob::expect(compiled, queries, &mut out, &mut tables)],
            threads,
        );
        out
    }

    #[test]
    fn pool_reuses_workers_across_sweeps() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE)
            .map(|i| SpnQuery::new(2).with_pred(1, LeafPred::ge((i % 5) as f64 * 10.0)))
            .collect();
        let pool = WorkerPool::new();
        let want = clean_sweep(&pool, &compiled, &queries, 1);
        assert!(
            pool.lock_idle().is_empty(),
            "the inline branch parks no scratch"
        );
        for round in 0..3 {
            let got = clean_sweep(&pool, &compiled, &queries, 4);
            assert_eq!(got, want, "round {round}");
        }
        // Four tiles at four threads take three helpers; every round reuses
        // the three scratches the first one parked instead of adding more.
        assert_eq!(pool.lock_idle().len(), 3);
    }

    #[test]
    fn zero_threads_means_auto() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        let want = clean_sweep(&pool, &compiled, &queries, 1);
        let got = clean_sweep(&pool, &compiled, &queries, 0);
        assert_eq!(got, want);
        assert!(default_threads() >= 1 && default_threads() <= 16);
    }

    /// Caller-owned tables are rebuilt per sweep: one pair serves jobs of
    /// different models, batch sizes, probe layouts (slots that empty, fill
    /// with value sets, and empty again recycle their buffers) and thread
    /// counts in any order, and a one-tile job submitted with `threads > 1`
    /// still completes.
    #[test]
    fn caller_owned_tables_are_reusable_across_jobs_and_models() {
        let spn_a = model();
        let cols = vec![vec![5.0, 6.0, 7.0, 5.0], vec![1.0, 1.0, 2.0, 2.0]];
        let meta = vec![ColumnMeta::discrete("x"), ColumnMeta::discrete("y")];
        let spn_b = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let (ca, cb) = (spn_a.compile(), spn_b.compile());
        let pool = WorkerPool::new();
        let mut tables = SweepTables::default();
        for (n, threads) in [(70, 1), (3, 4), (2 * SWEEP_TILE + 1, 2), (1, 1)] {
            for (compiled, lit) in [(&ca, 20.0), (&cb, 1.0)] {
                let queries: Vec<SpnQuery> = (0..n)
                    .map(|i| match (i + n) % 3 {
                        0 => SpnQuery::new(2).with_pred(1, LeafPred::ge(lit + i as f64)),
                        1 => SpnQuery::new(2).with_pred(0, LeafPred::In(vec![lit, 5.0, 0.0])),
                        _ => SpnQuery::new(2),
                    })
                    .collect();
                let want = clean_sweep(&pool, compiled, &queries, 1);
                let mut got = vec![0.0; n];
                pool.sweep(
                    [SweepJob::expect(compiled, &queries, &mut got, &mut tables)],
                    threads,
                );
                assert_eq!(got, want, "{n} probes, {threads} threads");
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let spn = model();
        let compiled = spn.compile();
        let pool = Arc::new(WorkerPool::new());
        // An out-of-range MPE target panics inside the tile.
        let bad: Vec<MpeProbe> = (0..2 * SWEEP_TILE)
            .map(|_| MpeProbe::new(99, SpnQuery::new(2)))
            .collect();
        let panicked = {
            let pool = Arc::clone(&pool);
            let compiled = compiled.clone();
            std::thread::spawn(move || {
                let mut out = vec![MpeOutcome::default(); bad.len()];
                catch_unwind(AssertUnwindSafe(|| {
                    pool.sweep(
                        [SweepJob {
                            spn: &compiled,
                            queries: &[],
                            out: &mut [],
                            mpe: &bad,
                            mpe_out: &mut out,
                            tables: &mut SweepTables::default(),
                            cancel: None,
                            fault: None,
                            active: None,
                        }],
                        4,
                    )
                }))
                .is_err()
            })
            .join()
            .expect("driver thread")
        };
        assert!(panicked, "target-out-of-range must propagate");
        // The pool still runs clean jobs afterwards.
        let queries: Vec<SpnQuery> = (0..2 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let out = clean_sweep(&pool, &compiled, &queries, 4);
        assert!(out.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    /// Build an expectation job over `queries` with hooks attached.
    fn hooked_job<'a>(
        compiled: &'a CompiledSpn,
        queries: &'a [SpnQuery],
        out: &'a mut [f64],
        tables: &'a mut SweepTables,
        cancel: Option<&'a CancelFlag>,
        fault: Option<&'a TileFaultFn<'a>>,
    ) -> SweepJob<'a> {
        SweepJob {
            spn: compiled,
            queries,
            out,
            mpe: &[],
            mpe_out: &mut [],
            tables,
            cancel,
            fault,
            active: None,
        }
    }

    /// Hooks fire on the inline branch (`threads == 1`) exactly as they do
    /// on the helpers.
    #[test]
    fn repeated_injected_panics_never_poison_later_sweeps() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE)
            .map(|i| SpnQuery::new(2).with_pred(1, LeafPred::ge((i % 5) as f64 * 10.0)))
            .collect();
        let pool = WorkerPool::new();
        let want = clean_sweep(&pool, &compiled, &queries, 1);
        let mut tables = SweepTables::default();

        for threads in [1, 4] {
            for round in 0..5 {
                // Panic on every third claimed tile, from whichever thread
                // claims it (the calling thread included).
                let hits = AtomicUsize::new(0);
                let fault = move || {
                    if hits.fetch_add(1, Ordering::Relaxed).is_multiple_of(3) {
                        Some(TileFault::Panic)
                    } else {
                        None
                    }
                };
                let mut out = vec![0.0; queries.len()];
                let job = hooked_job(
                    &compiled,
                    &queries,
                    &mut out,
                    &mut tables,
                    None,
                    Some(&fault),
                );
                let panicked =
                    catch_unwind(AssertUnwindSafe(|| pool.sweep([job], threads))).is_err();
                assert!(panicked, "round {round}: injected tile panic must surface");

                // The very next sweep — same pool, same tables — must be
                // bitwise clean.
                let mut got = vec![0.0; queries.len()];
                pool.sweep(
                    [SweepJob::expect(&compiled, &queries, &mut got, &mut tables)],
                    threads,
                );
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{threads} threads, round {round}, probe {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancelled_flag_skips_tiles_and_sweep_still_joins() {
        let spn = model();
        let compiled = spn.compile();
        // Empty-predicate probes evaluate to exactly 1.0, so a zero output
        // proves the tile was skipped rather than evaluated.
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        let flag = CancelFlag::new();
        flag.cancel();
        for threads in [1, 4] {
            let mut out = vec![0.0; queries.len()];
            let mut tables = SweepTables::default();
            let job = hooked_job(
                &compiled,
                &queries,
                &mut out,
                &mut tables,
                Some(&flag),
                None,
            );
            pool.sweep([job], threads); // must not hang or panic
            assert!(flag.is_cancelled());
            assert!(
                out.iter().all(|&v| v == 0.0),
                "cancelled tiles must be skipped ({threads} threads)"
            );
            // The pool still answers correctly afterwards.
            let got = clean_sweep(&pool, &compiled, &queries, threads);
            assert!(got.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    fn deadline_flag_trips_mid_sweep_under_delay() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        for threads in [1, 2] {
            // Every tile sleeps 5ms; the deadline passes after ~1ms, so the
            // flag latches partway through and the sweep still completes.
            let fault = || Some(TileFault::Delay(Duration::from_millis(5)));
            let flag = CancelFlag::with_deadline(Instant::now() + Duration::from_millis(1));
            let mut out = vec![0.0; queries.len()];
            let mut tables = SweepTables::default();
            let job = hooked_job(
                &compiled,
                &queries,
                &mut out,
                &mut tables,
                Some(&flag),
                Some(&fault),
            );
            pool.sweep([job], threads);
            assert!(flag.is_cancelled(), "deadline expiry must latch the flag");
        }
    }

    #[test]
    fn drop_joins_cleanly_after_injected_panics() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        let fault = || Some(TileFault::Panic);
        let mut out = vec![0.0; queries.len()];
        let mut tables = SweepTables::default();
        let job = hooked_job(
            &compiled,
            &queries,
            &mut out,
            &mut tables,
            None,
            Some(&fault),
        );
        let panicked = catch_unwind(AssertUnwindSafe(|| pool.sweep([job], 4))).is_err();
        assert!(panicked);
        // Every helper panicked, so none parked its scratch.
        assert!(pool.lock_idle().is_empty());
        drop(pool); // the pool survives drop after a panicked sweep
    }
}
