//! Fault-tolerant concurrent serving front-end with cross-query probe
//! fusion.
//!
//! [`ProbePlan`] fuses all probes of *one* query into one sweep per touched
//! member; [`ServeFront`] fuses the probes of *many in-flight queries* the
//! same way — the classic dynamic-batching trick from model serving, sound
//! here because a probe's value depends only on its own `SpnQuery` and the
//! semiring sweep, never on batch-mates (so fused answers are **bitwise**
//! identical to per-client execution).
//!
//! # Serving lifecycle
//!
//! 1. **Admission** — a bounded in-flight counter; requests beyond
//!    [`ServeConfig::queue_capacity`] are rejected immediately with
//!    [`DeepDbError::Overloaded`] (backpressure, no unbounded queueing).
//! 2. **Plan** — the request checks a plan out of the plan cache
//!    ([`crate::checkout::Checkout`]): a shape hit costs one literal rebind of
//!    a pooled working set.
//! 3. **Lane** — the request's probes are absorbed into the forming
//!    batch's shared [`ProbePlan`] ([`ProbePlan::absorb`]) and its checkout
//!    rides along with the batch; the first
//!    client in becomes the batch **leader**. The front has
//!    [`ServeConfig::threads`] sweep **lanes**. While a lane is
//!    free the leader takes the batch and sweeps at once; while every lane
//!    is sweeping it waits for the first of: a finishing executor handing
//!    its lane over, the batch reaching [`ServeConfig::max_batch`], the
//!    (pressure-adjusted) [`ServeConfig::window`] running out, or its own
//!    deadline. Batches therefore grow out of contention — arrivals pile up
//!    behind busy lanes and are fused into the next sweep — and an idle
//!    front adds no wait at all.
//! 4. **Fused sweep** — the leader executes the shared plan on its own
//!    thread: **one fused sweep per touched RSPN member per batch**, with a
//!    batch-wide [`CancelFlag`] checked at every tile. The lanes are the
//!    parallelism; a lane never fans its tiles out to further threads. A
//!    batch of one skips fuse and demux and runs its checkout directly.
//!    Solo, fused and isolated sweeps all go
//!    through the one plan runner ([`ProbePlan::run`]).
//! 5. **Demux** — per-client slices are copied into each client's own
//!    checkout ([`crate::plan::ProbeResults::extract_into`]), which is handed
//!    back through the client's slot; each client resolves through it and
//!    drops it (checking its working set back in).
//!
//! # Robustness contract
//!
//! Every `serve` call returns either a **bitwise-correct answer** (equal to
//! executing the query alone, unfused) or a **typed error** — never a wrong
//! answer, never a hang:
//!
//! * **Deadlines** — a per-query deadline cancels shared sweeps
//!   cooperatively at tile boundaries (only once *every* co-batched query's
//!   deadline has passed — shared work is cancelled only when nobody wants
//!   it) and bounds the client's wait on its result slot and, for a leader,
//!   on a busy lane. Misses surface as [`DeepDbError::DeadlineExceeded`]
//!   and shrink the window (graceful degradation: less batching latency
//!   under pressure, window recovery on clean batches).
//! * **Panic isolation** — a panic inside the fused sweep aborts only the
//!   shared execution; the leader re-executes every co-batched query's
//!   checkout *individually* under its own `catch_unwind`, so the faulty query alone
//!   fails with [`DeepDbError::QueryPanicked`], carrying the panic's
//!   message, while its peers still get bitwise-correct answers.
//! * **Maintenance races** — plan-epoch bumps landing mid-flight are
//!   detected after the sweep; affected requests retry **once** end to end
//!   (re-plan, re-batch, re-sweep) and only then surface
//!   [`DeepDbError::StalePlan`]. Stale results are never returned.
//!
//! # Chaos testing
//!
//! [`FaultPlan`] is a deterministic, seeded fault injector with hooks at
//! four named sites — [`FaultSite::Admission`], [`FaultSite::CacheLookup`],
//! [`FaultSite::TileStart`], [`FaultSite::CombineResolve`] — injecting
//! panics, delays, and plan-epoch bumps at configurable rates. The chaos
//! suite (`crates/core/tests/chaos.rs`) drives 64 concurrent clients
//! against an injected front and asserts the contract above holds for every
//! single request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use deepdb_spn::{CancelFlag, TileFault, TileFaultFn};
use deepdb_storage::{Database, Query};

use crate::checkout::{Checkout, PreparedQuery};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{PlanStitch, ProbePlan};
use crate::shape::ArtifactKind;
use crate::DeepDbError;

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Named injection sites of the serving path, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `serve` entry, before the admission check.
    Admission,
    /// Before the plan-cache lookup / artifact build.
    CacheLookup,
    /// At every sweep tile, before it runs.
    TileStart,
    /// Before the client resolves its demuxed results.
    CombineResolve,
}

const N_SITES: usize = 4;

/// What the injector does at one hook invocation: the outcome of a rate
/// draw, or one step of a [`FaultPlan::with_script`] script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the hook.
    Panic,
    /// Sleep this long, then carry on.
    Delay(Duration),
    /// Bump the plan epoch (simulated mid-flight maintenance).
    EpochBump,
}

/// A deterministic, seeded fault plan: each hook invocation at each site
/// draws a pseudo-random decision from `hash(seed, site, invocation #)`, so
/// a given seed always injects the same faults at the same points
/// regardless of thread interleaving *per site sequence*. Rates are per
/// 1024 invocations.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_per_1024: u32,
    delay_per_1024: u32,
    bump_per_1024: u32,
    delay: Duration,
    /// When set, faults inject at this site only.
    only: Option<FaultSite>,
    /// Per-site scripted outcomes for the first invocations (see
    /// [`FaultPlan::with_script`]).
    scripts: [Vec<Option<Fault>>; N_SITES],
    counters: [AtomicU64; N_SITES],
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A fault plan that injects nothing until rates are configured.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_per_1024: 0,
            delay_per_1024: 0,
            bump_per_1024: 0,
            delay: Duration::from_millis(1),
            only: None,
            scripts: Default::default(),
            counters: Default::default(),
        }
    }

    /// Inject panics at `per_1024` out of 1024 hook invocations.
    pub fn with_panics(mut self, per_1024: u32) -> Self {
        self.panic_per_1024 = per_1024;
        self
    }

    /// Inject `delay`-long sleeps at `per_1024` out of 1024 invocations.
    pub fn with_delays(mut self, per_1024: u32, delay: Duration) -> Self {
        self.delay_per_1024 = per_1024;
        self.delay = delay;
        self
    }

    /// Inject plan-epoch bumps (simulated mid-flight maintenance) at
    /// `per_1024` out of 1024 invocations.
    pub fn with_epoch_bumps(mut self, per_1024: u32) -> Self {
        self.bump_per_1024 = per_1024;
        self
    }

    /// Restrict injection to one site (e.g. only [`FaultSite::TileStart`]
    /// to fault sweeps while leaving the serve layer clean).
    pub fn only_at(mut self, site: FaultSite) -> Self {
        self.only = Some(site);
        self
    }

    /// Script the first invocations at `site`: invocation `n` gets `steps[n]`
    /// (`None` = behave) instead of a rate draw, whatever `only_at` says;
    /// invocations past the script draw from the rates as if the script
    /// were absent. Lets tests stage an exact sequence across kinds — e.g.
    /// "delay the first sweep tile, panic the next two, then behave".
    pub fn with_script(
        mut self,
        site: FaultSite,
        steps: impl IntoIterator<Item = Option<Fault>>,
    ) -> Self {
        self.scripts[site as usize] = steps.into_iter().collect();
        self
    }

    /// Total hook invocations so far at `site` (diagnostics).
    pub fn invocations(&self, site: FaultSite) -> u64 {
        self.counters[site as usize].load(Ordering::Relaxed)
    }

    fn decide(&self, site: FaultSite) -> Option<Fault> {
        let n = self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(&step) = usize::try_from(n)
            .ok()
            .and_then(|n| self.scripts[site as usize].get(n))
        {
            return step;
        }
        if self.only.is_some_and(|s| s != site) {
            return None;
        }
        let h = splitmix(
            self.seed
                ^ (site as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let r = (h % 1024) as u32;
        if r < self.panic_per_1024 {
            Some(Fault::Panic)
        } else if r < self.panic_per_1024 + self.delay_per_1024 {
            Some(Fault::Delay(self.delay))
        } else if r < self.panic_per_1024 + self.delay_per_1024 + self.bump_per_1024 {
            Some(Fault::EpochBump)
        } else {
            None
        }
    }

    /// The [`FaultSite::TileStart`] hook, adapted to the pool's
    /// [`TileFault`] vocabulary (epoch bumps happen here, inline, since the
    /// pool has no ensemble handle).
    fn tile_fault(&self, ens: &Ensemble) -> Option<TileFault> {
        match self.decide(FaultSite::TileStart) {
            Some(Fault::Panic) => Some(TileFault::Panic),
            Some(Fault::Delay(d)) => Some(TileFault::Delay(d)),
            Some(Fault::EpochBump) => {
                ens.invalidate_plans();
                None
            }
            None => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------------

/// Tuning knobs of a [`ServeFront`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Max concurrently admitted requests (queued + executing); beyond it,
    /// `serve` rejects with [`DeepDbError::Overloaded`].
    pub queue_capacity: usize,
    /// A forming batch executes as soon as it holds this many requests,
    /// busy lanes or not; `1` disables batching (every request sweeps
    /// alone).
    pub max_batch: usize,
    /// The longest a batch leader waits for a sweep lane before sweeping
    /// anyway (it never waits while a lane is free). Shrunk (halved per
    /// consecutive deadline miss) under deadline pressure, restored on
    /// clean batches; `0` disables batching (every request sweeps alone).
    pub window: Duration,
    /// Number of sweep lanes (`0` = the ensemble's probe-thread budget):
    /// how many batches sweep side by side before the next leader waits
    /// and its batch grows. Each lane sweeps on its leader's thread.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            window: Duration::from_micros(200),
            threads: 0,
        }
    }
}

/// Shrink exponent cap: a fully-degraded window is `window / 2^12` — for
/// any practical window that is "don't wait at all".
const MAX_SHRINK: u32 = 12;

/// Monotonic serving counters (snapshot via [`ServeFront::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected_overloaded: u64,
    /// Requests that ended in `DeadlineExceeded` (either cancelled sweeps
    /// or missed slot pickups).
    pub deadline_misses: u64,
    /// Requests that ended in `QueryPanicked`.
    pub query_panics: u64,
    /// `StalePlan` outcomes that triggered the internal one-shot retry.
    pub stale_retries: u64,
    /// Batches executed (fused or singleton).
    pub batches: u64,
    /// Requests served through a batch of size ≥ 2 (i.e. actually fused).
    pub fused_requests: u64,
    /// Per-client isolated re-executions after a fused-sweep panic.
    pub isolated_fallbacks: u64,
    /// Batches taken with a single entry, served through the
    /// direct solo fast path (no fuse/demux).
    pub solo_fastpath: u64,
}

// ---------------------------------------------------------------------------
// Batch plumbing
// ---------------------------------------------------------------------------

/// One client's result mailbox: filled exactly once (first write wins), the
/// client waits on the condvar with its own deadline. A success hands the
/// client's checkout back with its results in place.
#[derive(Default)]
struct Slot {
    cell: Mutex<Option<Result<Checkout, DeepDbError>>>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, r: Result<Checkout, DeepDbError>) {
        let mut g = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if g.is_none() {
            *g = Some(r);
        }
        self.cv.notify_all();
    }

    fn wait(&self, deadline: Option<Instant>) -> Result<Checkout, DeepDbError> {
        let mut g = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            match deadline {
                None => {
                    g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(DeepDbError::DeadlineExceeded);
                    }
                    let (ng, _) = self
                        .cv
                        .wait_timeout(g, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    g = ng;
                }
            }
        }
    }
}

/// One admitted request inside a forming batch.
struct Entry {
    slot: Arc<Slot>,
    /// Where this request's probes landed in the shared plan.
    stitch: PlanStitch,
    /// Plan epoch observed when the request planned; a different epoch
    /// after the sweep means maintenance landed mid-flight → retry.
    epoch: u64,
    deadline: Option<Instant>,
}

struct FormingBatch {
    plan: ProbePlan,
    entries: Vec<Entry>,
    /// Each entry's checkout, same order — beside `entries`, not inside, so
    /// the executor can hand each one back by value while [`FillGuard`]
    /// watches the slots.
    checkouts: Vec<Checkout>,
    opened: Instant,
}

struct FrontState {
    in_flight: usize,
    forming: Option<FormingBatch>,
    /// Batches taken from `forming` and not yet demuxed — the busy lanes.
    executing: usize,
}

/// Fills every still-empty slot of a batch with `QueryPanicked` on drop —
/// the no-hang backstop: even if batch execution unwinds in an unforeseen
/// way, no client waits forever. (Slot fills are first-write-wins, so this
/// is a no-op after a normal execution.)
struct FillGuard<'e> {
    entries: &'e [Entry],
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        for e in self.entries {
            e.slot.fill(Err(DeepDbError::QueryPanicked(
                "serving batch executor unwound before filling this slot".into(),
            )));
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Decrements `in_flight` on drop, so admission is released even when the
/// request unwinds through an injected panic.
struct AdmissionGuard<'f, 'a> {
    front: &'f ServeFront<'a>,
}

impl Drop for AdmissionGuard<'_, '_> {
    fn drop(&mut self) {
        self.front.lock_state().in_flight -= 1;
    }
}

/// Frees the executor's sweep lane on drop — on every path out of batch
/// execution, unwinds included — and wakes the leader waiting for it.
struct LaneGuard<'f, 'a> {
    front: &'f ServeFront<'a>,
}

impl Drop for LaneGuard<'_, '_> {
    fn drop(&mut self) {
        self.front.lock_state().executing -= 1;
        self.front.batch_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The front-end
// ---------------------------------------------------------------------------

/// A concurrent serving front-end over `&Ensemble`: bounded admission,
/// load-driven batching that fuses the probes of queries queued behind busy
/// sweep lanes into shared per-member sweeps, per-query deadlines with
/// cooperative cancellation, panic isolation, and one-shot retry on
/// mid-flight maintenance. See the module docs for the lifecycle and the
/// robustness contract.
///
/// `ServeFront` is `Sync`: clients call [`ServeFront::serve`] concurrently
/// through a shared reference (typically one `ServeFront` per process,
/// shared across request threads).
pub struct ServeFront<'a> {
    ens: &'a Ensemble,
    db: &'a Database,
    cfg: ServeConfig,
    faults: Option<Arc<FaultPlan>>,
    state: Mutex<FrontState>,
    /// A batch leader waits here for a free lane or a full batch.
    batch_cv: Condvar,
    /// Window shrink exponent under deadline pressure.
    shrink: AtomicU32,
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    deadline_misses: AtomicU64,
    query_panics: AtomicU64,
    stale_retries: AtomicU64,
    batches: AtomicU64,
    fused_requests: AtomicU64,
    isolated_fallbacks: AtomicU64,
    solo_fastpath: AtomicU64,
}

impl<'a> ServeFront<'a> {
    /// A front with the default [`ServeConfig`].
    pub fn new(ens: &'a Ensemble, db: &'a Database) -> Self {
        Self::with_config(ens, db, ServeConfig::default())
    }

    pub fn with_config(ens: &'a Ensemble, db: &'a Database, cfg: ServeConfig) -> Self {
        Self {
            ens,
            db,
            cfg,
            faults: None,
            state: Mutex::new(FrontState {
                in_flight: 0,
                forming: None,
                executing: 0,
            }),
            batch_cv: Condvar::new(),
            shrink: AtomicU32::new(0),
            admitted: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            query_panics: AtomicU64::new(0),
            stale_retries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            fused_requests: AtomicU64::new(0),
            isolated_fallbacks: AtomicU64::new(0),
            solo_fastpath: AtomicU64::new(0),
        }
    }

    /// Attach a deterministic fault injector (chaos testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(Arc::new(faults));
        self
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            query_panics: self.query_panics.load(Ordering::Relaxed),
            stale_retries: self.stale_retries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fused_requests: self.fused_requests.load(Ordering::Relaxed),
            isolated_fallbacks: self.isolated_fallbacks.load(Ordering::Relaxed),
            solo_fastpath: self.solo_fastpath.load(Ordering::Relaxed),
        }
    }

    /// The lane-wait bound currently in effect: the configured window
    /// halved once per consecutive deadline miss (graceful degradation),
    /// restored step by step on clean batches.
    pub fn effective_window(&self) -> Duration {
        let s = self.shrink.load(Ordering::Relaxed).min(MAX_SHRINK);
        self.cfg.window / (1u32 << s)
    }

    /// Requests currently admitted (queued or executing).
    pub fn in_flight(&self) -> usize {
        self.lock_state().in_flight
    }

    fn lock_state(&self) -> MutexGuard<'_, FrontState> {
        // Serving state is never left torn: every mutation under this lock
        // is a push/take/counter update completed before unlock, and batch
        // execution happens outside it. Recover from poison.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fire an injected fault at a serve-layer site (panics propagate to
    /// the per-request `catch_unwind`, surfacing as `QueryPanicked` for
    /// this request alone).
    fn fire(&self, site: FaultSite) {
        if let Some(fp) = &self.faults {
            match fp.decide(site) {
                Some(Fault::Panic) => panic!("injected fault at {site:?}"),
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                Some(Fault::EpochBump) => self.ens.invalidate_plans(),
                None => {}
            }
        }
    }

    fn note_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .shrink
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some((s + 1).min(MAX_SHRINK))
            });
    }

    fn note_clean_batch(&self) {
        let _ = self
            .shrink
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_sub(1))
            });
    }

    // -- request path -------------------------------------------------------

    /// Serve one scalar aggregate query (COUNT/AVG/SUM over conjunctive
    /// predicates), optionally under a deadline. Returns a bitwise-correct
    /// estimate (identical to the unfused single-query path) or a typed
    /// error — see the module-level robustness contract and the
    /// [`crate::error`] taxonomy.
    pub fn serve(
        &self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<Estimate, DeepDbError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        match catch_unwind(AssertUnwindSafe(|| self.serve_at(query, deadline))) {
            Ok(r) => r,
            Err(payload) => {
                self.query_panics.fetch_add(1, Ordering::Relaxed);
                Err(DeepDbError::QueryPanicked(panic_message(payload)))
            }
        }
    }

    fn serve_at(&self, query: &Query, deadline: Option<Instant>) -> Result<Estimate, DeepDbError> {
        self.fire(FaultSite::Admission);
        let _admission = self.admit()?;
        query.validate(self.db)?;
        if !query.group_by.is_empty() {
            return Err(DeepDbError::Unsupported(
                "serve handles scalar aggregates; GROUP BY goes through execute_aqp".into(),
            ));
        }
        match self.request_once(query, deadline) {
            // Maintenance landed mid-flight: retry once end to end
            // (re-plan against the new epoch, re-batch, re-sweep).
            Err(DeepDbError::StalePlan) => {
                self.stale_retries.fetch_add(1, Ordering::Relaxed);
                self.request_once(query, deadline)
            }
            r => r,
        }
    }

    /// Serve a [`PreparedQuery`] with fresh literals. Prepared execution is
    /// the zero-allocation inline path, so it bypasses batching;
    /// it still gets admission control, deadline accounting, panic
    /// isolation, and — the serving contract for mid-flight maintenance —
    /// an automatic one-shot **re-prepare-and-retry** on
    /// [`DeepDbError::StalePlan`] (re-preparing from
    /// [`PreparedQuery::source`] in place).
    pub fn serve_prepared(
        &self,
        prepared: &mut PreparedQuery,
        literals: &[f64],
        deadline: Option<Duration>,
    ) -> Result<Estimate, DeepDbError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        match catch_unwind(AssertUnwindSafe(|| {
            self.serve_prepared_at(prepared, literals, deadline)
        })) {
            Ok(r) => r,
            Err(payload) => {
                self.query_panics.fetch_add(1, Ordering::Relaxed);
                Err(DeepDbError::QueryPanicked(panic_message(payload)))
            }
        }
    }

    fn serve_prepared_at(
        &self,
        prepared: &mut PreparedQuery,
        literals: &[f64],
        deadline: Option<Instant>,
    ) -> Result<Estimate, DeepDbError> {
        self.fire(FaultSite::Admission);
        let _admission = self.admit()?;
        self.fire(FaultSite::CacheLookup);
        let out = match prepared.execute(self.ens, self.db, literals) {
            Err(DeepDbError::StalePlan) => {
                self.stale_retries.fetch_add(1, Ordering::Relaxed);
                *prepared = self.ens.prepare(self.db, prepared.source())?;
                prepared.execute(self.ens, self.db, literals)
            }
            r => r,
        };
        self.fire(FaultSite::CombineResolve);
        if let Some(d) = deadline {
            if Instant::now() >= d {
                self.note_deadline_miss();
                return Err(DeepDbError::DeadlineExceeded);
            }
        }
        out
    }

    fn admit(&self) -> Result<AdmissionGuard<'_, 'a>, DeepDbError> {
        let mut st = self.lock_state();
        if st.in_flight >= self.cfg.queue_capacity.max(1) {
            drop(st);
            self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(DeepDbError::Overloaded);
        }
        st.in_flight += 1;
        drop(st);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionGuard { front: self })
    }

    /// One full pass: plan, join/lead a batch, wait for the demuxed slice,
    /// resolve.
    fn request_once(
        &self,
        query: &Query,
        deadline: Option<Instant>,
    ) -> Result<Estimate, DeepDbError> {
        self.fire(FaultSite::CacheLookup);
        let checkout = Checkout::new(self.ens, self.db, query, ArtifactKind::of(query), &[])?;

        let slot = Arc::new(Slot::default());
        let leader = {
            let mut st = self.lock_state();
            let forming = st.forming.get_or_insert_with(|| FormingBatch {
                plan: ProbePlan::new(),
                entries: Vec::new(),
                checkouts: Vec::new(),
                opened: Instant::now(),
            });
            let stitch = forming.plan.absorb(checkout.plan());
            forming.entries.push(Entry {
                slot: Arc::clone(&slot),
                stitch,
                epoch: checkout.epoch,
                deadline,
            });
            forming.checkouts.push(checkout);
            let leader = forming.entries.len() == 1;
            if forming.entries.len() >= self.cfg.max_batch.max(1) {
                // Batch is full: wake the leader early.
                self.batch_cv.notify_all();
            }
            leader
        };
        if leader {
            self.lead_batch(deadline);
        }
        let checkout = match slot.wait(deadline) {
            Ok(c) => c,
            Err(e) => {
                if e == DeepDbError::DeadlineExceeded {
                    self.note_deadline_miss();
                }
                return Err(e);
            }
        };
        self.fire(FaultSite::CombineResolve);
        Ok(checkout.resolve()?.0)
    }

    /// Leader role: take the batch at once if a sweep lane is free;
    /// otherwise wait for a finishing executor to free one, bounded by a
    /// full batch, the window and `deadline` (the leader's own). Then
    /// execute and demux the batch on the lane taken. The leader's own slot
    /// is filled along with everyone else's.
    fn lead_batch(&self, deadline: Option<Instant>) {
        let window = self.effective_window();
        let lanes = match self.cfg.threads {
            0 => self.ens.probe_thread_budget(),
            n => n,
        };
        let full = |st: &FrontState| {
            st.forming
                .as_ref()
                .is_none_or(|f| f.entries.len() >= self.cfg.max_batch.max(1))
        };
        let mut st = self.lock_state();
        if !window.is_zero() {
            if let Some(opened) = st.forming.as_ref().map(|f| f.opened) {
                let end = deadline.map_or(opened + window, |d| d.min(opened + window));
                while st.executing >= lanes && !full(&st) {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    let (g, _) = self
                        .batch_cv
                        .wait_timeout(st, end - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = g;
                }
            }
        }
        let Some(batch) = st.forming.take() else {
            return;
        };
        st.executing += 1;
        drop(st);
        let _lane = LaneGuard { front: self };
        self.execute_batch(batch);
    }

    /// Execute a taken batch: one fused sweep per touched member, then
    /// demux per client — falling back to per-client isolated execution if
    /// the fused sweep panics, and to `DeadlineExceeded` if it was
    /// cancelled. Every slot is filled on every path (`FillGuard` backstops
    /// the unforeseen ones).
    fn execute_batch(&self, batch: FormingBatch) {
        let FormingBatch {
            plan,
            entries,
            mut checkouts,
            ..
        } = batch;
        self.batches.fetch_add(1, Ordering::Relaxed);
        if entries.len() >= 2 {
            self.fused_requests
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
        }
        let guard = FillGuard { entries: &entries };
        let tile_hook = self.faults.clone().map(|fp| {
            let ens = self.ens;
            move || fp.tile_fault(ens)
        });
        let fault: Option<&TileFaultFn<'_>> = tile_hook.as_ref().map(|f| f as &TileFaultFn<'_>);

        if entries.len() == 1 {
            // Single-client fast path: the batch was taken with one entry, so
            // the fused plan is that entry's own plan plus stitch/demux
            // overhead. Run its checkout directly.
            self.solo_fastpath.fetch_add(1, Ordering::Relaxed);
            let checkout = checkouts.pop().expect("one checkout per entry");
            if self.solo_execute(&entries[0], checkout, fault) {
                self.note_clean_batch();
            }
            drop(guard);
            return;
        }

        // The shared sweep is cancelled only when *every* co-batched
        // request's deadline has passed — cancel only when nobody is left
        // to want the results.
        let mut latest: Option<Instant> = None;
        let mut all_have_deadlines = true;
        for e in &entries {
            match e.deadline {
                Some(d) => latest = Some(latest.map_or(d, |l| l.max(d))),
                None => all_have_deadlines = false,
            }
        }
        let flag = match latest {
            Some(d) if all_have_deadlines => CancelFlag::with_deadline(d),
            _ => CancelFlag::new(),
        };

        // One thread per sweep: the lanes already supply the parallelism,
        // and a lane that fanned out would take cores from the others.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = plan.fresh_scratch(self.ens);
            plan.run(self.ens, &mut scratch, 1, Some(&flag), fault);
            scratch
        }));
        match outcome {
            Ok(scratch) if !flag.is_cancelled() => {
                let cur = self.ens.plan_epoch();
                for (e, mut checkout) in entries.iter().zip(checkouts) {
                    if e.epoch != cur {
                        e.slot.fill(Err(DeepDbError::StalePlan));
                    } else {
                        scratch
                            .results
                            .extract_into(&e.stitch, checkout.results_mut());
                        e.slot.fill(Ok(checkout));
                    }
                }
                self.note_clean_batch();
            }
            Ok(_) => {
                // Cancelled: every deadline in the batch has passed.
                for e in &entries {
                    e.slot.fill(Err(DeepDbError::DeadlineExceeded));
                }
                self.note_deadline_miss();
            }
            Err(_) => {
                // Fused sweep panicked: isolate — re-run every co-batched
                // request alone so only the faulty one fails.
                for (e, checkout) in entries.iter().zip(checkouts) {
                    self.isolated_fallbacks.fetch_add(1, Ordering::Relaxed);
                    self.solo_execute(e, checkout, fault);
                }
            }
        }
        drop(guard);
    }

    /// Run one entry's own checkout under its own `catch_unwind` and its own
    /// deadline flag, and fill its slot; returns `true` when the execution
    /// completed cleanly (neither cancelled nor panicked). Shared by the
    /// single-client fast path and the post-panic isolation fallback, where
    /// it is what confines `QueryPanicked` to the faulty request while its
    /// peers complete bitwise-correctly.
    fn solo_execute(
        &self,
        e: &Entry,
        mut checkout: Checkout,
        fault: Option<&TileFaultFn<'_>>,
    ) -> bool {
        let flag = match e.deadline {
            Some(d) => CancelFlag::with_deadline(d),
            None => CancelFlag::new(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            checkout.run(self.ens, 1, Some(&flag), fault)
        }));
        let filled = match outcome {
            Ok(()) if flag.is_cancelled() => Err(DeepDbError::DeadlineExceeded),
            Ok(()) if e.epoch != self.ens.plan_epoch() => Err(DeepDbError::StalePlan),
            Ok(()) => Ok(checkout),
            Err(payload) => {
                self.query_panics.fetch_add(1, Ordering::Relaxed);
                Err(DeepDbError::QueryPanicked(panic_message(payload)))
            }
        };
        let clean = filled.is_ok();
        e.slot.fill(filled);
        clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let a = FaultPlan::new(7)
            .with_panics(100)
            .with_delays(50, Duration::from_micros(10))
            .with_epoch_bumps(30);
        let b = FaultPlan::new(7)
            .with_panics(100)
            .with_delays(50, Duration::from_micros(10))
            .with_epoch_bumps(30);
        for _ in 0..2048 {
            let da = a.decide(FaultSite::Admission);
            let db = b.decide(FaultSite::Admission);
            assert_eq!(da, db);
        }
        // Different seeds diverge somewhere in the first 2048 draws.
        let c = FaultPlan::new(8).with_panics(100);
        let d = FaultPlan::new(9).with_panics(100);
        let mut diverged = false;
        for _ in 0..2048 {
            if c.decide(FaultSite::TileStart).is_some() != d.decide(FaultSite::TileStart).is_some()
            {
                diverged = true;
            }
        }
        assert!(diverged);
    }

    #[test]
    fn script_runs_first_then_the_rate_sequence_resumes_unshifted() {
        let steps = [
            Some(Fault::Delay(Duration::from_millis(3))),
            None,
            Some(Fault::Panic),
        ];
        let rates = || FaultPlan::new(7).with_panics(100).with_epoch_bumps(100);
        let plain = rates();
        let scripted = rates().with_script(FaultSite::TileStart, steps);
        for n in 0..512 {
            let drawn = plain.decide(FaultSite::TileStart);
            let got = scripted.decide(FaultSite::TileStart);
            assert_eq!(got, steps.get(n).copied().unwrap_or(drawn), "draw {n}");
            // Unscripted sites never see the script.
            assert_eq!(
                scripted.decide(FaultSite::Admission),
                plain.decide(FaultSite::Admission)
            );
        }
    }

    #[test]
    fn fault_plan_rates_are_roughly_honored() {
        let fp = FaultPlan::new(42).with_panics(256); // 25%
        let mut hits = 0;
        for _ in 0..4096 {
            if fp.decide(FaultSite::CacheLookup).is_some() {
                hits += 1;
            }
        }
        // 25% ± generous slack.
        assert!((700..=1350).contains(&hits), "hits = {hits}");
        assert_eq!(fp.invocations(FaultSite::CacheLookup), 4096);
    }

    #[test]
    fn window_shrinks_under_pressure_and_recovers() {
        let db = Database::new("empty");
        let ens_db = db.clone();
        // A front needs an ensemble; build a trivial one over zero tables.
        let ens = crate::EnsembleBuilder::new(&ens_db).build().unwrap();
        let front = ServeFront::with_config(
            &ens,
            &db,
            ServeConfig {
                window: Duration::from_millis(4),
                ..ServeConfig::default()
            },
        );
        assert_eq!(front.effective_window(), Duration::from_millis(4));
        front.note_deadline_miss();
        front.note_deadline_miss();
        assert_eq!(front.effective_window(), Duration::from_millis(1));
        front.note_clean_batch();
        assert_eq!(front.effective_window(), Duration::from_millis(2));
        for _ in 0..40 {
            front.note_deadline_miss();
        }
        // Saturates at the max shrink, never underflows to zero division.
        assert!(front.effective_window() <= Duration::from_micros(1));
        for _ in 0..40 {
            front.note_clean_batch();
        }
        assert_eq!(front.effective_window(), Duration::from_millis(4));
    }
}
