//! Deferred probe plans: collect every SPN probe of a SQL query first, then
//! sweep each touched RSPN member exactly once.
//!
//! Probabilistic query compilation (paper §4) answers one SQL query with
//! many independent expectation probes — count fractions, probability
//! factors, squared moments, one numerator/denominator pair per AVG, and one
//! probe bundle per GROUP BY group. Classification (paper §4.3) adds a
//! second probe kind: **max-product MPE probes**, answered by the same arena
//! in the (max, ×) semiring. Issuing probes eagerly costs one arena pass per
//! call site; a [`ProbePlan`] inverts control instead:
//!
//! 1. **register** — call sites enqueue [`SpnQuery`] expectation probes
//!    ([`ProbePlan::register`]) and MPE probes ([`ProbePlan::register_mpe`])
//!    against an ensemble member index and hold on to the returned typed
//!    handles (plain indices; no borrow of the ensemble is kept);
//! 2. **fuse** — the plan groups probes by member, preserving registration
//!    order within each member and probe kind;
//! 3. **sweep** — one private runner ([`ProbePlan::run`]) executes every
//!    plan, whoever holds it: **one fused sweep per touched member**
//!    covering both probe kinds, through the single sweep routine of
//!    `deepdb_spn` ([`deepdb_spn::WorkerPool::sweep`], through the pool
//!    owned by [`Ensemble`](crate::Ensemble)). The runner writes into a
//!    caller-provided [`PlanScratch`] (pre-sized results, pinned pruning
//!    sets) and builds leaf values into the calling thread's per-member
//!    tables, so a holder that keeps its scratch (a plan-cache checkout, see
//!    [`crate::cache`]) executes without allocating. A plan of at most one
//!    tile's worth of probes, or a thread budget of one, runs inline on the
//!    calling thread; larger plans share their tiles out over the calling
//!    thread and scoped helper threads. Results are bitwise identical for
//!    any thread count.
//!    [`ProbePlan::execute`] / [`ProbePlan::execute_with_threads`] are thin
//!    wrappers that bring fresh scratch for ad-hoc plans (GROUP BY fans,
//!    count-values batches, ML batches);
//! 4. **resolve** — handles index into the [`ProbeResults`]
//!    ([`ProbeResults::value`] for expectations, [`ProbeResults::mpe_value`]
//!    / [`ProbeResults::mpe_outcome`] for MPE probes).
//!
//! Planning sweeps each *distinct* probe per member once. A plan made with
//! [`ProbePlan::sharing`] (the GROUP BY fan-outs) gives a registration whose
//! probe is bitwise equal to one already on the same member that probe's
//! slot instead of a new one, so a Case-3 step that no group predicate
//! reaches is swept once per query, not once per group. Sharing cannot move
//! an answer: a probe's value depends only on its own [`SpnQuery`] (see
//! [`ProbePlan::absorb`]). Every other plan keeps one slot per registration,
//! which is the layout the plan cache diffs and rebinds. What drops beside
//! the probe count is the number of arena passes (one per touched member)
//! and the wall-clock on multi-member / multi-group / batched-prediction
//! workloads, which scale across cores.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepdb_spn::{
    ActiveSet, CancelFlag, LeafPred, MpeOutcome, MpeProbe, SpnQuery, SweepJob, SweepTables,
    TileFaultFn, SWEEP_TILE,
};

use crate::ensemble::Ensemble;

/// Process-unique plan ids so a handle can never silently read another
/// plan's results.
static PLAN_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The leaf-value tables this thread keeps for small plans, one pair per
    /// ensemble member id it has swept. Per thread and not per plan or cache
    /// entry: a grown table is tens of KB on real models, it is rebuilt from
    /// scratch by every sweep anyway, and a per-member home keeps its column
    /// layout stable — so cold plans and cache misses stop allocating
    /// tables, hits and prepared executions reuse them without allocating,
    /// and a plan-cache entry pins none of them.
    static LEAF_TABLES: RefCell<Vec<(usize, SweepTables)>> = const { RefCell::new(Vec::new()) };
}

/// Ticket for one registered expectation probe; redeem against the
/// [`ProbeResults`] of the plan that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHandle {
    /// Plan that issued the handle (cross-plan lookups panic).
    plan: u64,
    /// Ensemble member (RSPN index) the probe runs against.
    member: usize,
    /// Position within that member's expectation-probe batch.
    slot: usize,
}

impl ProbeHandle {
    /// Ensemble member this probe targets.
    pub fn member(&self) -> usize {
        self.member
    }
}

/// Ticket for one registered max-product (MPE) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpeHandle {
    plan: u64,
    member: usize,
    /// Position within that member's MPE-probe batch.
    slot: usize,
}

impl MpeHandle {
    /// Ensemble member this probe targets.
    pub fn member(&self) -> usize {
        self.member
    }
}

/// One member's deferred probes, both kinds, in registration order.
#[derive(Debug, Clone)]
struct MemberProbes {
    member: usize,
    expect: Vec<SpnQuery>,
    mpe: Vec<MpeProbe>,
}

impl MemberProbes {
    /// Union of the SPN columns any probe in this batch constrains or
    /// targets, sorted ascending — the column set a pruned sweep of this
    /// member must keep active. Literal-independent: rebinding a plan's
    /// literals never changes which columns carry slots, so the set (and any
    /// [`ActiveSet`] derived from it) is valid across rebinds of the same
    /// shape.
    fn constrained_columns(&self) -> Vec<usize> {
        let mut cols = std::collections::BTreeSet::new();
        for q in &self.expect {
            cols.extend(q.active_columns());
        }
        for p in &self.mpe {
            cols.extend(p.query.active_columns());
            // The target leaf must stay active so the max-product aux
            // tracking sees it; pruned subtrees then never hold the target.
            cols.insert(p.target);
        }
        cols.into_iter().collect()
    }
}

/// A batch of deferred probes, grouped by RSPN member.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    id: u64,
    /// Per-member batches in first-registration order of the member.
    members: Vec<MemberProbes>,
    /// On a [`ProbePlan::sharing`] plan: the expectation slots of each
    /// member, by [`fingerprint`] of their probe. `None` on every other
    /// plan: one slot per registration.
    shared: Option<HashMap<(usize, u64), Vec<usize>>>,
}

impl Default for ProbePlan {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbePlan {
    pub fn new() -> Self {
        Self {
            id: PLAN_IDS.fetch_add(1, Ordering::Relaxed),
            members: Vec::new(),
            shared: None,
        }
    }

    /// A plan that registers each distinct expectation probe once per
    /// member: [`ProbePlan::register_probe`] hands a probe bitwise equal to
    /// one already registered on the same member that probe's handle. For
    /// the GROUP BY fan-outs, whose groups repeat every probe no group
    /// predicate reaches.
    pub(crate) fn sharing() -> Self {
        Self {
            shared: Some(HashMap::new()),
            ..Self::new()
        }
    }

    /// Enqueue one expectation probe against ensemble member `member`; the
    /// handle resolves to its value after [`ProbePlan::execute`].
    pub fn register(&mut self, member: usize, probe: SpnQuery) -> ProbeHandle {
        let plan = self.id;
        let entry = member_entry(&mut self.members, member);
        entry.expect.push(probe);
        ProbeHandle {
            plan,
            member,
            slot: entry.expect.len() - 1,
        }
    }

    /// Enqueue one expectation probe, borrowed or owned. On a
    /// [`ProbePlan::sharing`] plan a probe bitwise equal to one already on
    /// `member` resolves to that slot, and a borrowed one is cloned only
    /// when it is new; on any other plan this is [`ProbePlan::register`].
    pub(crate) fn register_probe(
        &mut self,
        member: usize,
        probe: Cow<'_, SpnQuery>,
    ) -> ProbeHandle {
        let Some(index) = self.shared.as_mut() else {
            return self.register(member, probe.into_owned());
        };
        let slots = index.entry((member, fingerprint(&probe))).or_default();
        let plan = self.id;
        let entry = member_entry(&mut self.members, member);
        let slot = match slots.iter().find(|&&s| same_bits(&entry.expect[s], &probe)) {
            Some(&s) => s,
            None => {
                entry.expect.push(probe.into_owned());
                slots.push(entry.expect.len() - 1);
                entry.expect.len() - 1
            }
        };
        ProbeHandle { plan, member, slot }
    }

    /// Enqueue one max-product probe (most probable value of SPN column
    /// `target` given the evidence in `probe`) against member `member`. The
    /// probe rides the **same fused sweep** as the member's expectation
    /// probes — a classification batch costs no extra arena passes.
    pub fn register_mpe(&mut self, member: usize, target: usize, probe: SpnQuery) -> MpeHandle {
        let plan = self.id;
        let entry = member_entry(&mut self.members, member);
        entry.mpe.push(MpeProbe::new(target, probe));
        MpeHandle {
            plan,
            member,
            slot: entry.mpe.len() - 1,
        }
    }

    /// Total probes registered so far (both kinds).
    pub fn n_probes(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.expect.len() + m.mpe.len())
            .sum()
    }

    /// Distinct ensemble members the plan touches.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Member indices the plan touches, in first-registration order —
    /// accounting for tests/benches that assert how a query's probes (e.g.
    /// all steps of a Case-3 combine plan) fan out across the ensemble.
    pub fn members(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.member).collect()
    }

    /// Probes registered against one member (both kinds) — 0 if the plan
    /// does not touch it.
    pub fn probes_for_member(&self, member: usize) -> usize {
        self.members
            .iter()
            .find(|m| m.member == member)
            .map_or(0, |m| m.expect.len() + m.mpe.len())
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Execute the plan with fresh scratch: one fused arena sweep per
    /// touched member, tiles parallelized over the ensemble's probe-thread
    /// budget.
    pub fn execute(&self, ens: &Ensemble) -> ProbeResults {
        self.execute_with_threads(ens, 0)
    }

    /// Like [`ProbePlan::execute`] with an explicit worker-thread cap
    /// (`0` = the ensemble's budget). `threads <= 1` runs inline; results
    /// are identical either way.
    pub fn execute_with_threads(&self, ens: &Ensemble, threads: usize) -> ProbeResults {
        let mut scratch = self.fresh_scratch(ens);
        self.run(ens, &mut scratch, threads, None, None);
        scratch.results
    }

    /// Scratch for one ad-hoc execution of this plan. Query-scoped pruning
    /// rides along: with the plan cache on, each member's sweep is
    /// restricted to the sub-DAG its probes can influence, through the
    /// cache's shape-keyed active-set side table (bitwise identical to the
    /// full sweep); with the cache off the cold path stays honest and sweeps
    /// in full.
    pub(crate) fn fresh_scratch(&self, ens: &Ensemble) -> PlanScratch {
        let actives = if ens.plan_cache().enabled() {
            self.active_sets(ens)
        } else {
            Vec::new()
        };
        PlanScratch::new(self, actives)
    }

    /// One pruning [`ActiveSet`] per plan member, in member order, for the
    /// union of the SPN columns the member's probes constrain or target.
    /// Literal-independent, so a holder may pin the sets once and reuse them
    /// across rebinds of the same shape.
    pub(crate) fn active_sets(&self, ens: &Ensemble) -> Vec<Arc<ActiveSet>> {
        self.members
            .iter()
            .map(|m| crate::cache::active_set_for(ens, m.member, &m.constrained_columns()))
            .collect()
    }

    /// The runner every execution goes through — one-shot, prepared, served
    /// solo, fused or isolated, ad hoc: one fused sweep per touched member
    /// into `scratch`, allocation-free on the inline branch once the
    /// thread's tables have grown. `threads == 0` means the ensemble's
    /// budget. Serving hooks: a cooperative [`CancelFlag`] checked at every
    /// tile (deadline enforcement — a cancelled execution's outputs are
    /// garbage, so the caller must check the flag before trusting them) and
    /// a deterministic tile fault hook (chaos testing).
    pub(crate) fn run(
        &self,
        ens: &Ensemble,
        scratch: &mut PlanScratch,
        threads: usize,
        cancel: Option<&CancelFlag>,
        fault: Option<&TileFaultFn<'_>>,
    ) {
        let PlanScratch { results, actives } = scratch;
        assert_eq!(results.plan, self.id, "scratch belongs to a different plan");
        debug_assert!(
            actives.is_empty() || actives.len() == self.members.len(),
            "active sets must align with plan members"
        );
        // Spawning helpers is only worth it once there is more than one
        // tile's worth of work — tiny plans (scalar COUNT/AVG/SUM bundles,
        // single predictions, even across several members) run inline.
        let small = self.n_probes() <= SWEEP_TILE;
        let threads = match threads {
            _ if small => 1,
            0 => ens.probe_thread_budget(),
            n => n,
        };
        LEAF_TABLES.with(|kept| {
            // A small plan builds into the tables the thread keeps; a larger
            // one (a GROUP BY fan, a prediction batch) into fresh ones, so
            // what a thread keeps is bounded by a tile's worth of probes per
            // member.
            let (mut kept, mut fresh) = (kept.borrow_mut(), Vec::new());
            let tables = if small { &mut *kept } else { &mut fresh };
            // Line the tables up with the plan: entry `i` serves plan member
            // `i`.
            for (i, m) in self.members.iter().enumerate() {
                let found = tables[i..].iter().position(|(id, _)| *id == m.member);
                let j = found.map_or(tables.len(), |j| i + j);
                if found.is_none() {
                    tables.push((m.member, SweepTables::default()));
                }
                tables.swap(i, j);
            }
            let jobs = self
                .members
                .iter()
                .zip(results.members.iter_mut())
                .zip(tables.iter_mut())
                .enumerate()
                .map(|(i, ((m, r), (_, t)))| SweepJob {
                    spn: ens.rspns()[m.member].engine(),
                    queries: &m.expect,
                    out: &mut r.values,
                    mpe: &m.mpe,
                    mpe_out: &mut r.mpe,
                    tables: t,
                    cancel,
                    fault,
                    active: actives.get(i).map(|a| &**a),
                });
            ens.worker_pool().sweep(jobs, threads);
        });
    }

    /// Cross-query fusion: append every probe of `other` into this plan's
    /// per-member batches, returning a [`PlanStitch`] that records where
    /// each of `other`'s per-member slices landed. After executing `self`
    /// once (one fused sweep per touched member covering *all* absorbed
    /// clients), [`ProbeResults::extract_into`] demuxes each client's slice
    /// into that client's own results (plan id `other.id`) — so handles and
    /// resolvers issued against `other` resolve against them unchanged.
    ///
    /// Registration order within each member is preserved per client, and
    /// a probe's value depends only on its own `SpnQuery` and the semiring
    /// sweep (never on batch-mates), so the fused values are bitwise
    /// identical to executing `other` alone.
    pub(crate) fn absorb(&mut self, other: &ProbePlan) -> PlanStitch {
        let mut parts = Vec::with_capacity(other.members.len());
        for m in &other.members {
            let entry = member_entry(&mut self.members, m.member);
            parts.push(StitchPart {
                member: m.member,
                expect_off: entry.expect.len(),
                expect_len: m.expect.len(),
                mpe_off: entry.mpe.len(),
                mpe_len: m.mpe.len(),
            });
            entry.expect.extend(m.expect.iter().cloned());
            entry.mpe.extend(m.mpe.iter().cloned());
        }
        PlanStitch {
            plan: other.id,
            parts,
        }
    }

    /// Whether two plans have identical probe *structure*: same member
    /// sequence, same per-member probe counts, and pairwise shape-equal
    /// expectation probes ([`SpnQuery::same_shape`]) — everything except the
    /// literal `f64` values. Layout-equal plans expose identical
    /// [`ProbePlan::flat_literals`] walks, which is what lets the plan cache
    /// diff two builds of the same query shape and record literal binds.
    pub(crate) fn same_layout(&self, other: &ProbePlan) -> bool {
        self.members.len() == other.members.len()
            && self.members.iter().zip(&other.members).all(|(a, b)| {
                a.member == b.member
                    && a.expect.len() == b.expect.len()
                    && a.mpe.len() == b.mpe.len()
                    && a.expect.iter().zip(&b.expect).all(|(x, y)| x.same_shape(y))
            })
    }

    /// Append every literal of every expectation probe to `out`, in the
    /// canonical flat order: members in first-registration order, probes in
    /// registration order, literals in [`SpnQuery::for_each_literal`] order.
    pub(crate) fn flat_literals(&self, out: &mut Vec<f64>) {
        for m in &self.members {
            for q in &m.expect {
                q.for_each_literal(|v| out.push(v));
            }
        }
    }

    /// Overwrite bound literal slots in place: `binds` maps flat literal
    /// positions (the [`ProbePlan::flat_literals`] order) to indices into
    /// `literals`, sorted ascending by position. Unbound positions (plan
    /// constants: ±∞ range endpoints, join-indicator values, translated
    /// representatives) are left untouched. Allocation-free.
    pub(crate) fn rebind_literals(&mut self, binds: &[(u32, u32)], literals: &[f64]) {
        let mut next = 0usize;
        let mut pos = 0u32;
        for m in &mut self.members {
            for q in &mut m.expect {
                q.for_each_literal_mut(|slot| {
                    if next < binds.len() && binds[next].0 == pos {
                        *slot = literals[binds[next].1 as usize];
                        next += 1;
                    }
                    pos += 1;
                });
            }
        }
        debug_assert_eq!(next, binds.len(), "bind positions out of range");
    }
}

/// The batch of `member` in `members`, appended if the plan does not touch
/// it yet.
fn member_entry(members: &mut Vec<MemberProbes>, member: usize) -> &mut MemberProbes {
    match members.iter().position(|m| m.member == member) {
        Some(i) => &mut members[i],
        None => {
            members.push(MemberProbes {
                member,
                expect: Vec::new(),
                mpe: Vec::new(),
            });
            members.last_mut().expect("just pushed")
        }
    }
}

/// Hash of a probe's slot layout, moment functions and literal bits: equal
/// for bitwise-equal probes ([`same_bits`] settles collisions).
fn fingerprint(q: &SpnQuery) -> u64 {
    let mut h = q.n_cols() as u64;
    let mut mix = |x: u64| h = (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    for c in q.active_columns() {
        let func = q.slot(c).and_then(|s| s.func).map_or(0, |f| f as u64 + 1);
        mix(c as u64);
        mix(func);
    }
    q.for_each_literal(|v| mix(v.to_bits()));
    h
}

/// Whether two probes are bitwise equal: same slots, moment functions and
/// predicates, every literal with the same bits. Such probes sweep to the
/// same value.
fn same_bits(a: &SpnQuery, b: &SpnQuery) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    };
    let pred = |p: &LeafPred, q: &LeafPred| match (p, q) {
        (
            LeafPred::Range {
                lo,
                hi,
                lo_incl,
                hi_incl,
            },
            LeafPred::Range {
                lo: lo2,
                hi: hi2,
                lo_incl: lo_incl2,
                hi_incl: hi_incl2,
            },
        ) => bits(&[*lo, *hi], &[*lo2, *hi2]) && (lo_incl, hi_incl) == (lo_incl2, hi_incl2),
        (LeafPred::In(x), LeafPred::In(y)) | (LeafPred::NotIn(x), LeafPred::NotIn(y)) => bits(x, y),
        (LeafPred::IsNull, LeafPred::IsNull) | (LeafPred::IsNotNull, LeafPred::IsNotNull) => true,
        _ => false,
    };
    a.n_cols() == b.n_cols()
        && (0..a.n_cols()).all(|c| match (a.slot(c), b.slot(c)) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.func == y.func
                    && x.preds.len() == y.preds.len()
                    && x.preds.iter().zip(&y.preds).all(|(p, q)| pred(p, q))
            }
            _ => false,
        })
}

/// One absorbed client's footprint inside one member batch of a fused
/// serving plan.
#[derive(Debug, Clone)]
struct StitchPart {
    member: usize,
    expect_off: usize,
    expect_len: usize,
    mpe_off: usize,
    mpe_len: usize,
}

/// Where one absorbed client plan's probes landed inside a fused serving
/// plan — the demux map consumed by [`ProbeResults::extract_into`].
#[derive(Debug, Clone)]
pub(crate) struct PlanStitch {
    /// Id of the absorbed (client) plan; extracted results carry it.
    plan: u64,
    parts: Vec<StitchPart>,
}

#[derive(Debug, Clone)]
struct MemberResults {
    member: usize,
    values: Vec<f64>,
    mpe: Vec<MpeOutcome>,
}

/// Resolved probe values, indexed by [`ProbeHandle`] / [`MpeHandle`].
#[derive(Debug, Clone)]
pub struct ProbeResults {
    plan: u64,
    members: Vec<MemberResults>,
}

/// What one execution of a plan writes and reads beside the plan, owned by
/// whoever executes it: results pre-sized to the plan and the members'
/// pruning sets (empty = sweep every member in full). Sized for the plan it
/// was made from; a clone of that plan (same id, same layout — the plan
/// cache's working sets) may use it too.
#[derive(Debug)]
pub(crate) struct PlanScratch {
    /// What the last [`ProbePlan::run`] (or a fused serving sweep's
    /// [`ProbeResults::extract_into`]) wrote.
    pub(crate) results: ProbeResults,
    actives: Vec<Arc<ActiveSet>>,
}

impl PlanScratch {
    pub(crate) fn new(plan: &ProbePlan, actives: Vec<Arc<ActiveSet>>) -> Self {
        let members = plan
            .members
            .iter()
            .map(|m| MemberResults {
                member: m.member,
                values: vec![0.0; m.expect.len()],
                mpe: vec![MpeOutcome::default(); m.mpe.len()],
            })
            .collect();
        PlanScratch {
            results: ProbeResults {
                plan: plan.id,
                members,
            },
            actives,
        }
    }
}

impl ProbeResults {
    /// Value of a registered expectation probe. Panics if the handle was
    /// issued by a different plan.
    pub fn value(&self, h: ProbeHandle) -> f64 {
        *self.lookup(h)
    }

    /// Most probable value resolved by a registered MPE probe (`None` when
    /// the model holds no leaf for the target, or that leaf is empty).
    pub fn mpe_value(&self, h: MpeHandle) -> Option<f64> {
        self.mpe_outcome(h).value
    }

    /// Full outcome (max-product evidence score + value) of an MPE probe.
    pub fn mpe_outcome(&self, h: MpeHandle) -> MpeOutcome {
        assert_eq!(
            h.plan, self.plan,
            "MPE handle {h:?} was issued by a different plan"
        );
        self.members
            .iter()
            .find(|m| m.member == h.member)
            .and_then(|m| m.mpe.get(h.slot))
            .copied()
            .unwrap_or_else(|| panic!("MPE handle {h:?} does not belong to these results"))
    }

    /// Demux one absorbed client's slice of a fused serving sweep into
    /// `dst`, the pre-sized results of the client's own scratch — the
    /// client's handles and resolver then read it exactly as after a solo
    /// run. Allocation-free.
    pub(crate) fn extract_into(&self, stitch: &PlanStitch, dst: &mut ProbeResults) {
        assert_eq!(dst.plan, stitch.plan, "stitch belongs to a different plan");
        for (p, d) in stitch.parts.iter().zip(&mut dst.members) {
            let m = self
                .members
                .iter()
                .find(|m| m.member == p.member)
                .expect("stitch member missing from fused results");
            debug_assert_eq!(d.member, p.member, "stitch and results disagree on layout");
            d.values
                .copy_from_slice(&m.values[p.expect_off..p.expect_off + p.expect_len]);
            d.mpe
                .copy_from_slice(&m.mpe[p.mpe_off..p.mpe_off + p.mpe_len]);
        }
    }

    fn lookup(&self, h: ProbeHandle) -> &f64 {
        assert_eq!(
            h.plan, self.plan,
            "probe handle {h:?} was issued by a different plan"
        );
        self.members
            .iter()
            .find(|m| m.member == h.member)
            .and_then(|m| m.values.get(h.slot))
            .unwrap_or_else(|| panic!("probe handle {h:?} does not belong to these results"))
    }
}

impl std::ops::Index<ProbeHandle> for ProbeResults {
    type Output = f64;

    fn index(&self, h: ProbeHandle) -> &f64 {
        self.lookup(h)
    }
}
