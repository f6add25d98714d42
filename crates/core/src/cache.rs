//! The plan cache: an LRU map from [`QueryShape`] to [`PlanArtifact`], owned
//! runtime-only by [`Ensemble`] ([`crate::checkout`] has what an entry is and
//! how it executes).
//!
//! A side table holds the **pruning active sets** ([`active_set_for`]): per
//! `(member, constrained-column union)`, the compacted sub-DAG a sweep may
//! restrict itself to. **Bitwise contract**: a pruned sweep is bitwise
//! identical to the full sweep — pruned-away nodes are seeded from the
//! arena's cached neutral (empty-query) values, exactly what the full sweep
//! computes for nodes no probe constrains. Column unions are
//! literal-independent, so one set serves every rebind.
//!
//! # Invalidation
//!
//! The cache carries **one epoch stamp**. Every access presents the
//! ensemble's **plan epoch** ([`Ensemble::plan_epoch`], bumped by every
//! update and every coverage-/count-changing maintenance operation); the
//! first access at a newer epoch drops every plan entry and
//! active set together and advances the stamp, which only moves forward — a
//! late reader of an older epoch finds nothing and inserts nothing. Working
//! sets die with their entry, so dead epochs pin no scratch. A
//! [`crate::PreparedQuery`] from an old epoch fails its next `execute` with
//! [`crate::DeepDbError::StalePlan`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use deepdb_spn::ActiveSet;

use crate::checkout::PlanArtifact;
use crate::ensemble::Ensemble;
use crate::shape::QueryShape;

/// Default [`PlanCache`] capacity (plan entries). `0` disables caching
/// entirely — lookups, discovery, and inserts are all skipped, so a
/// capacity-0 ensemble measures the true planned-cold path.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Cache observability counters ([`Ensemble::plan_cache_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached artifact.
    pub hits: u64,
    /// Lookups that found nothing (cold plans).
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Live plan entries.
    pub entries: usize,
    /// Live pruning active sets (side table, dropped with the plan entries
    /// at every epoch change; see [`active_set_for`]). Not counted in `entries`/`hits`/`misses` — an
    /// active-set rebuild is one arena walk, not a cold plan.
    pub active_sets: usize,
    /// Cardinality estimates issued by the join-order enumerator
    /// (`crate::joinorder::JoinOrderer`) through prepared-query rebinding.
    /// A separate counter from `hits`/`misses`: enumerator traffic hammers
    /// a handful of shapes thousands of times, and folding it into plan
    /// hit/miss stats would drown interactive-query observability.
    pub optimizer_estimates: u64,
}

struct CacheEntry {
    value: Arc<PlanArtifact>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<QueryShape, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Pruning active sets, keyed on `(member, constrained-column union)`.
    /// A dedicated side table rather than `map` entries: an active set costs
    /// one O(nodes) arena walk to rebuild, so it must never evict a
    /// bind-discovered plan artifact (built twice + diffed) under LRU
    /// pressure, and its lookups are bookkeeping, not plan hits/misses.
    actives: HashMap<(usize, Vec<usize>), Arc<ActiveSet>>,
    /// The plan epoch everything in `map` and `actives` was built under —
    /// the cache's one invalidation stamp (see [`CacheInner::at_epoch`]).
    epoch: u64,
    optimizer_estimates: u64,
}

impl CacheInner {
    /// Bring the cache to the caller's `epoch` and report whether the caller
    /// is current. A newer epoch drops plans and active sets together, so
    /// nothing built for a retired model generation is reused or holds
    /// capacity (invalidation, not LRU pressure: `evictions` does not
    /// move). The stamp is monotonic: a late reader of an older epoch
    /// (`false`) can neither clear what current readers built nor insert.
    fn at_epoch(&mut self, epoch: u64) -> bool {
        if epoch > self.epoch {
            self.map.clear();
            self.actives.clear();
            self.epoch = epoch;
        }
        epoch == self.epoch
    }
}

/// LRU plan cache keyed on [`QueryShape`]. Counter-based recency (a lookup
/// or insert advances a logical tick); capacity 0 disables the cache —
/// callers skip lookup, discovery, and insert entirely, so the cold path is
/// measured honestly.
pub(crate) struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Outside the lock: every query entry point asks [`PlanCache::enabled`]
    /// first.
    capacity: AtomicUsize,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                actives: HashMap::new(),
                epoch: 0,
                optimizer_estimates: 0,
            }),
            capacity: AtomicUsize::new(capacity),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    fn capacity(&self) -> usize {
        // Publishes nothing: a racing resize is observed a lookup late.
        self.capacity.load(Ordering::Relaxed)
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    pub(crate) fn lookup(&self, epoch: u64, shape: &QueryShape) -> Option<Arc<PlanArtifact>> {
        if !self.enabled() {
            return None;
        }
        let mut g = self.lock();
        let current = g.at_epoch(epoch);
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(shape).filter(|_| current) {
            Some(e) => {
                e.last_used = tick;
                let v = Arc::clone(&e.value);
                g.hits += 1;
                Some(v)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&self, epoch: u64, shape: QueryShape, value: Arc<PlanArtifact>) {
        let capacity = self.capacity();
        let mut g = self.lock();
        if capacity == 0 || !g.at_epoch(epoch) {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= capacity && !g.map.contains_key(&shape) {
            if let Some(victim) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                g.map.remove(&victim);
                g.evictions += 1;
            }
        }
        g.map.insert(
            shape,
            CacheEntry {
                value,
                last_used: tick,
            },
        );
    }

    /// Cached pruning set for `(member, columns)` at `epoch`.
    fn active_lookup(
        &self,
        epoch: u64,
        member: usize,
        columns: &[usize],
    ) -> Option<Arc<ActiveSet>> {
        let mut g = self.lock();
        if !g.at_epoch(epoch) {
            return None;
        }
        g.actives.get(&(member, columns.to_vec())).cloned()
    }

    fn active_insert(&self, epoch: u64, member: usize, columns: Vec<usize>, a: Arc<ActiveSet>) {
        let capacity = self.capacity();
        let mut g = self.lock();
        // Bounded by the artifact capacity; past it, callers just rebuild
        // (one arena walk) instead of caching — never evict.
        if g.at_epoch(epoch) && g.actives.len() < capacity {
            g.actives.insert((member, columns), a);
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let g = self.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
            active_sets: g.actives.len(),
            optimizer_estimates: g.optimizer_estimates,
        }
    }

    /// Record `n` enumerator-issued cardinality estimates (see
    /// [`CacheStats::optimizer_estimates`]).
    pub(crate) fn note_optimizer_estimates(&self, n: u64) {
        self.lock().optimizer_estimates += n;
    }

    /// Resize (0 disables). Clears all entries and counters so bench lanes
    /// and tests start from a known-cold state.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut g = self.lock();
        g.map.clear();
        g.tick = 0;
        g.hits = 0;
        g.misses = 0;
        g.evictions = 0;
        g.actives.clear();
        g.optimizer_estimates = 0;
        self.capacity.store(capacity, Ordering::Relaxed);
    }
}

/// Cache-routed pruning [`ActiveSet`] for one ensemble member and one
/// constrained-column union. Building an active set is one O(nodes) arena
/// walk; production traffic repeats column *shapes*, so the walk is done
/// once per `(member, columns)` shape per plan epoch and shared via `Arc`.
/// Sets live in a side table of the [`PlanCache`] (so they never evict plan
/// artifacts and their lookups don't skew plan hit/miss stats) under the
/// cache's one epoch stamp: any maintenance operation (insert, delete,
/// join-count refresh, [`Ensemble::invalidate_plans`]) bumps the epoch, and
/// the first access at a new epoch drops every cached set along with the
/// plans.
///
/// **Bitwise contract**: a sweep pruned by the returned set is bitwise
/// identical to the full sweep for every probe whose constrained and target
/// columns are a subset of `columns` — pruned-away nodes contribute their
/// query-independent neutral values, which are exactly what the full sweep
/// computes for them (see `deepdb_spn::ActiveSet`).
pub(crate) fn active_set_for(ens: &Ensemble, member: usize, columns: &[usize]) -> Arc<ActiveSet> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return Arc::new(ens.rspns()[member].engine().active_set(columns));
    }
    let epoch = ens.plan_epoch();
    if let Some(a) = cache.active_lookup(epoch, member, columns) {
        return a;
    }
    let a = Arc::new(ens.rspns()[member].engine().active_set(columns));
    cache.active_insert(epoch, member, columns.to_vec(), Arc::clone(&a));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkout::Resolver;
    use crate::plan::ProbePlan;
    use crate::shape::{artifact_shape, ArtifactKind};
    use deepdb_storage::Query;

    /// A literal-free COUNT shape over `table`, and an (empty) plan entry.
    fn shape(table: usize) -> QueryShape {
        artifact_shape(&Query::count(vec![table]), ArtifactKind::Count, &[])
    }

    fn entry() -> Arc<PlanArtifact> {
        let (plan, resolver) = (ProbePlan::new(), Resolver::Disjunction(Vec::new()));
        Arc::new(PlanArtifact::new(plan, resolver, Vec::new(), 0, Vec::new()))
    }

    /// The one epoch stamp only moves forward: a newer epoch drops
    /// everything (without counting evictions); a late reader of an older
    /// epoch finds nothing, inserts nothing and clears nothing.
    #[test]
    fn epoch_stamp_is_monotonic() {
        let cache = PlanCache::new(4);
        cache.insert(2, shape(0), entry());
        assert!(cache.lookup(2, &shape(0)).is_some());

        assert!(cache.lookup(1, &shape(0)).is_none());
        cache.insert(1, shape(1), entry());
        let cols = vec![vec![0.0, 1.0, 1.0]];
        let meta = vec![deepdb_spn::ColumnMeta::discrete("a")];
        let spn = deepdb_spn::Spn::learn(
            deepdb_spn::DataView::new(&cols, &meta),
            &deepdb_spn::SpnParams::default(),
        );
        cache.active_insert(1, 0, vec![0], Arc::new(spn.compile().active_set(&[0])));
        let s = cache.stats();
        assert_eq!((s.entries, s.active_sets), (1, 0));
        assert!(cache.lookup(2, &shape(0)).is_some());

        assert!(cache.lookup(3, &shape(0)).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (0, 0));
    }
}
