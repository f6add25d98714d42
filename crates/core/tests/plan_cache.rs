//! Plan-cache and prepared-query correctness suite.
//!
//! The cache's contract is **bitwise transparency**: for every supported
//! query, (a) a cold plan (cache disabled), (b) the miss that inserts the
//! artifact, (c) a hit that rebinds a cached artifact with *different
//! literal history*, and (d) a [`deepdb_core::PreparedQuery`] execution must
//! all produce bit-identical estimates — across randomized predicates
//! (NULLs included) and Case-3 multi-RSPN combination. On top of that:
//! hit/miss accounting ([`deepdb_core::CacheStats`]) and epoch-based
//! invalidation (a stale plan is never reused; outstanding prepared queries
//! fail with `StalePlan`).

use std::sync::{Mutex, MutexGuard, OnceLock};

use deepdb_core::compile::{
    estimate_avg, estimate_count, estimate_count_disjunction, estimate_sum,
};
use deepdb_core::{
    execute_aqp, query_literals, DeepDbError, Ensemble, EnsembleBuilder, EnsembleParams,
    EnsembleStrategy, Estimate,
};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{Aggregate, CmpOp, ColumnRef, Database, PredOp, Predicate, Query, Value};
use proptest::prelude::*;

/// Tests that toggle the shared ensemble's cache capacity serialize through
/// this lock so a concurrent test never observes the wrong cache state.
fn capacity_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Two single-table members: two-table queries exercise Case-3 combination.
fn single_tables() -> &'static (Database, Ensemble) {
    static CELL: OnceLock<(Database, Ensemble)> = OnceLock::new();
    CELL.get_or_init(|| {
        let db = correlated_customer_order(1200, 77);
        let params = EnsembleParams {
            strategy: EnsembleStrategy::SingleTables,
            sample_size: 10_000,
            correlation_sample: 1_000,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    })
}

fn fresh_ensemble(seed: u64) -> (Database, Ensemble) {
    let db = correlated_customer_order(800, seed);
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables,
        sample_size: 8_000,
        correlation_sample: 800,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    (db, ens)
}

/// Build one randomized predicate from a spec tuple. Columns: customer.1
/// (c_age, discrete), customer.2 (c_region, categorical), orders.2
/// (o_channel), orders.3 (o_amount, continuous). `op_kind` cycles through
/// comparison / BETWEEN / IN / NULL shapes, with occasional NULL literals.
fn spec_predicate(two_tables: bool, spec: (u8, u8, i64, i64)) -> Predicate {
    let (col_sel, op_kind, a, b) = spec;
    let (table, column, lo, hi) = match col_sel % if two_tables { 4 } else { 2 } {
        0 => (0, 1, 18i64, 90i64), // c_age
        1 => (0, 2, 0, 2),         // c_region
        2 => (1, 2, 0, 1),         // o_channel
        _ => (1, 3, 0, 400),       // o_amount
    };
    let clamp = |v: i64| Value::Int(lo + v.rem_euclid(hi - lo + 1));
    let op = match op_kind % 8 {
        0 => PredOp::Cmp(CmpOp::Eq, clamp(a)),
        1 => PredOp::Cmp(CmpOp::Le, clamp(a)),
        2 => PredOp::Cmp(CmpOp::Ge, clamp(a)),
        3 => PredOp::Between(clamp(a.min(b)), clamp(a.max(b))),
        4 => PredOp::In(vec![clamp(a), clamp(b), Value::Null]),
        5 => PredOp::IsNotNull,
        6 => PredOp::IsNull,
        // NULL literal in a comparison: SQL-unknown, structurally distinct.
        _ => PredOp::Cmp(CmpOp::Eq, Value::Null),
    };
    Predicate::new(table, column, op)
}

/// Vary only the literals of a predicate (same shape, shifted values) — the
/// "different literal history" used to poison cached artifacts before
/// re-running the original query.
fn shift_literals(p: &Predicate) -> Predicate {
    let bump = |v: &Value| match v {
        Value::Null => Value::Null,
        Value::Int(i) => Value::Int(i + 1),
        Value::Float(f) => Value::Float(f + 1.0),
    };
    let op = match &p.op {
        PredOp::Cmp(op, v) => PredOp::Cmp(*op, bump(v)),
        PredOp::Between(lo, hi) => PredOp::Between(bump(lo), bump(hi)),
        PredOp::In(vs) => PredOp::In(vs.iter().map(bump).collect()),
        other => other.clone(),
    };
    Predicate::new(p.table, p.column, op)
}

/// Assert cold ≡ miss ≡ hit-after-different-literals ≡ prepared, bitwise.
fn assert_transparent(
    db: &Database,
    ens: &Ensemble,
    query: &Query,
    run: impl Fn(&Ensemble) -> Result<Estimate, DeepDbError>,
) {
    // Cold reference: cache disabled entirely.
    ens.set_plan_cache_capacity(0);
    let cold = run(ens);
    ens.set_plan_cache_capacity(256);

    // Miss (inserts the artifact), then poison the entry's literal history
    // with a same-shape different-literal query, then a true hit.
    let miss = run(ens);
    let mut shifted = query.clone();
    shifted.predicates = query.predicates.iter().map(shift_literals).collect();
    let _ = run_shifted(ens, db, &shifted, query);
    let hit = run(ens);

    match (&cold, &miss, &hit) {
        (Ok(c), Ok(m), Ok(h)) => {
            assert_eq!(c.value.to_bits(), m.value.to_bits(), "miss != cold");
            assert_eq!(c.variance.to_bits(), m.variance.to_bits());
            assert_eq!(c.value.to_bits(), h.value.to_bits(), "hit != cold");
            assert_eq!(c.variance.to_bits(), h.variance.to_bits());
        }
        (Err(_), Err(_), Err(_)) => {}
        other => panic!("cold/miss/hit disagree on success: {other:?}"),
    }

    // Prepared execution (scalar aggregates only, answerable queries only).
    if let (true, Ok(want)) = (query.group_by.is_empty(), &cold) {
        let mut prepared = ens.prepare(db, query).expect("valid query prepares");
        let lits = query_literals(query);
        for round in 0..2 {
            let got = prepared.execute(ens, db, &lits).unwrap();
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "prepared round {round} != cold"
            );
            assert_eq!(got.variance.to_bits(), want.variance.to_bits());
        }
    }
}

/// Run the shifted-literal twin through the same entry point (ignoring its
/// result — it exists only to overwrite the cached artifact's literals).
fn run_shifted(ens: &Ensemble, db: &Database, shifted: &Query, original: &Query) -> Option<f64> {
    let r = match original.aggregate {
        Aggregate::CountStar => estimate_count(ens, db, shifted),
        Aggregate::Avg(_) => estimate_avg(ens, db, shifted),
        Aggregate::Sum(_) => estimate_sum(ens, db, shifted),
    };
    r.ok().map(|e| e.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// COUNT over one or two tables (two tables = Case-3 combination on the
    /// single-table ensemble): cold ≡ miss ≡ hit ≡ prepared, bitwise, under
    /// randomized predicates including NULL literals and NULL-op shapes.
    #[test]
    fn count_cache_is_bitwise_transparent(
        two_tables_sel in 0u8..2,
        specs in prop::collection::vec((0u8..8, 0u8..8, -5i64..500, -5i64..500), 0..4),
    ) {
        let _guard = capacity_lock();
        let two_tables = two_tables_sel == 1;
        let (db, ens) = single_tables();
        let mut q = Query::count(if two_tables { vec![0, 1] } else { vec![0] });
        for &s in &specs {
            q.predicates.push(spec_predicate(two_tables, s));
        }
        assert_transparent(db, ens, &q, |e| estimate_count(e, db, &q));
    }

    /// AVG and SUM artifacts (fused count/avg bundles) stay transparent.
    #[test]
    fn avg_sum_cache_is_bitwise_transparent(
        sum_sel in 0u8..2,
        specs in prop::collection::vec((0u8..8, 0u8..6, -5i64..500, -5i64..500), 0..3),
    ) {
        let _guard = capacity_lock();
        let sum = sum_sel == 1;
        let (db, ens) = single_tables();
        let target = ColumnRef { table: 1, column: 3 };
        let agg = if sum { Aggregate::Sum(target) } else { Aggregate::Avg(target) };
        let mut q = Query::count(vec![0, 1]).aggregate(agg);
        for &s in &specs {
            q.predicates.push(spec_predicate(true, s));
        }
        let run = |e: &Ensemble| if sum { estimate_sum(e, db, &q) } else { estimate_avg(e, db, &q) };
        assert_transparent(db, ens, &q, run);
    }

    /// Inclusion–exclusion disjunction artifacts (one plan, 2^k − 1 signed
    /// terms) stay transparent across literal rebinds.
    #[test]
    fn disjunction_cache_is_bitwise_transparent(
        base in (0u8..8, 0u8..6, -5i64..500, -5i64..500),
        d1 in (0u8..8, 0u8..5, -5i64..500, -5i64..500),
        d2 in (0u8..8, 0u8..5, -5i64..500, -5i64..500),
    ) {
        let _guard = capacity_lock();
        let (db, ens) = single_tables();
        let mut q = Query::count(vec![0]);
        q.predicates.push(spec_predicate(false, base));
        let disjuncts = vec![vec![spec_predicate(false, d1)], vec![spec_predicate(false, d2)]];

        ens.set_plan_cache_capacity(0);
        let cold = estimate_count_disjunction(ens, db, &q, &disjuncts);
        ens.set_plan_cache_capacity(256);
        let miss = estimate_count_disjunction(ens, db, &q, &disjuncts);
        // Poison with shifted literals (base + disjuncts), then hit.
        let mut sq = q.clone();
        sq.predicates = q.predicates.iter().map(shift_literals).collect();
        let sd: Vec<Vec<Predicate>> = disjuncts
            .iter()
            .map(|d| d.iter().map(shift_literals).collect())
            .collect();
        let _ = estimate_count_disjunction(ens, db, &sq, &sd);
        let hit = estimate_count_disjunction(ens, db, &q, &disjuncts);
        match (&cold, &miss, &hit) {
            (Ok(c), Ok(m), Ok(h)) => {
                prop_assert_eq!(c.value.to_bits(), m.value.to_bits(), "miss != cold");
                prop_assert_eq!(c.value.to_bits(), h.value.to_bits(), "hit != cold");
                prop_assert_eq!(c.variance.to_bits(), h.variance.to_bits());
            }
            (Err(_), Err(_), Err(_)) => {}
            other => prop_assert!(false, "cold/miss/hit disagree: {:?}", other),
        }
    }
}

/// AQP GROUP BY builds its template per call: first and repeated grouped
/// queries stay bitwise identical to the cache-disabled path.
#[test]
fn grouped_aqp_is_cache_transparent() {
    let (db, ens) = fresh_ensemble(31);
    let q = Query::count(vec![0, 1])
        .aggregate(Aggregate::Avg(ColumnRef {
            table: 1,
            column: 3,
        }))
        .group(0, 2);

    ens.set_plan_cache_capacity(0);
    let cold = execute_aqp(&ens, &db, &q).unwrap();
    ens.set_plan_cache_capacity(256);
    let miss = execute_aqp(&ens, &db, &q).unwrap();
    let hit = execute_aqp(&ens, &db, &q).unwrap();

    for out in [&miss, &hit] {
        let (a, b) = (cold.groups(), out.groups());
        assert_eq!(a.len(), b.len());
        for ((ka, ra), (kb, rb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            assert_eq!(ra.value.to_bits(), rb.value.to_bits());
            assert_eq!(ra.ci_low.to_bits(), rb.ci_low.to_bits());
            assert_eq!(ra.ci_high.to_bits(), rb.ci_high.to_bits());
        }
    }
}

/// Satellite 2: hit/miss/entry accounting. A fresh shape misses once and
/// hits on every repeat; distinct shapes occupy distinct entries.
#[test]
fn cache_stats_count_hits_and_misses() {
    let (db, ens) = fresh_ensemble(53);
    let q1 = Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
    // Same shape, different literal — must share q1's artifact.
    let q1b = Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1)));
    // Different shape (operator differs).
    let q2 = Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Le, Value::Int(1)));

    let s0 = ens.plan_cache_stats();
    assert_eq!((s0.hits, s0.misses, s0.entries), (0, 0, 0), "starts empty");

    estimate_count(&ens, &db, &q1).unwrap();
    let s1 = ens.plan_cache_stats();
    assert_eq!(s1.hits, 0);
    assert_eq!(s1.misses, 1);
    assert_eq!(s1.entries, 1);

    estimate_count(&ens, &db, &q1b).unwrap();
    estimate_count(&ens, &db, &q1).unwrap();
    let s2 = ens.plan_cache_stats();
    assert_eq!(s2.hits, 2, "literal-only variants hit the same artifact");
    assert_eq!(s2.misses, 1);
    assert_eq!(s2.entries, 1);

    estimate_count(&ens, &db, &q2).unwrap();
    let s3 = ens.plan_cache_stats();
    assert_eq!(s3.misses, 2, "new shape misses");
    assert_eq!(s3.entries, 2);

    // Prepared queries go through the same artifact tier.
    let mut p = ens.prepare(&db, &q1).unwrap();
    assert!(p.is_bound(), "discoverable shape must bind");
    let s4 = ens.plan_cache_stats();
    assert_eq!(s4.hits, s3.hits + 1, "prepare of a seen shape is a hit");
    p.execute(&ens, &db, &query_literals(&q1)).unwrap();
    let s5 = ens.plan_cache_stats();
    assert_eq!(
        (s5.hits, s5.misses),
        (s4.hits, s4.misses),
        "prepared execute never touches the cache"
    );
}

/// LRU eviction: overflowing a tiny cache evicts the least-recently-used
/// entry and counts it.
#[test]
fn lru_evicts_oldest_shape() {
    let (db, ens) = fresh_ensemble(59);
    ens.set_plan_cache_capacity(2);
    let q = |op: CmpOp| Query::count(vec![0]).filter(0, 1, PredOp::Cmp(op, Value::Int(40)));
    estimate_count(&ens, &db, &q(CmpOp::Le)).unwrap(); // A
    estimate_count(&ens, &db, &q(CmpOp::Ge)).unwrap(); // B
    estimate_count(&ens, &db, &q(CmpOp::Le)).unwrap(); // touch A → B is LRU
    estimate_count(&ens, &db, &q(CmpOp::Lt)).unwrap(); // C evicts B
    let s = ens.plan_cache_stats();
    assert_eq!(s.evictions, 1);
    assert_eq!(s.entries, 2);
    let hits = s.hits;
    estimate_count(&ens, &db, &q(CmpOp::Le)).unwrap(); // A survived
    assert_eq!(ens.plan_cache_stats().hits, hits + 1);
    estimate_count(&ens, &db, &q(CmpOp::Ge)).unwrap(); // B was evicted
    assert_eq!(ens.plan_cache_stats().misses, s.misses + 1);
}

/// Epoch invalidation: every maintenance operation bumps the plan epoch, so
/// (a) outstanding prepared queries fail with `StalePlan`, (b) a cached
/// artifact from the old epoch is never reused — the post-update estimate
/// equals a cold plan on the updated ensemble, bitwise.
#[test]
fn epoch_invalidation_never_reuses_stale_plans() {
    let q = Query::count(vec![0]).filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(40)));
    fn customer_row(id: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(30), Value::Int(1)]
    }

    type Maintenance = fn(&mut Ensemble, &mut Database);
    let ops: Vec<(&str, Maintenance)> = vec![
        ("apply_insert", |e, db| {
            e.apply_insert(db, 0, &customer_row(900_001)).unwrap()
        }),
        ("apply_insert_batch", |e, db| {
            e.apply_insert_batch(db, 0, &[customer_row(900_002), customer_row(900_003)])
                .unwrap()
        }),
        ("absorb_insert", |e, db| {
            db.table_mut(0).push_row(&customer_row(900_004)).unwrap();
            e.absorb_insert(db, 0, &customer_row(900_004)).unwrap()
        }),
        ("apply_delete", |e, db| e.apply_delete(db, 0, 5).unwrap()),
        ("refresh_join_counts", |e, db| {
            e.refresh_join_counts(db).unwrap()
        }),
    ];

    for (name, op) in ops {
        let (mut db, mut ens) = fresh_ensemble(61);
        // Seed the cache and a prepared query at the old epoch.
        estimate_count(&ens, &db, &q).unwrap();
        let mut prepared = ens.prepare(&db, &q).unwrap();
        let epoch_before = ens.plan_epoch();

        op(&mut ens, &mut db);
        assert!(
            ens.plan_epoch() > epoch_before,
            "{name} must bump the plan epoch"
        );
        assert!(
            matches!(
                prepared.execute(&ens, &db, &query_literals(&q)),
                Err(DeepDbError::StalePlan)
            ),
            "{name}: stale prepared query must be rejected"
        );

        // Old-epoch artifact is unreachable: the warm path re-plans and
        // matches a fully cold plan on the updated ensemble.
        let warm = estimate_count(&ens, &db, &q).unwrap();
        ens.set_plan_cache_capacity(0);
        let cold = estimate_count(&ens, &db, &q).unwrap();
        assert_eq!(
            warm.value.to_bits(),
            cold.value.to_bits(),
            "{name}: warm post-update estimate must equal cold re-plan"
        );

        // Re-preparing against the new epoch works and agrees with cold.
        ens.set_plan_cache_capacity(256);
        let mut fresh = ens.prepare(&db, &q).unwrap();
        let got = fresh.execute(&ens, &db, &query_literals(&q)).unwrap();
        assert_eq!(got.value.to_bits(), cold.value.to_bits(), "{name}");
    }
}

/// The pruning active-set side table: populated by warm executions, keyed
/// per (member, column-set), excluded from hit/miss/entry accounting, and
/// cleared wholesale the first time it is touched after **any** of the five
/// maintenance operations bumps the plan epoch — so a pruned sweep can
/// never run over a sub-DAG marked for a retired model generation.
#[test]
fn active_set_side_table_tracks_epochs() {
    let q = Query::count(vec![0]).filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(40)));
    let q2 = Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1)));
    fn customer_row(id: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(30), Value::Int(1)]
    }

    type Maintenance = fn(&mut Ensemble, &mut Database);
    let ops: Vec<(&str, Maintenance)> = vec![
        ("apply_insert", |e, db| {
            e.apply_insert(db, 0, &customer_row(910_001)).unwrap()
        }),
        ("apply_insert_batch", |e, db| {
            e.apply_insert_batch(db, 0, &[customer_row(910_002), customer_row(910_003)])
                .unwrap()
        }),
        ("absorb_insert", |e, db| {
            db.table_mut(0).push_row(&customer_row(910_004)).unwrap();
            e.absorb_insert(db, 0, &customer_row(910_004)).unwrap()
        }),
        ("apply_delete", |e, db| e.apply_delete(db, 0, 5).unwrap()),
        ("refresh_join_counts", |e, db| {
            e.refresh_join_counts(db).unwrap()
        }),
    ];

    for (name, op) in ops {
        let (mut db, mut ens) = fresh_ensemble(67);

        estimate_count(&ens, &db, &q).unwrap();
        let s1 = ens.plan_cache_stats();
        assert!(s1.active_sets >= 1, "{name}: warm run caches a set: {s1:?}");
        assert_eq!(
            (s1.misses, s1.entries),
            (1, 1),
            "{name}: active sets never count as plan entries"
        );

        // Repeats reuse the cached sets; accounting sees only the artifact.
        estimate_count(&ens, &db, &q).unwrap();
        let s2 = ens.plan_cache_stats();
        assert_eq!(s2.active_sets, s1.active_sets, "{name}: repeat reuses");
        assert_eq!((s2.hits, s2.misses), (s1.hits + 1, s1.misses), "{name}");

        // A different constrained-column set occupies its own key.
        estimate_count(&ens, &db, &q2).unwrap();
        let s3 = ens.plan_cache_stats();
        assert!(s3.active_sets > s2.active_sets, "{name}: new column set");

        // The maintenance op retires the whole side table: the next warm
        // run starts from empty and rebuilds only its own sets, and its
        // estimate still equals a cold plan on the updated ensemble.
        op(&mut ens, &mut db);
        let warm = estimate_count(&ens, &db, &q).unwrap();
        let s4 = ens.plan_cache_stats();
        assert_eq!(
            s4.active_sets, s1.active_sets,
            "{name}: stale sets dropped, only the live query's rebuilt"
        );
        ens.set_plan_cache_capacity(0);
        let cold = estimate_count(&ens, &db, &q).unwrap();
        assert_eq!(
            warm.value.to_bits(),
            cold.value.to_bits(),
            "{name}: pruned warm estimate after epoch bump must equal cold"
        );
    }
}

/// Prepared queries reject wrong literal arity, and rebinding actually
/// changes the answer (matching a cold plan of the rebound query).
#[test]
fn prepared_rebinding_matches_cold_plans_per_literal_set() {
    let _guard = capacity_lock();
    let (db, ens) = single_tables();
    let template = |age: i64| {
        Query::count(vec![0]).filter(0, 1, PredOp::Between(Value::Int(20), Value::Int(age)))
    };
    let mut prepared = ens.prepare(db, &template(40)).unwrap();
    assert!(prepared.is_bound());
    assert_eq!(prepared.n_literals(), 2);
    assert!(matches!(
        prepared.execute(ens, db, &[20.0]),
        Err(DeepDbError::Unsupported(_))
    ));
    for age in [25i64, 40, 60, 85] {
        let q = template(age);
        let got = prepared.execute(ens, db, &query_literals(&q)).unwrap();
        ens.set_plan_cache_capacity(0);
        let cold = estimate_count(ens, db, &q).unwrap();
        ens.set_plan_cache_capacity(256);
        assert_eq!(got.value.to_bits(), cold.value.to_bits(), "age {age}");
        assert_eq!(got.variance.to_bits(), cold.variance.to_bits());
    }
}

/// GROUP BY queries are not preparable (they go through `execute_aqp`).
#[test]
fn prepare_rejects_group_by() {
    let (db, ens) = single_tables();
    let q = Query::count(vec![0]).group(0, 2);
    assert!(matches!(
        ens.prepare(db, &q),
        Err(DeepDbError::Unsupported(_))
    ));
}
