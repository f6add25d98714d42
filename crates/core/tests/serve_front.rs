//! Integration suite for the concurrent serving front-end
//! ([`deepdb_core::ServeFront`]): load-driven batching (an idle front never
//! waits; arrivals behind a busy sweep lane fuse into one sweep per touched
//! member, bitwise-equal to unfused execution), bounded-admission
//! backpressure, deadline handling with graceful window degradation, panic
//! isolation with pool self-healing, and `StalePlan` recovery under real
//! and injected maintenance races.
//!
//! The front only batches under contention, so the tests that need
//! co-arrival stage it: a one-lane front (`threads: 1`) whose first sweep
//! tile is scripted to sleep [`HOLD`] — the *blocker* — with the clients
//! under test queueing behind it.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use deepdb_core::compile::{estimate_avg, estimate_count, estimate_sum};
use deepdb_core::{
    compile, query_literals, DeepDbError, Ensemble, EnsembleBuilder, EnsembleParams,
    EnsembleStrategy, Estimate, Fault, FaultPlan, FaultSite, ServeConfig, ServeFront,
};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{Aggregate, CmpOp, ColumnRef, Database, PredOp, Query, Value};

/// Two single-table members, so two-table queries exercise Case-3
/// combination (both members touched by one fused plan).
fn build_fixture() -> (Database, Ensemble) {
    let db = correlated_customer_order(1000, 21);
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables,
        sample_size: 10_000,
        correlation_sample: 1_000,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    (db, ens)
}

/// The fixture the tests share. Tests that count batches or sweeps build a
/// private one instead: a neighbour's epoch bump (→ a stale retry) or sweep
/// would show up in their counts.
fn fixture() -> &'static (Database, Ensemble) {
    static CELL: OnceLock<(Database, Ensemble)> = OnceLock::new();
    CELL.get_or_init(build_fixture)
}

/// A small pool of distinct query shapes: single-table and two-table
/// (Case-3) counts, an AVG, and a SUM.
fn shape_query(db: &Database, i: usize) -> Query {
    let customer = db.table_id("customer").unwrap();
    let orders = db.table_id("orders").unwrap();
    match i % 6 {
        0 => Query::count(vec![customer]).filter(
            customer,
            1,
            PredOp::Cmp(CmpOp::Le, Value::Int(40 + (i as i64 % 30))),
        ),
        1 => Query::count(vec![customer, orders]).filter(
            orders,
            2,
            PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 2)),
        ),
        2 => Query::count(vec![orders])
            .aggregate(Aggregate::Avg(ColumnRef {
                table: orders,
                column: 3,
            }))
            .filter(orders, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 2))),
        3 => Query::count(vec![orders])
            .aggregate(Aggregate::Sum(ColumnRef {
                table: orders,
                column: 3,
            }))
            .filter(
                orders,
                3,
                PredOp::Cmp(CmpOp::Ge, Value::Int(50 + (i as i64 % 100))),
            ),
        4 => Query::count(vec![customer, orders])
            .filter(
                customer,
                2,
                PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 3)),
            )
            .filter(orders, 3, PredOp::Cmp(CmpOp::Le, Value::Int(200))),
        _ => Query::count(vec![customer]).filter(
            customer,
            2,
            PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 3)),
        ),
    }
}

/// Unfused reference: the canonical single-query paths.
fn reference(db: &Database, ens: &Ensemble, q: &Query) -> Estimate {
    match q.aggregate {
        Aggregate::CountStar => estimate_count(ens, db, q).unwrap(),
        Aggregate::Avg(_) => estimate_avg(ens, db, q).unwrap(),
        Aggregate::Sum(_) => estimate_sum(ens, db, q).unwrap(),
    }
}

fn bits_eq(a: &Estimate, b: &Estimate) -> bool {
    a.value.to_bits() == b.value.to_bits() && a.variance.to_bits() == b.variance.to_bits()
}

/// How long a blocker's sweep holds the lane: ample for freshly spawned
/// clients to plan and queue behind it, short next to the windows the
/// tests set (which nothing may wait out).
const HOLD: Duration = Duration::from_millis(300);
/// A window no passing test can afford to sleep through.
const LONG_WINDOW: Duration = Duration::from_secs(30);

/// Spin until `cond` holds, failing after 10 s — so no test can hang on a
/// state the front never reaches.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

/// A one-lane front whose sweep tiles are scripted in claim order: the
/// first tile claimed — the blocker's — sleeps [`HOLD`], the next ones get
/// `then`, the rest behave.
fn one_lane_front<'a>(
    (db, ens): &'a (Database, Ensemble),
    max_batch: usize,
    then: &[Option<Fault>],
) -> ServeFront<'a> {
    let tiles = std::iter::once(Some(Fault::Delay(HOLD))).chain(then.iter().copied());
    ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: LONG_WINDOW,
            max_batch,
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .with_faults(FaultPlan::new(0).with_script(FaultSite::TileStart, tiles))
}

/// The request that holds a [`one_lane_front`]'s lane — a single-table
/// COUNT, so its sweep is exactly one tile — and its unfused answer.
fn blocker((db, ens): &(Database, Ensemble)) -> (Query, Estimate) {
    let q = shape_query(db, 0);
    let want = reference(db, ens, &q);
    (q, want)
}

/// Run `arrivals` while the [`blocker`] holds the only lane of a
/// [`one_lane_front`]. Returns once the blocker has answered — late, but
/// bitwise-correctly — too.
fn behind_a_blocker<T>(
    front: &ServeFront<'_>,
    (blocker, want): &(Query, Estimate),
    arrivals: impl FnOnce() -> T,
) -> T {
    std::thread::scope(|s| {
        let occupant = s.spawn(|| front.serve(blocker, None));
        wait_until("the blocker to take the lane", || {
            front.stats().batches == 1
        });
        let out = arrivals();
        let got = occupant.join().unwrap().unwrap();
        assert!(bits_eq(&got, want), "blocker got {got:?}, want {want:?}");
        out
    })
}

/// Serve every query from its own thread, all released together.
fn serve_together(front: &ServeFront<'_>, queries: &[Query]) -> Vec<Result<Estimate, DeepDbError>> {
    let barrier = Barrier::new(queries.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    front.serve(q, None)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// K clients queued behind a busy lane are served by ONE fused sweep per
/// touched member (the batch goes the moment it is full), and every answer
/// is bitwise-equal to the unfused single-query path.
#[test]
fn fused_batch_is_bitwise_equal_and_sweeps_each_member_once() {
    let fx = build_fixture();
    let (db, ens) = &fx;
    const K: usize = 6;
    let front = one_lane_front(&fx, K, &[]);
    let blocker = blocker(&fx);
    let queries: Vec<Query> = (0..K).map(|i| shape_query(db, i)).collect();
    let refs: Vec<Estimate> = queries.iter().map(|q| reference(db, ens, q)).collect();

    let before: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
    let got = behind_a_blocker(&front, &blocker, || serve_together(&front, &queries));

    for (g, r) in got.iter().zip(&refs) {
        let g = g.as_ref().unwrap();
        assert!(bits_eq(g, r), "fused {g:?} != unfused {r:?}");
    }
    let stats = front.stats();
    assert_eq!(stats.batches, 2, "blocker + one fused batch: {stats:?}");
    assert_eq!(stats.fused_requests, K as u64);
    assert_eq!(stats.solo_fastpath, 1, "only the blocker swept alone");
    // One fused sweep per member across all K clients, on top of the
    // blocker's one sweep of its own table (the reference runs above are
    // not counted: `before` was snapshotted after them).
    let after: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
    for (m, (&b, &a)) in before.iter().zip(&after).enumerate() {
        assert!(
            (1..=2).contains(&(a - b)),
            "member {m} swept {} times for blocker + one batch",
            a - b
        );
    }
}

/// Batches come from contention, not from a timer: one client on an idle
/// front never waits, however long the window.
#[test]
fn idle_front_sweeps_at_once_whatever_the_window() {
    let (db, ens) = &build_fixture();
    let window = Duration::from_secs(1);
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window,
            ..ServeConfig::default()
        },
    );
    const N: u64 = 50;
    let q = shape_query(db, 1);
    let want = reference(db, ens, &q);
    let t0 = Instant::now();
    for _ in 0..N {
        let got = front.serve(&q, None).unwrap();
        assert!(bits_eq(&got, &want));
    }
    let took = t0.elapsed();
    assert!(took < window / 2, "{N} lone requests took {took:?}");
    let stats = front.stats();
    assert_eq!((stats.batches, stats.solo_fastpath), (N, N), "{stats:?}");
    assert_eq!(stats.fused_requests, 0);
}

/// Arrivals during a sweep wait for the lane, not for the window: the
/// executor's release hands them over as exactly one fused batch.
#[test]
fn arrivals_behind_a_busy_lane_fuse_when_it_frees() {
    let fx = build_fixture();
    let (db, ens) = &fx;
    const K: usize = 4;
    let front = one_lane_front(&fx, 64, &[]); // never full: only the lane opens the batch
    let queries: Vec<Query> = (0..K).map(|i| shape_query(db, i + 1)).collect();

    let blocker = blocker(&fx);
    let t0 = Instant::now();
    let got = behind_a_blocker(&front, &blocker, || serve_together(&front, &queries));
    let took = t0.elapsed();

    for (g, q) in got.iter().zip(&queries) {
        assert!(bits_eq(g.as_ref().unwrap(), &reference(db, ens, q)));
    }
    assert!(
        took >= HOLD,
        "the batch jumped the busy lane after {took:?}"
    );
    assert!(took < LONG_WINDOW / 4, "waited out the window: {took:?}");
    let stats = front.stats();
    assert_eq!(stats.batches, 2, "blocker + one fused batch: {stats:?}");
    assert_eq!(stats.fused_requests, K as u64);
}

/// A leader's wait for a lane is bounded by its own deadline, not only by
/// the window.
#[test]
fn leader_deadline_bounds_the_lane_wait() {
    let fx = build_fixture();
    let front = one_lane_front(&fx, 64, &[]);
    let q = shape_query(&fx.0, 1);
    let (r, took) = behind_a_blocker(&front, &blocker(&fx), || {
        let t0 = Instant::now();
        let r = front.serve(&q, Some(Duration::from_millis(5)));
        (r, t0.elapsed())
    });
    assert_eq!(r, Err(DeepDbError::DeadlineExceeded));
    assert!(took < HOLD / 2, "leader outwaited its deadline: {took:?}");
    assert_eq!(front.stats().deadline_misses, 1);
}

/// A batch that panics or is cancelled still frees its lane — a leaked lane
/// would make every later leader sleep a full window.
#[test]
fn lane_is_released_after_panicked_and_cancelled_batches() {
    let (db, ens) = &build_fixture();
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: LONG_WINDOW,
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .with_faults(FaultPlan::new(0).with_script(FaultSite::TileStart, [Some(Fault::Panic)]));
    let q = shape_query(db, 0);
    let want = reference(db, ens, &q);
    let follow_up = |after: &str| {
        let t0 = Instant::now();
        let got = front.serve(&q, None).unwrap();
        assert!(bits_eq(&got, &want));
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "lane leaked by {after}: {took:?}"
        );
    };

    match front.serve(&q, None) {
        Err(DeepDbError::QueryPanicked(_)) => {}
        other => panic!("expected QueryPanicked, got {other:?}"),
    }
    follow_up("a panicked sweep");
    assert_eq!(
        front.serve(&q, Some(Duration::ZERO)),
        Err(DeepDbError::DeadlineExceeded)
    );
    follow_up("a cancelled sweep");
    assert_eq!(front.in_flight(), 0);
}

/// Admission is bounded: with capacity 1, a second concurrent request is
/// rejected with `Overloaded` before any work happens, and the occupant
/// still completes.
#[test]
fn overloaded_backpressure_rejects_beyond_capacity() {
    let (db, ens) = fixture();
    // The occupant sleeps at its cache lookup — after admission — so it is
    // still in flight when the second request arrives.
    let faults = FaultPlan::new(0).with_script(FaultSite::CacheLookup, [Some(Fault::Delay(HOLD))]);
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .with_faults(faults);
    let q = shape_query(db, 0);
    let want = reference(db, ens, &q);
    std::thread::scope(|s| {
        let occupant = s.spawn(|| front.serve(&q, None));
        wait_until("the occupant's admission", || front.in_flight() == 1);
        let rejected = front.serve(&q, None);
        assert_eq!(rejected, Err(DeepDbError::Overloaded));
        assert!(rejected.unwrap_err().is_retryable());
        let got = occupant.join().unwrap().unwrap();
        assert!(bits_eq(&got, &want));
    });
    assert_eq!(front.stats().rejected_overloaded, 1);
    assert_eq!(front.in_flight(), 0);
}

/// An expired deadline surfaces as `DeadlineExceeded` (the sweep is
/// cancelled cooperatively), shrinks the batching window, and clean
/// batches restore it.
#[test]
fn deadline_miss_shrinks_window_and_clean_batches_restore_it() {
    let (db, ens) = fixture();
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: Duration::from_millis(64),
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let q = shape_query(db, 1);
    assert_eq!(front.effective_window(), Duration::from_millis(64));
    let t0 = Instant::now();
    let r = front.serve(&q, Some(Duration::ZERO));
    let took = t0.elapsed();
    assert_eq!(r, Err(DeepDbError::DeadlineExceeded));
    assert!(
        took < Duration::from_millis(32),
        "an expired request sat in the window: {took:?}"
    );
    assert!(front.effective_window() < Duration::from_millis(64));
    assert!(front.stats().deadline_misses >= 1);

    // Clean traffic restores the window step by step.
    let want = reference(db, ens, &q);
    for _ in 0..4 {
        let got = front.serve(&q, None).unwrap();
        assert!(bits_eq(&got, &want));
    }
    assert_eq!(front.effective_window(), Duration::from_millis(64));
}

/// A panic inside the fused sweep fails only the client whose isolated
/// re-execution still faults; co-batched peers complete bitwise-correctly
/// and the pool keeps serving afterwards.
#[test]
fn sweep_panic_is_isolated_to_one_client_and_pool_self_heals() {
    let fx = build_fixture();
    let (db, ens) = &fx;
    const K: usize = 3;
    // After the blocker's tile: the fused sweep panics at its first tile,
    // then exactly one isolated re-execution panics; everything after
    // behaves. One lane and a never-full batch keep the tile claims in
    // that order (the fused sweep cannot start before the blocker is done).
    let front = one_lane_front(&fx, 64, &[Some(Fault::Panic), Some(Fault::Panic)]);
    let queries: Vec<Query> = (0..K).map(|i| shape_query(db, i)).collect();
    let refs: Vec<Estimate> = queries.iter().map(|q| reference(db, ens, q)).collect();

    let got = behind_a_blocker(&front, &blocker(&fx), || serve_together(&front, &queries));

    let mut panicked = 0;
    for (r, want) in got.iter().zip(&refs) {
        match r {
            Ok(e) => assert!(bits_eq(e, want), "survivor got {e:?}, want {want:?}"),
            Err(DeepDbError::QueryPanicked(_)) => panicked += 1,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one client absorbs the fault: {got:?}");
    let stats = front.stats();
    assert_eq!(stats.batches, 2, "blocker + one fused batch: {stats:?}");
    assert_eq!(stats.fused_requests, K as u64);
    assert_eq!(stats.isolated_fallbacks, K as u64);
    assert_eq!(stats.query_panics, 1);

    // Script exhausted: the same front (same pool) keeps answering
    // bitwise-correctly — the panic poisoned nothing and leaked no lane.
    let t0 = Instant::now();
    for (q, want) in queries.iter().zip(&refs) {
        let got = front.serve(q, None).unwrap();
        assert!(bits_eq(&got, want));
    }
    let took = t0.elapsed();
    assert!(took < LONG_WINDOW / 4, "lane leaked by the panic: {took:?}");
}

/// Injected epoch churn on every sweep: the internal one-shot retry fires,
/// and when maintenance never settles the request surfaces `StalePlan` —
/// never a stale answer.
#[test]
fn churning_maintenance_surfaces_stale_plan_after_one_retry() {
    let (db, ens) = fixture();
    let faults = FaultPlan::new(3)
        .with_epoch_bumps(1024)
        .only_at(FaultSite::TileStart);
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .with_faults(faults);
    let q = shape_query(db, 0);
    let r = front.serve(&q, None);
    assert_eq!(r, Err(DeepDbError::StalePlan));
    assert!(front.stats().stale_retries >= 1);
}

/// Real maintenance race: clients hammer the front while another thread
/// bumps the plan epoch. Every client gets a bitwise-correct answer or a
/// typed `StalePlan` — never a wrong answer — and serving recovers fully
/// once maintenance stops.
#[test]
fn concurrent_epoch_bumps_never_produce_wrong_answers() {
    let (db, ens) = fixture();
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    );
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    let queries: Vec<Query> = (0..CLIENTS).map(|i| shape_query(db, i)).collect();
    let refs: Vec<Estimate> = queries.iter().map(|q| reference(db, ens, q)).collect();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let maintenance = s.spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                ens.invalidate_plans();
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let handles: Vec<_> = queries
            .iter()
            .zip(&refs)
            .map(|(q, want)| {
                let front = &front;
                s.spawn(move || {
                    let mut ok = 0usize;
                    let mut stale = 0usize;
                    for _ in 0..ROUNDS {
                        match front.serve(q, None) {
                            Ok(e) => {
                                assert!(bits_eq(&e, want), "wrong answer under churn");
                                ok += 1;
                            }
                            Err(DeepDbError::StalePlan) => stale += 1,
                            Err(other) => panic!("unexpected error under churn: {other:?}"),
                        }
                    }
                    (ok, stale)
                })
            })
            .collect();
        let tallies: Vec<(usize, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        maintenance.join().unwrap();
        let total_ok: usize = tallies.iter().map(|t| t.0).sum();
        assert!(total_ok > 0, "churn starved every request: {tallies:?}");
    });

    // Maintenance settled: everything answers again.
    for (q, want) in queries.iter().zip(&refs) {
        let got = front.serve(q, None).unwrap();
        assert!(bits_eq(&got, want));
    }
}

/// `serve_prepared` transparently re-prepares on `StalePlan` (one shot):
/// after maintenance invalidates every plan, the same handle still answers
/// bitwise-correctly.
#[test]
fn serve_prepared_repreparess_once_on_stale_plan() {
    let (db, ens) = fixture();
    let front = ServeFront::new(ens, db);
    let q = shape_query(db, 4);
    let lits = query_literals(&q);
    let want = reference(db, ens, &q);

    let mut prepared = ens.prepare(db, &q).unwrap();
    let first = front.serve_prepared(&mut prepared, &lits, None).unwrap();
    assert!(bits_eq(&first, &want));

    // Maintenance lands between executions: the raw handle would fail
    // `StalePlan`, the front re-prepares and answers.
    ens.invalidate_plans();
    let before = front.stats().stale_retries;
    let second = front.serve_prepared(&mut prepared, &lits, None).unwrap();
    assert!(bits_eq(&second, &want));
    assert_eq!(front.stats().stale_retries, before + 1);

    // The re-prepared handle is current again: no further retries needed.
    let third = front.serve_prepared(&mut prepared, &lits, None).unwrap();
    assert!(bits_eq(&third, &want));
    assert_eq!(front.stats().stale_retries, before + 1);
}

/// GROUP BY is typed out of the scalar serving path.
#[test]
fn group_by_is_rejected_with_unsupported() {
    let (db, ens) = fixture();
    let front = ServeFront::new(ens, db);
    let customer = db.table_id("customer").unwrap();
    let q = Query::count(vec![customer]).group(customer, 2);
    match front.serve(&q, None) {
        Err(DeepDbError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// The ensemble-level cache and the serving path agree with AQP's central
/// dispatcher for the same query (sanity that serve uses the same
/// artifacts, not a divergent code path).
#[test]
fn serve_matches_compile_entry_points_bitwise() {
    let (db, ens) = fixture();
    let front = ServeFront::with_config(
        ens,
        db,
        ServeConfig {
            window: Duration::ZERO, // singleton batches
            ..ServeConfig::default()
        },
    );
    for i in 0..12 {
        let q = shape_query(db, i);
        let want = reference(db, ens, &q);
        let got = front.serve(&q, None).unwrap();
        assert!(bits_eq(&got, &want), "shape {i}: {got:?} vs {want:?}");
    }
    // estimate_cardinality is the COUNT fast path; cross-check one shape.
    let q = shape_query(db, 1);
    let card = compile::estimate_cardinality(ens, db, &q).unwrap();
    let got = front.serve(&q, None).unwrap();
    assert_eq!(card.to_bits(), got.value.to_bits());
}
