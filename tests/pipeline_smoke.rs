//! Tier-1 smoke test of the one execute path: every route to the sweep — a
//! cold plan (cache off), the miss that builds the entry, a hit on a working
//! set another literal set just used, a `PreparedQuery`, `ServeFront::serve`
//! — answers bit for bit the same, before and after the plan epoch moves,
//! and two threads sharing one entry's working-set pool never see anything
//! else. Single-table members, so the two-table queries take the Case-3
//! combination path. The routes that plan per call — GROUP BY, batched
//! count-values, ML — must not notice the cache at all.

use std::sync::Barrier;

use deepdb::prelude::*;
use deepdb::storage::fixtures::correlated_customer_order;
use deepdb::storage::Predicate;

const AMOUNT: ColumnRef = ColumnRef {
    table: 1,
    column: 3,
};

/// Value and variance bits of an estimate — what "the same answer" means.
fn bits(e: Result<deepdb::Estimate, DeepDbError>) -> Vec<u64> {
    let e = e.unwrap();
    vec![e.value.to_bits(), e.variance.to_bits()]
}

fn cmp(table: usize, column: usize, op: CmpOp, v: i64) -> Predicate {
    Predicate::new(table, column, PredOp::Cmp(op, Value::Int(v)))
}

/// One query shape with two literal sets, and how to run it one-shot.
struct Case {
    name: &'static str,
    /// `[the literals under test, a same-shape twin with other literals]`.
    queries: [Query; 2],
    disjuncts: [Vec<Vec<Predicate>>; 2],
    /// Scalar aggregates also go through `prepare` and `ServeFront::serve`.
    preparable: bool,
}

impl Case {
    fn one_shot(&self, ens: &Ensemble, db: &Database, i: usize) -> Vec<u64> {
        let q = &self.queries[i];
        if self.name == "aqp scalar" {
            let r = execute_aqp(ens, db, q).unwrap().scalar().unwrap();
            return [r.value, r.ci_low, r.ci_high, r.count_estimate]
                .map(f64::to_bits)
                .to_vec();
        }
        bits(match q.aggregate {
            Aggregate::CountStar => {
                compile::estimate_count_disjunction(ens, db, q, &self.disjuncts[i])
            }
            Aggregate::Avg(_) => compile::estimate_avg(ens, db, q),
            Aggregate::Sum(_) => compile::estimate_sum(ens, db, q),
        })
    }
}

fn cases() -> Vec<Case> {
    let shape = |age: i64, channel: i64| {
        Query::count(vec![0, 1])
            .filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(age)))
            .filter(1, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(channel)))
    };
    let scalar = |name, agg: Aggregate| Case {
        name,
        queries: [shape(55, 0).aggregate(agg), shape(41, 1).aggregate(agg)],
        disjuncts: [Vec::new(), Vec::new()],
        preparable: name != "aqp scalar",
    };
    vec![
        scalar("count", Aggregate::CountStar),
        scalar("avg", Aggregate::Avg(AMOUNT)),
        scalar("sum", Aggregate::Sum(AMOUNT)),
        scalar("aqp scalar", Aggregate::Avg(AMOUNT)),
        Case {
            name: "disjunction",
            queries: [
                Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
                Query::count(vec![0]).filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(2))),
            ],
            disjuncts: [
                vec![
                    vec![cmp(0, 1, CmpOp::Lt, 30)],
                    vec![cmp(0, 1, CmpOp::Ge, 70)],
                ],
                vec![
                    vec![cmp(0, 1, CmpOp::Lt, 25)],
                    vec![cmp(0, 1, CmpOp::Ge, 61)],
                ],
            ],
            preparable: false,
        },
    ]
}

/// cold ≡ miss ≡ hit-after-different-literals ≡ prepared ≡ served, bitwise,
/// for every case, at the ensemble's current epoch.
fn assert_all_routes_agree(ens: &Ensemble, db: &Database, stage: &str) {
    for case in cases() {
        let name = case.name;
        ens.set_plan_cache_capacity(0);
        let cold = case.one_shot(ens, db, 0);
        ens.set_plan_cache_capacity(256);

        let miss = case.one_shot(ens, db, 0);
        case.one_shot(ens, db, 1); // other literals through the same working set
        let hit = case.one_shot(ens, db, 0);
        assert_eq!(miss, cold, "{stage}, {name}: miss != cold");
        assert_eq!(hit, cold, "{stage}, {name}: hit != cold");
        let s = ens.plan_cache_stats();
        assert_eq!(
            (s.misses, s.hits, s.entries),
            (1, 2, 1),
            "{stage}, {name}: one entry, built once, then hit"
        );

        if case.preparable {
            let [q, twin] = &case.queries;
            let mut prepared = ens.prepare(db, q).unwrap();
            assert!(prepared.is_bound(), "{stage}, {name}");
            // Rebind away and back: the working set carries no history.
            let got = [q, twin, q].map(|l| bits(prepared.execute(ens, db, &query_literals(l))));
            assert_eq!(got[0], cold, "{stage}, {name}: prepared != cold");
            assert_eq!(got[2], cold, "{stage}, {name}: rebound prepared != cold");
            let served = bits(ServeFront::new(ens, db).serve(q, None));
            assert_eq!(served, cold, "{stage}, {name}: served != cold");
        }
    }
}

fn value_bits(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Null => u64::MAX,
    }
}

/// A route that plans per call, flattened to the bits of its answer.
type PerCallRoute = fn(&Ensemble, &Database) -> Vec<u64>;

/// GROUP BY (one and two columns, AVG and COUNT), batched count-values
/// (covered by one member, and Case-3 combined) and the ML batches.
fn per_call_routes() -> Vec<(&'static str, PerCallRoute)> {
    fn grouped(ens: &Ensemble, db: &Database, q: &Query) -> Vec<u64> {
        let out = execute_aqp(ens, db, q).unwrap();
        assert!(!out.groups().is_empty());
        let row = |(key, r): &(Vec<Value>, deepdb::AqpResult)| {
            let result = [r.value, r.ci_low, r.ci_high, r.count_estimate].map(f64::to_bits);
            key.iter().map(value_bits).chain(result).collect::<Vec<_>>()
        };
        out.groups().iter().flat_map(row).collect()
    }
    fn shared(tables: Vec<usize>) -> Query {
        Query::count(tables).filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(55)))
    }
    fn count_values(ens: &Ensemble, db: &Database, q: &Query, target: ColumnRef) -> Vec<u64> {
        let values = [Value::Int(0), Value::Int(1), Value::Int(7)];
        let counts = compile::estimate_count_values(ens, db, q, target, &values).unwrap();
        counts.into_iter().map(f64::to_bits).collect()
    }
    const REGION: ColumnRef = ColumnRef {
        table: 0,
        column: 2,
    };
    const CHANNEL: ColumnRef = ColumnRef {
        table: 1,
        column: 2,
    };
    vec![
        ("group by, avg", |ens, db| {
            grouped(
                ens,
                db,
                &shared(vec![0, 1])
                    .aggregate(Aggregate::Avg(AMOUNT))
                    .group(0, 2),
            )
        }),
        ("group by two columns, count", |ens, db| {
            grouped(ens, db, &shared(vec![0, 1]).group(0, 2).group(1, 2))
        }),
        ("count-values, covered", |ens, db| {
            count_values(ens, db, &shared(vec![0]), REGION)
        }),
        ("count-values, case 3", |ens, db| {
            count_values(ens, db, &shared(vec![0, 1]), CHANNEL)
        }),
        ("regression batch", |ens, db| {
            let rows = [[(2, Value::Int(0))], [(2, Value::Int(1))]];
            let got = deepdb::ml::predict_regression_batch(ens, db, 1, 3, &rows).unwrap();
            got.into_iter().map(f64::to_bits).collect()
        }),
        ("classification batch", |ens, db| {
            let rows = [[(1, Value::Int(30))], [(1, Value::Int(70))]];
            let got = deepdb::ml::predict_classification_batch(ens, db, 0, 2, &rows).unwrap();
            got.iter().map(|v| value_bits(&v.unwrap())).collect()
        }),
    ]
}

/// cache off ≡ first cached call ≡ repeat ≡ after `invalidate_plans()`,
/// bitwise — and none of these routes leaves anything but plan artifacts
/// (here: nothing) in the cache.
fn assert_per_call_routes_ignore_the_cache(ens: &Ensemble, db: &Database, stage: &str) {
    for (name, run) in per_call_routes() {
        ens.set_plan_cache_capacity(0);
        let cold = run(ens, db);
        ens.set_plan_cache_capacity(256);
        let first = run(ens, db);
        let repeat = run(ens, db);
        let s = ens.plan_cache_stats();
        assert_eq!(
            (s.entries, s.hits, s.misses),
            (0, 0, 0),
            "{stage}, {name}: the cache holds and counts plans only"
        );
        ens.invalidate_plans();
        let invalidated = run(ens, db);
        assert_eq!(first, cold, "{stage}, {name}: first cached call != cold");
        assert_eq!(repeat, cold, "{stage}, {name}: repeat != cold");
        assert_eq!(
            invalidated, cold,
            "{stage}, {name}: after invalidation != cold"
        );
    }
}

#[test]
fn every_route_answers_bitwise_the_same_across_epochs_and_threads() {
    let mut db = correlated_customer_order(700, 29);
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables,
        sample_size: 6_000,
        correlation_sample: 600,
        ..EnsembleParams::default()
    };
    let mut ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    let [count, twin] = cases().swap_remove(0).queries;
    let (count, twin) = (&count, &twin);

    assert_all_routes_agree(&ens, &db, "as learned");
    assert_per_call_routes_ignore_the_cache(&ens, &db, "as learned");

    // The epoch moves without the models changing: nothing from the old
    // epoch survives, and a prepared query from it says so.
    let mut stale = ens.prepare(&db, count).unwrap();
    let evictions = ens.plan_cache_stats().evictions;
    ens.invalidate_plans();
    assert!(matches!(
        stale.execute(&ens, &db, &query_literals(count)),
        Err(DeepDbError::StalePlan)
    ));
    compile::estimate_count(&ens, &db, count).unwrap();
    let s = ens.plan_cache_stats();
    assert!(s.entries <= 1, "dead entries must not squat: {s:?}");
    assert_eq!(s.evictions, evictions, "invalidation is not eviction");
    assert_all_routes_agree(&ens, &db, "after invalidate_plans");

    // The epoch moves because the models changed.
    let row = [Value::Int(900_001), Value::Int(33), Value::Int(1)];
    ens.apply_insert(&mut db, 0, &row).unwrap();
    assert_all_routes_agree(&ens, &db, "after apply_insert");
    assert_per_call_routes_ignore_the_cache(&ens, &db, "after apply_insert");

    // Two threads on one shape contend for the entry's working-set pool
    // (pop-or-clone at checkout, push at check-in) while alternating
    // literals; every answer is one of the two cold answers.
    ens.set_plan_cache_capacity(0);
    let want = [count, twin].map(|q| bits(compile::estimate_count(&ens, &db, q)));
    ens.set_plan_cache_capacity(256);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let (ens, db, start, want) = (&ens, &db, &start, &want);
            s.spawn(move || {
                start.wait();
                for round in 0..2_000 {
                    let i = (t + round) % 2;
                    let got = bits(compile::estimate_count(ens, db, [count, twin][i]));
                    assert_eq!(got, want[i], "thread {t}, round {round}");
                }
            });
        }
    });
    assert_eq!(ens.plan_cache_stats().entries, 1);
}
