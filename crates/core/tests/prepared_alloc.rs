//! Acceptance check: the prepared-query execute path performs **zero heap
//! allocations** in steady state. A counting `#[global_allocator]` wraps the
//! system allocator; after a short warmup (thread-local sweep scratch and
//! the working set's grow-only leaf-value tables reach capacity), repeated
//! `PreparedQuery::execute` calls must not allocate at all — and a one-shot
//! plan-cache hit, which executes through the same pooled working set, pays
//! only for what wraps it (validation, the shape key, the literal vector).
//!
//! Everything runs in ONE `#[test]` so no concurrently running test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use deepdb_core::compile::estimate_count;
use deepdb_core::{query_literals, EnsembleBuilder, EnsembleParams, EnsembleStrategy, JoinOrderer};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{CmpOp, PredOp, Query, Value};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn prepared_execute_steady_state_allocates_nothing() {
    let db = correlated_customer_order(900, 13);
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables,
        sample_size: 8_000,
        correlation_sample: 800,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();

    // Covered single-table COUNT and a Case-3 two-table COUNT (the
    // single-table ensemble must combine both members).
    let scenarios = [
        Query::count(vec![0])
            .filter(0, 1, PredOp::Between(Value::Int(20), Value::Int(60)))
            .filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1))),
        Query::count(vec![0, 1])
            .filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(55)))
            .filter(1, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
    ];

    for (si, query) in scenarios.iter().enumerate() {
        let mut prepared = ens.prepare(&db, query).unwrap();
        assert!(prepared.is_bound(), "scenario {si} must bind");
        let mut literals = query_literals(query);

        // Warmup: grow the inline sweep tables and thread-local scratch.
        for _ in 0..3 {
            prepared.execute(&ens, &db, &literals).unwrap();
        }

        // Steady state: vary a literal each round (forcing real rebinds) and
        // demand zero allocations across 10 executions.
        let mut sink = 0.0;
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..10 {
            literals[0] = 20.0 + round as f64;
            sink += prepared.execute(&ens, &db, &literals).unwrap().value;
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "scenario {si}: prepared execute allocated {allocs} times in steady state"
        );
        assert!(sink.is_finite());

        // A one-shot hit of the same shape checks a working set out of the
        // entry the prepared query shares (the prepared query holds one, so
        // the warm-up grows a second), rebinds it and runs it: what is left
        // to allocate is validation's two BFS vectors, the shape key and the
        // literal vector.
        let mut q = query.clone();
        for _ in 0..3 {
            estimate_count(&ens, &db, &q).unwrap();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..10 {
            q.predicates[0].op = match si {
                0 => PredOp::Between(Value::Int(20 + round), Value::Int(60)),
                _ => PredOp::Cmp(CmpOp::Le, Value::Int(45 + round)),
            };
            sink += estimate_count(&ens, &db, &q).unwrap().value;
        }
        let per_op = (ALLOCS.load(Ordering::Relaxed) - before) / 10;
        assert!(
            per_op <= 12,
            "scenario {si}: a one-shot plan-cache hit allocated {per_op} times per op"
        );
        assert!(sink.is_finite());
    }

    // Join-order enumerator scoring rides the same path: after one warm call
    // per subset shape (which prepares and memoizes the sub-query), repeated
    // `subset_estimate` calls with fresh literals must not allocate either —
    // this is what keeps per-query planning overhead flat.
    let mut orderer = JoinOrderer::new();
    let mut query = Query::count(vec![0, 1])
        .filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(55)))
        .filter(1, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
    let subsets: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
    for _ in 0..3 {
        for s in subsets {
            orderer.subset_estimate(&ens, &db, &query, s);
        }
    }
    assert_eq!(orderer.shapes(), 3);

    let mut sink = 0.0;
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..10 {
        // Mutating the literal in place changes the binding, not the shape.
        query.predicates[0].op = PredOp::Cmp(CmpOp::Le, Value::Int(30 + round));
        for s in subsets {
            sink += orderer.subset_estimate(&ens, &db, &query, s);
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "subset_estimate allocated {allocs} times in steady state"
    );
    assert_eq!(orderer.shapes(), 3, "rebinds must not mint new shapes");
    assert!(sink.is_finite());
}
