//! Per-layer lanes of the traced run. Each times one layer from the
//! benchmark's side of a public call, on the queries the workload itself
//! generated, after the end-to-end phase.

use std::hint::black_box;
use std::time::Instant;

use deepdb::storage::plan_order;
use deepdb::{
    compile, execute_ordered_with_stats, query_literals, Ensemble, JoinOrder, JoinOrderer, Query,
    ServeFront, ServeStats,
};

use crate::fixture::{err, Model, Res};
use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::{self, Tracer};

/// Timed repeats of a lane's call per query.
const REPS: usize = 3;
/// Queries a lane takes, evenly spaced, from a long stream.
pub const LANE_QUERIES: usize = 200;
/// Queries the lanes that execute joins take: a join costs milliseconds.
const JOIN_LANE_QUERIES: usize = 88;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where set-up time went, summed over the workload's models.
pub fn setup_lanes(models: &[&Model], out: &mut Layers) {
    let sum = |f: fn(&Model) -> f64| models.iter().map(|m| f(m)).sum::<f64>();
    out.set("data.generate_s", sum(|m| m.t.generate_s));
    out.set("storage.index_build_s", sum(|m| m.t.index_s));
    out.set("ensemble.build_s", sum(|m| m.t.build_s));
    out.set("ensemble.save_ms", sum(|m| m.t.save_ms));
    out.set("ensemble.load_ms", sum(|m| m.t.load_ms));
    out.set("ensemble.members", sum(|m| m.ens.rspns().len() as f64));
    out.set(
        "ensemble.model_nodes",
        sum(|m| m.ens.total_model_size() as f64),
    );
    let truth: Vec<f64> = models
        .iter()
        .flat_map(|m| m.t.truth_us.iter().copied())
        .collect();
    out.set("storage.truth_exec_p50_us", median(&truth));
}

/// Plan-cache and sweep counters summed over ensembles.
#[derive(Clone, Copy)]
pub struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: usize,
    active_sets: usize,
    sweeps: u64,
}

pub fn counters(ensembles: &[&Ensemble]) -> Counters {
    let mut c = Counters {
        hits: 0,
        misses: 0,
        evictions: 0,
        entries: 0,
        active_sets: 0,
        sweeps: 0,
    };
    for ens in ensembles {
        let s = ens.plan_cache_stats();
        c.hits += s.hits;
        c.misses += s.misses;
        c.evictions += s.evictions;
        c.entries += s.entries;
        c.active_sets += s.active_sets;
        c.sweeps += ens.rspns().iter().map(|r| r.probe_passes()).sum::<u64>();
    }
    c
}

/// The counts of a fixed pass of `ops` operations: they repeat exactly for
/// a seed, which a time-bounded phase's counts cannot.
pub fn count_lanes(before: Counters, after: Counters, ops: usize, out: &mut Layers) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    out.set("cache.hits", hits);
    out.set("cache.misses", misses);
    out.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set("cache.hit_ratio", ratio(hits, hits + misses));
    out.set("cache.entries", after.entries as f64);
    out.set("cache.active_sets", after.active_sets as f64);
    out.set(
        "plan.sweeps_per_op",
        ratio((after.sweeps - before.sweeps) as f64, ops as f64),
    );
}

/// At most `most` queries of a stream, evenly spaced: generators emit small
/// joins first, so the head of a stream is not a fair sample.
fn spaced(stream: &[Query], most: usize) -> Vec<Query> {
    let step = stream.len().div_ceil(most).max(1);
    stream.iter().step_by(step).cloned().collect()
}

/// The queries of a stream the lanes run on.
pub fn lane_of(stream: &[Query]) -> Vec<Query> {
    spaced(stream, LANE_QUERIES)
}

/// `compile`, `combine` and `cache` lanes: the same queries planned cold on
/// the cache-less ensemble, missed, hit, prepared and executed prepared.
pub fn card_lanes(m: &Model, lane: &[Query], out: &mut Layers) -> Res<()> {
    let db = &m.db;
    let (mut case12, mut case3) = (Vec::new(), Vec::new());
    let mut case3_queries = 0;
    for q in lane {
        // Cases 1/2 of the paper: one member's tables cover the query.
        let covered = m
            .ens
            .rspns()
            .iter()
            .any(|r| q.tables.iter().all(|t| r.tables().contains(t)));
        case3_queries += usize::from(!covered);
        let samples = if covered { &mut case12 } else { &mut case3 };
        for _ in 0..REPS {
            let (r, us) = timed(|| compile::estimate_cardinality(&m.cold, db, q));
            r.map_err(err)?;
            samples.push(us);
        }
    }
    let cold: Vec<f64> = case12.iter().chain(&case3).copied().collect();
    let cold_p50 = median(&cold);
    out.set("compile.cold_p50_us", cold_p50);
    out.set("compile.cold_case12_p50_us", median(&case12));
    out.set("compile.cold_case3_p50_us", median(&case3));
    out.set(
        "combine.case3_share",
        ratio(case3_queries as f64, lane.len() as f64),
    );

    // First touch per shape after an invalidation is a miss, the repeats
    // are hits; the cache's own counters say which a call was.
    m.ens.invalidate_plans();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for pass in 0..=REPS {
        for q in lane {
            let before = m.ens.plan_cache_stats();
            let (r, us) = timed(|| compile::estimate_cardinality(&m.ens, db, q));
            r.map_err(err)?;
            let after = m.ens.plan_cache_stats();
            if after.misses > before.misses {
                miss.push(us);
            } else if pass > 0 && after.hits > before.hits {
                hit.push(us);
            }
        }
    }
    out.set("cache.miss_p50_us", median(&miss));
    out.set("cache.hit_p50_us", median(&hit));

    let (mut prepare, mut exec) = (Vec::new(), Vec::new());
    let mut bound = 0;
    for q in lane {
        let (p, us) = timed(|| m.ens.prepare(db, q));
        let mut p = p.map_err(err)?;
        prepare.push(us);
        bound += usize::from(p.is_bound());
        let literals = query_literals(q);
        for _ in 0..REPS {
            let (r, us) = timed(|| p.execute(&m.ens, db, &literals));
            r.map_err(err)?;
            exec.push(us);
        }
    }
    let exec_p50 = median(&exec);
    out.set("cache.prepare_p50_us", median(&prepare));
    out.set("cache.prepared_exec_p50_us", exec_p50);
    out.set("cache.bound_share", ratio(bound as f64, lane.len() as f64));
    out.set("compile.plan_share", ratio(cold_p50 - exec_p50, cold_p50));
    Ok(())
}

/// `spn` lanes: per member, probes built from the workload's predicates on
/// that member's tables, swept at batch 1, 64 and 256.
pub fn spn_lanes(models: &[(&Model, &[Query])], out: &mut Layers) {
    let (mut b1, mut b64, mut b256) = (Vec::new(), Vec::new(), Vec::new());
    for (m, queries) in models {
        for rspn in m.ens.rspns() {
            let mut probes = Vec::new();
            for q in queries.iter() {
                let mut probe = rspn.new_query();
                let mut constrained = false;
                for pred in &q.predicates {
                    if rspn.tables().contains(&pred.table) {
                        constrained |= rspn.add_predicate(&mut probe, pred).is_ok();
                    }
                }
                if constrained {
                    probes.push(probe);
                }
            }
            if probes.is_empty() {
                continue;
            }
            let probes: Vec<_> = probes.iter().cycle().take(256).cloned().collect();
            for probe in &probes[..64] {
                b1.push(timed(|| rspn.expect_batch(std::slice::from_ref(probe))).1);
            }
            for _ in 0..REPS {
                for chunk in probes.chunks(64) {
                    b64.push(timed(|| rspn.expect_batch(chunk)).1 / 64.0);
                }
                b256.push(timed(|| rspn.expect_batch(&probes)).1 / 256.0);
            }
        }
    }
    out.set("spn.expect_b1_us", median(&b1));
    out.set("spn.expect_b64_us_per_probe", median(&b64));
    out.set("spn.expect_b256_us_per_probe", median(&b256));
}

/// One client through `serve` and `serve_prepared`. Returns the front's
/// counters as they stood after the `serve` pass.
pub fn serve_lanes(m: &Model, lane: &[Query], out: &mut Layers) -> Res<(ServeStats, f64)> {
    let front = ServeFront::new(&m.ens, &m.db);
    let mut served = Vec::new();
    for _ in 0..REPS {
        for q in lane {
            let (r, us) = timed(|| front.serve(q, None));
            r.map_err(err)?;
            served.push(us);
        }
    }
    let stats = front.stats();
    let mut prepared = Vec::new();
    for q in lane {
        let mut p = m.ens.prepare(&m.db, q).map_err(err)?;
        let literals = query_literals(q);
        for _ in 0..REPS {
            let (r, us) = timed(|| front.serve_prepared(&mut p, &literals, None));
            r.map_err(err)?;
            prepared.push(us);
        }
    }
    let one_client = median(&served);
    out.set("serve.one_client_p50_us", one_client);
    out.set("serve.prepared_p50_us", median(&prepared));
    Ok((stats, one_client))
}

/// `ServeFront::stats` of the front that served `served_p50_us`.
pub fn serve_stat_lanes(stats: ServeStats, served_p50_us: f64, out: &mut Layers) {
    let admitted = stats.admitted as f64;
    out.set("serve.batches", stats.batches as f64);
    out.set("serve.mean_batch", ratio(admitted, stats.batches as f64));
    out.set(
        "serve.fused_share",
        ratio(stats.fused_requests as f64, admitted),
    );
    out.set("serve.solo_fastpath", stats.solo_fastpath as f64);
    out.set(
        "serve.rejected_overloaded",
        stats.rejected_overloaded as f64,
    );
    out.set("serve.deadline_misses", stats.deadline_misses as f64);
    out.set("serve.stale_retries", stats.stale_retries as f64);
    // What serving adds to a plan-cache hit on the same stream.
    out.set(
        "serve.wait_p50_us",
        served_p50_us - out.get("cache.hit_p50_us"),
    );
}

/// `joinorder` and `storage` lanes: plan cold and warm, then execute under
/// the estimated and under the listed order.
pub fn join_lanes(m: &Model, lane: &[Query], out: &mut Layers) -> Res<()> {
    let lane = &spaced(lane, JOIN_LANE_QUERIES);
    let (ens, db) = (&m.ens, &m.db);
    let mut cold = Vec::new();
    for q in lane {
        let mut fresh = JoinOrderer::new();
        let (r, us) = timed(|| fresh.optimize(ens, db, q));
        r.map_err(err)?;
        cold.push(us);
    }
    let mut orderer = JoinOrderer::new();
    for q in lane {
        orderer.optimize(ens, db, q).map_err(err)?;
    }
    let estimates_before = ens.plan_cache_stats().optimizer_estimates;
    let (mut warm, mut orders) = (Vec::new(), Vec::new());
    for q in lane {
        let (r, us) = timed(|| orderer.optimize(ens, db, q));
        orders.push(r.map_err(err)?);
        warm.push(us);
    }
    let estimates = ens.plan_cache_stats().optimizer_estimates - estimates_before;

    let (mut est, mut listed) = (Vec::new(), Vec::new());
    let mut rows = 0u64;
    for (q, order) in lane.iter().zip(&orders) {
        let (r, us) = timed(|| execute_ordered_with_stats(db, q, Some(&m.idx), order));
        rows += r.map_err(err)?.1.rows_per_level.iter().sum::<u64>();
        est.push(us);
        let from_list = JoinOrder {
            tables: plan_order(db, &q.tables).map_err(err)?,
            est_rows: Vec::new(),
            cost: 0.0,
        };
        let (r, us) = timed(|| execute_ordered_with_stats(db, q, Some(&m.idx), &from_list));
        r.map_err(err)?;
        listed.push(us);
    }
    let n = lane.len() as f64;
    let (warm_sum, est_sum): (f64, f64) = (warm.iter().sum(), est.iter().sum());
    out.set("joinorder.plan_cold_p50_us", median(&cold));
    out.set("joinorder.plan_warm_p50_us", median(&warm));
    out.set("joinorder.estimates_per_query", ratio(estimates as f64, n));
    out.set("joinorder.shapes", orderer.shapes() as f64);
    out.set("joinorder.plan_share", ratio(warm_sum, warm_sum + est_sum));
    out.set("storage.exec_est_p50_us", median(&est));
    out.set("storage.exec_listed_p50_us", median(&listed));
    out.set(
        "storage.listed_over_est",
        ratio(listed.iter().sum(), est_sum),
    );
    out.set("storage.rows_per_query", ratio(rows as f64, n));
    Ok(())
}

/// What the traced phase itself says: how much was recorded, what recording
/// cost, and how much of each operation the harness (not the library) took.
pub fn trace_lanes(tracer: &Tracer, plain_p50_us: f64, traced_p50_us: f64, out: &mut Layers) {
    out.set("trace.spans", tracer.spans().len() as f64);
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_p50_us - plain_p50_us, plain_p50_us),
    );
    out.set("trace.op_self_pct", trace::root_self_pct(tracer.spans()));
}
