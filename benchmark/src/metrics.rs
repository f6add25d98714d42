//! The names the benchmark reports. `BENCHMARK.json` lists the same names
//! with the same units and bounds; a unit test keeps the two in step.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    /// One recorded sentence on why the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "card_adhoc",
        why: "2000 seeded ad-hoc COUNT queries over 2-6 tables, ~1600 shapes against a 256-entry plan cache: \
              mostly misses, so planning and bind discovery do the work and the sweep little",
    },
    Workload {
        name: "card_repeat",
        why: "the 88 seeded JOB-light + job_multi queries repeated: every op is a plan-cache hit, \
              so lookup, rebind and the small-batch sweep dominate and planning is bypassed",
    },
    Workload {
        name: "aqp_dashboard",
        why: "one refresh of the 13 SSB + 11 Flights AQP queries in seeded order: GROUP BY fans out into \
              large-batch sweeps, so batch kernels, the worker pool and group enumeration carry the time",
    },
    Workload {
        name: "serve_closed",
        why: "nproc closed-loop clients send the card_repeat stream through ServeFront::serve: the only \
              workload with admission, the batching window, fuse/demux and cross-thread wake-ups on the path",
    },
    Workload {
        name: "update_mixed",
        why: "16-row insert batches each followed by 64 seeded reads: every batch bumps the plan epoch, \
              so every read re-plans against a cache of stale entries; accuracy is scored after the stream",
    },
    Workload {
        name: "join_exec",
        why: "JoinOrderer::optimize plus execution under the chosen order on the 88 seeded queries: \
              the executor is most of the op, so estimator latency must not show and worse estimates must",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Must repeat exactly for one seed (accuracy and size, not time).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
        exact: bound < 0.05,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.20),
    e2e("op_p50_us", "us", false, 0.20),
    e2e("op_p95_us", "us", false, 0.25),
    e2e("qerr_p50", "ratio", false, 0.01),
    e2e("qerr_p95", "ratio", false, 0.01),
    e2e("relerr_p50_pct", "%", false, 0.01),
    e2e("relerr_p95_pct", "%", false, 0.01),
    e2e("model_bytes", "B", false, 0.001),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count that must repeat exactly for one seed.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, higher: bool, exact: bool) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: higher,
        exact,
    }
}

/// Layer = module name. README.md says how each is taken and which
/// end-to-end metric it should move.
pub const PER_LAYER: [Layer; 61] = [
    time("data.generate_s", "s"),
    time("storage.index_build_s", "s"),
    time("storage.truth_exec_p50_us", "us"),
    time("ensemble.build_s", "s"),
    count("ensemble.members", "count", false, true),
    count("ensemble.model_nodes", "count", false, true),
    time("ensemble.save_ms", "ms"),
    time("ensemble.load_ms", "ms"),
    time("compile.cold_p50_us", "us"),
    time("compile.cold_case12_p50_us", "us"),
    time("compile.cold_case3_p50_us", "us"),
    count("combine.case3_share", "share", false, true),
    time("cache.miss_p50_us", "us"),
    time("cache.hit_p50_us", "us"),
    time("cache.prepare_p50_us", "us"),
    time("cache.prepared_exec_p50_us", "us"),
    count("cache.bound_share", "share", true, true),
    count("cache.hits", "count", true, true),
    count("cache.misses", "count", false, true),
    count("cache.evictions", "count", false, true),
    count("cache.hit_ratio", "share", true, true),
    count("cache.entries", "count", false, true),
    count("cache.active_sets", "count", false, true),
    time("cache.replan_p50_us", "us"),
    count("plan.sweeps_per_op", "count", false, true),
    count("compile.plan_share", "share", false, false),
    time("spn.expect_b1_us", "us"),
    time("spn.expect_b64_us_per_probe", "us"),
    time("spn.expect_b256_us_per_probe", "us"),
    time("aqp.scalar_p50_us", "us"),
    time("aqp.grouped_p50_us", "us"),
    time("aqp.us_per_group", "us"),
    count("aqp.groups_per_round", "count", false, true),
    time("aqp.ssb_round_us", "us"),
    time("aqp.flights_round_us", "us"),
    count("serve.batches", "count", false, false),
    count("serve.mean_batch", "count", true, false),
    count("serve.fused_share", "share", true, false),
    count("serve.solo_fastpath", "count", false, false),
    count("serve.rejected_overloaded", "count", false, false),
    count("serve.deadline_misses", "count", false, false),
    count("serve.stale_retries", "count", false, false),
    time("serve.wait_p50_us", "us"),
    time("serve.one_client_p50_us", "us"),
    time("serve.prepared_p50_us", "us"),
    time("ensemble.insert_us_per_row", "us"),
    count("ensemble.write_rows_per_s", "1/s", true, false),
    count("ensemble.epoch_bumps", "count", false, true),
    count("ensemble.updates_absorbed", "count", true, true),
    time("joinorder.plan_warm_p50_us", "us"),
    time("joinorder.plan_cold_p50_us", "us"),
    count("joinorder.estimates_per_query", "count", false, true),
    count("joinorder.shapes", "count", false, true),
    count("joinorder.plan_share", "share", false, false),
    time("storage.exec_est_p50_us", "us"),
    time("storage.exec_listed_p50_us", "us"),
    count("storage.listed_over_est", "ratio", true, false),
    count("storage.rows_per_query", "count", false, true),
    count("trace.spans", "count", false, false),
    count("trace.overhead_pct", "%", false, false),
    count("trace.op_self_pct", "%", false, false),
];

/// Per-layer readings of one traced run. Every name is present from the
/// start: a lane that is not on a workload's path leaves its 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|l| (l.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not in metrics::PER_LAYER"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(item: &'a Json, key: &str) -> &'a str {
        match item.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("`{key}` is {other:?}"),
        }
    }

    fn items<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
        match spec.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("`{key}` is {other:?}"),
        }
    }

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let spec = spec();
        let workloads = items(&spec, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name"), w.name);
            assert_eq!(field(item, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e = items(&spec, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), m.name);
            assert_eq!(field(item, "unit"), m.unit);
            assert_eq!(field(item, "better"), better(m.higher_is_better));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = items(&spec, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), m.name);
            assert_eq!(field(item, "unit"), m.unit);
            assert_eq!(
                field(item, "better"),
                better(m.higher_is_better),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_layers_start_at_zero() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let mut layers = Layers::new();
        assert_eq!(layers.get("cache.hits"), 0.0);
        layers.set("cache.hits", 3.0);
        assert_eq!(layers.get("cache.hits"), 3.0);
    }
}
