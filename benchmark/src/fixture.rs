//! Set-up shared by the workloads: a learned model over one database, the
//! ground truth of its accuracy set, and the seeded query streams.

use std::time::Instant;

use deepdb::data::{joblight, NamedQuery, Scale};
use deepdb::storage::{execute_with_indexes, QueryOutput};
use deepdb::{Database, Ensemble, EnsembleBuilder, EnsembleParams, Indexes, Query};

pub type Res<T> = Result<T, String>;

/// The data never changes with `--seed`: only the query streams do.
pub const DATA: Scale = Scale {
    factor: 1.0,
    seed: 42,
};

/// Any library error as the message the benchmark reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Where set-up time went, per layer.
pub struct Timings {
    pub generate_s: f64,
    pub build_s: f64,
    pub index_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    /// Ground-truth execution time of each accuracy query, µs.
    pub truth_us: Vec<f64>,
}

/// One database with everything learned and built over it.
pub struct Model {
    pub db: Database,
    pub ens: Ensemble,
    /// The snapshot loaded again with the plan cache off: the cache-bypassed
    /// route of the correctness gate and of the `compile.cold_*` lanes.
    pub cold: Ensemble,
    pub idx: Indexes,
    pub model_bytes: usize,
    pub t: Timings,
}

impl Model {
    /// Learn with library defaults over `db`, which took `generate_s` to make.
    pub fn learn(db: Database, generate_s: f64) -> Res<Model> {
        let params = EnsembleParams {
            seed: DATA.seed,
            ..EnsembleParams::default()
        };
        let t = Instant::now();
        let ens = EnsembleBuilder::new(&db)
            .params(params)
            .build()
            .map_err(|e| format!("ensemble learning: {e}"))?;
        let build_s = secs(t);

        let t = Instant::now();
        let idx = Indexes::build(&db);
        let index_s = secs(t);

        let t = Instant::now();
        let mut snapshot = Vec::new();
        ens.save(&mut snapshot)
            .map_err(|e| format!("Ensemble::save: {e}"))?;
        let save_ms = secs(t) * 1e3;
        let t = Instant::now();
        let cold =
            Ensemble::load(&mut snapshot.as_slice()).map_err(|e| format!("Ensemble::load: {e}"))?;
        let load_ms = secs(t) * 1e3;
        cold.set_plan_cache_capacity(0);

        Ok(Model {
            db,
            ens,
            cold,
            idx,
            model_bytes: snapshot.len(),
            t: Timings {
                generate_s,
                build_s,
                index_s,
                save_ms,
                load_ms,
                truth_us: Vec::new(),
            },
        })
    }

    /// Ground truth of `queries`, timed into [`Timings::truth_us`].
    pub fn truths(&mut self, queries: &[Query]) -> Res<Vec<QueryOutput>> {
        queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                let out = execute_with_indexes(&self.db, q, Some(&self.idx))
                    .map_err(|e| format!("ground truth: {e}"))?;
                self.t.truth_us.push(secs(t) * 1e6);
                Ok(out)
            })
            .collect()
    }
}

pub fn queries_of(named: Vec<NamedQuery>) -> Vec<Query> {
    named.into_iter().map(|nq| nq.query).collect()
}

/// The 88 paper-style queries: JOB-light (70) then `job_multi` (18).
pub fn paper_queries(db: &Database, seed: u64) -> Vec<Query> {
    let mut qs = joblight::job_light(db, seed);
    qs.extend(joblight::job_multi(db, seed));
    queries_of(qs)
}

/// The ad-hoc stream: 2 000 synthetic queries over 2–6 tables with 1–5
/// predicates, far more shapes than the plan cache holds.
pub fn adhoc_queries(db: &Database, seed: u64) -> Vec<Query> {
    queries_of(joblight::synthetic(
        db,
        &[2, 3, 4, 5, 6],
        &[1, 2, 3, 4, 5],
        80,
        seed,
    ))
}

/// FNV-1a over the debug form of every generated input: equal for equal
/// seeds, and the first thing to compare when two runs disagree.
pub fn stream_hash<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in format!("{item:?}\n").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fisher–Yates with the generators' own xorshift, so a seed fixes the order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = deepdb::data::Xor64::new(seed ^ 0x5EED);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdb::data::imdb;

    const SMALL: Scale = Scale {
        factor: 0.02,
        seed: 42,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let db = imdb::generate(SMALL);
        type Gen = fn(&Database, u64) -> Vec<Query>;
        let update_reads: Gen = |db, seed| queries_of(joblight::job_light(db, seed));
        for gen in [paper_queries as Gen, adhoc_queries as Gen, update_reads] {
            let a = stream_hash(&gen(&db, 7));
            assert_eq!(a, stream_hash(&gen(&db, 7)));
            assert_ne!(a, stream_hash(&gen(&db, 8)));
        }
        assert_eq!(paper_queries(&db, 7).len(), 88);
        assert_eq!(adhoc_queries(&db, 7).len(), 2_000);

        // `aqp_dashboard` asks fixed queries; its seed is their order.
        let order = |seed| {
            let mut v: Vec<usize> = (0..24).collect();
            shuffle(&mut v, seed);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }
}
