//! The six workloads. Each sets itself up from the seed, passes a
//! correctness gate before anything is timed, runs its closed loop, scores
//! accuracy, and — in the traced run — fills in the per-layer lanes.

use std::sync::Barrier;
use std::time::Instant;

use deepdb::data::{flights, imdb, joblight, ssb, updates};
use deepdb::storage::{QueryOutput, TableId};
use deepdb::{
    compile, execute_aqp, execute_ordered_with_stats, query_literals, AqpOutput, AqpResult,
    Estimate, Indexes, JoinOrderer, Query, ServeFront, Value,
};

use crate::fixture::{
    adhoc_queries, err, paper_queries, queries_of, secs, shuffle, stream_hash, Model, Res, DATA,
};
use crate::lanes;
use crate::metrics::Layers;
use crate::phase::{drive, Op, Phase};
use crate::stats::{grouped_rel_error_pct, median, qerror, rel_error_pct};
use crate::trace::{SpanId, Tracer};

/// Accuracy of one answer: q-error of the COUNT estimate behind it and
/// relative error (%) of the answer itself.
pub struct Score {
    pub qerr: f64,
    pub relerr_pct: f64,
}

pub trait Workload {
    fn stream_hash(&self) -> u64;
    fn models(&self) -> Vec<&Model>;
    /// Check every route to an answer against the others. Nothing is timed
    /// before this passes.
    fn gate(&mut self) -> Res<()>;
    /// The closed loop, for `seconds` or until the tracer is full.
    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase;
    /// Score the accuracy set against ground truth (not timed).
    fn accuracy(&mut self) -> Res<Vec<Score>>;
    /// Counts of a fixed pass, taken before the phases of a traced run.
    fn count_pass(&mut self, out: &mut Layers) -> Res<()>;
    /// The lanes that need the traced phase's spans or run after it.
    /// `traced_p50_us` is the traced phase's `op_p50_us`.
    fn lanes(&mut self, tracer: &Tracer, traced_p50_us: f64, out: &mut Layers) -> Res<()>;
    /// Extra lines for the human-readable report.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

pub fn setup(name: &str, seed: u64) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "card_adhoc" => Box::new(ImdbRun::setup(Route::OneShot, true, seed)?),
        "card_repeat" => Box::new(ImdbRun::setup(Route::OneShot, false, seed)?),
        "serve_closed" => Box::new(ImdbRun::setup(Route::Served, false, seed)?),
        "join_exec" => Box::new(ImdbRun::setup(Route::JoinExec, false, seed)?),
        "update_mixed" => Box::new(UpdateRun::setup(seed)?),
        "aqp_dashboard" => Box::new(AqpRun::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn same_bits(a: Estimate, b: Estimate) -> bool {
    a.value.to_bits() == b.value.to_bits() && a.variance.to_bits() == b.variance.to_bits()
}

/// Latency slots to reserve for a phase, from the warm-up's rate.
fn reserve(seconds: f64, warm_op_s: f64) -> usize {
    (1.5 * seconds / warm_op_s.max(1e-7)) as usize + 1024
}

/// Every route to a COUNT estimate must give the same bits: planned cold on
/// the cache-less ensemble, through the plan cache twice (the second is a
/// hit), prepared, and served.
fn routes_agree(m: &Model, queries: &[Query]) -> Res<()> {
    let front = ServeFront::new(&m.ens, &m.db);
    for (i, q) in queries.iter().enumerate() {
        let cold = compile::estimate_count(&m.cold, &m.db, q).map_err(err)?;
        let mut prepared = m.ens.prepare(&m.db, q).map_err(err)?;
        let routes = [
            ("plan cache", compile::estimate_count(&m.ens, &m.db, q)),
            ("plan-cache hit", compile::estimate_count(&m.ens, &m.db, q)),
            (
                "PreparedQuery::execute",
                prepared.execute(&m.ens, &m.db, &query_literals(q)),
            ),
            ("ServeFront::serve", front.serve(q, None)),
        ];
        for (route, got) in routes {
            let got = got.map_err(|e| format!("query {i} via {route}: {e}"))?;
            if !same_bits(cold, got) {
                return Err(format!(
                    "query {i}: {route} answered {got:?}, cache-bypassed {cold:?}"
                ));
            }
        }
    }
    Ok(())
}

fn card_scores(m: &Model, queries: &[Query], truth: &[QueryOutput]) -> Res<Vec<Score>> {
    queries
        .iter()
        .zip(truth)
        .map(|(q, t)| {
            let est = compile::estimate_cardinality(&m.ens, &m.db, q).map_err(err)?;
            let truth = (t.scalar().count as f64).max(1.0);
            Ok(Score {
                qerr: qerror(est, truth),
                relerr_pct: rel_error_pct(est, truth),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// card_adhoc, card_repeat, serve_closed, join_exec: COUNT queries over IMDb
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Route {
    OneShot,
    Served,
    JoinExec,
}

struct ImdbRun {
    route: Route,
    m: Model,
    stream: Vec<Query>,
    /// The warm-up's answer to every stream query; each timed op must
    /// repeat it bit for bit.
    expected: Vec<f64>,
    /// Listed-order output of every stream query (`join_exec` only).
    expected_out: Vec<QueryOutput>,
    accuracy_set: Vec<Query>,
    accuracy_truth: Vec<QueryOutput>,
    orderer: JoinOrderer,
    hash: u64,
    warm_op_s: f64,
    /// Counters of the front the traced phase went through (`serve_closed`).
    served: Option<deepdb::ServeStats>,
}

impl ImdbRun {
    fn setup(route: Route, adhoc: bool, seed: u64) -> Res<Self> {
        let t = Instant::now();
        let db = imdb::generate(DATA);
        let mut m = Model::learn(db, secs(t))?;
        let generate: fn(&_, u64) -> Vec<Query> = if adhoc { adhoc_queries } else { paper_queries };
        // Accuracy is scored on the data seed's own queries, so it reads the
        // same whatever stream is timed.
        let fixed = generate(&m.db, DATA.seed);
        let accuracy_set = lanes::lane_of(&fixed);
        let stream = if route == Route::JoinExec {
            // Join execution time is heavy-tailed in the query: one seed's 88
            // queries run at half the rate of another's, which no bound
            // could absorb. So here the seed orders a fixed set.
            let mut stream = fixed;
            shuffle(&mut stream, seed);
            stream
        } else {
            generate(&m.db, seed)
        };
        let accuracy_truth = m.truths(&accuracy_set)?;
        let expected_out = if route == Route::JoinExec {
            m.truths(&stream)?
        } else {
            Vec::new()
        };

        // Warm-up: the first pass fills the plan cache and records the
        // answers; the second goes the workload's own way (warming the join
        // orderer) and gives the rate the phase reserves room for.
        let mut run = ImdbRun {
            route,
            hash: stream_hash(&stream),
            expected: Vec::with_capacity(stream.len()),
            expected_out,
            m,
            stream,
            accuracy_set,
            accuracy_truth,
            orderer: JoinOrderer::new(),
            warm_op_s: 0.0,
            served: None,
        };
        for q in &run.stream {
            let est = compile::estimate_cardinality(&run.m.ens, &run.m.db, q).map_err(err)?;
            run.expected.push(est);
        }
        let t = Instant::now();
        let n = run.stream.len();
        let mut client = ImdbClient {
            m: &run.m,
            stream: &run.stream,
            expected: &run.expected,
            via: match route {
                Route::JoinExec => Via::JoinExec(&mut run.orderer, &run.expected_out),
                _ => Via::OneShot,
            },
            offset: 0,
        };
        for i in 0..n {
            if !client.run(i, None) {
                return Err(format!("warm-up: query {i} failed or changed its answer"));
            }
        }
        run.warm_op_s = secs(t) / n as f64;
        Ok(run)
    }
}

/// How one client reaches the library.
enum Via<'a> {
    OneShot,
    Served(&'a ServeFront<'a>),
    /// The warmed orderer and the listed-order output of every stream query.
    JoinExec(&'a mut JoinOrderer, &'a [QueryOutput]),
}

/// One closed-loop client of an [`ImdbRun`], starting at `offset`.
struct ImdbClient<'a> {
    m: &'a Model,
    stream: &'a [Query],
    expected: &'a [f64],
    via: Via<'a>,
    offset: usize,
}

impl Op for ImdbClient<'_> {
    fn spans_per_op(&self) -> usize {
        3
    }

    fn run(&mut self, i: usize, tr: Option<&mut Tracer>) -> bool {
        let k = (self.offset + i) % self.stream.len();
        let (q, m) = (&self.stream[k], self.m);
        let same = |est: f64| est.to_bits() == self.expected[k].to_bits();
        match &mut self.via {
            Via::OneShot => {
                let span = tr.map(|t| (t.begin_op("compile.estimate"), t));
                let got = compile::estimate_cardinality(&m.ens, &m.db, q);
                if let Some((id, t)) = span {
                    t.end(id);
                }
                got.is_ok_and(same)
            }
            Via::Served(front) => {
                let span = tr.map(|t| (t.begin_op("serve.serve"), t));
                let got = front.serve(q, None);
                if let Some((id, t)) = span {
                    t.end(id);
                }
                got.is_ok_and(|e| same(e.value.max(1.0)))
            }
            Via::JoinExec(orderer, expected_out) => {
                let execute = |order| {
                    execute_ordered_with_stats(&m.db, q, Some(&m.idx), &order)
                        .is_ok_and(|(out, _)| out == expected_out[k])
                };
                let Some(t) = tr else {
                    return orderer.optimize(&m.ens, &m.db, q).is_ok_and(execute);
                };
                let op = t.begin_op("join_exec.op");
                let plan = t.begin_child("joinorder.optimize", op);
                let order = orderer.optimize(&m.ens, &m.db, q);
                t.end(plan);
                let ok = order.is_ok_and(|order| {
                    let exec = t.begin_child("storage.execute_ordered", op);
                    let ok = execute(order);
                    t.end(exec);
                    ok
                });
                t.end(op);
                ok
            }
        }
    }
}

impl Workload for ImdbRun {
    fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn models(&self) -> Vec<&Model> {
        vec![&self.m]
    }

    fn gate(&mut self) -> Res<()> {
        routes_agree(&self.m, &self.stream)?;
        if self.route == Route::JoinExec {
            // The order the estimates choose must not change the output.
            let m = &self.m;
            for (i, (q, want)) in self.stream.iter().zip(&self.expected_out).enumerate() {
                let order = self.orderer.optimize(&m.ens, &m.db, q).map_err(err)?;
                let (got, _) =
                    execute_ordered_with_stats(&m.db, q, Some(&m.idx), &order).map_err(err)?;
                if got != *want {
                    return Err(format!(
                        "query {i}: estimated order gave {got:?}, listed order {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let reserve = reserve(seconds, self.warm_op_s);
        let m = &self.m;
        let client = |via, offset| ImdbClient {
            m,
            stream: &self.stream,
            expected: &self.expected,
            via,
            offset,
        };
        if self.route != Route::Served {
            let via = match self.route {
                Route::JoinExec => Via::JoinExec(&mut self.orderer, &self.expected_out),
                _ => Via::OneShot,
            };
            return drive(&mut client(via, 0), seconds, reserve, tracer);
        }

        // As many closed-loop clients as the host has cores, each starting
        // at its own place in the stream and recording its own spans.
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
        let front = ServeFront::new(&m.ens, &m.db);
        let barrier = Barrier::new(clients);
        let results: Vec<(Phase, Option<Tracer>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (front, barrier, client) = (&front, &barrier, &client);
                    let offset = c * self.stream.len() / clients;
                    let mut own = tracer.as_ref().map(|t| t.share(clients));
                    s.spawn(move || {
                        let mut client = client(Via::Served(front), offset);
                        barrier.wait();
                        let phase = drive(&mut client, seconds, reserve, own.as_mut());
                        (phase, own)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut tracer = tracer;
        let mut all = Phase::default();
        for (phase, own) in results {
            all.merge(phase);
            if let (Some(t), Some(own)) = (tracer.as_deref_mut(), own) {
                t.absorb(own);
            }
        }
        if tracer.is_some() {
            self.served = Some(front.stats());
        }
        all
    }

    fn accuracy(&mut self) -> Res<Vec<Score>> {
        card_scores(&self.m, &self.accuracy_set, &self.accuracy_truth)
    }

    fn count_pass(&mut self, out: &mut Layers) -> Res<()> {
        let m = &self.m;
        m.ens.invalidate_plans();
        let pass = || -> Res<()> {
            for q in &self.stream {
                compile::estimate_cardinality(&m.ens, &m.db, q).map_err(err)?;
            }
            Ok(())
        };
        pass()?;
        let before = lanes::counters(&[&m.ens]);
        pass()?;
        let after = lanes::counters(&[&m.ens]);
        lanes::count_lanes(before, after, self.stream.len(), out);
        Ok(())
    }

    fn lanes(&mut self, _tracer: &Tracer, traced_p50_us: f64, out: &mut Layers) -> Res<()> {
        let lane = &lanes::lane_of(&self.stream);
        lanes::card_lanes(&self.m, lane, out)?;
        lanes::spn_lanes(&[(&self.m, lane)], out);
        let (one_client_stats, one_client_p50) = lanes::serve_lanes(&self.m, lane, out)?;
        match self.served {
            Some(stats) => lanes::serve_stat_lanes(stats, traced_p50_us, out),
            None => lanes::serve_stat_lanes(one_client_stats, one_client_p50, out),
        }
        lanes::join_lanes(&self.m, lane, out)
    }
}

// ---------------------------------------------------------------------------
// update_mixed: reads beside writes
// ---------------------------------------------------------------------------

const ROWS_PER_BATCH: usize = 16;
const READS_PER_BATCH: usize = 64;
/// Write batches (with their reads) the traced run's count pass consumes.
const COUNT_PASS_BATCHES: usize = 100;

struct UpdateRun {
    m: Model,
    /// The held-out rows as insert batches of one table each, parents first.
    batches: Vec<(TableId, Vec<Vec<Value>>)>,
    next_batch: usize,
    reads: Vec<Query>,
    accuracy_set: Vec<Query>,
    hash: u64,
    warm_op_s: f64,
    held_out_rows: usize,
    /// (rows, ns) of every timed write batch.
    writes: Vec<(usize, u64)>,
    write_failures: u64,
    epoch_at_setup: u64,
}

impl UpdateRun {
    fn setup(seed: u64) -> Res<Self> {
        // The split belongs to the data, not to the stream: the model learned
        // on the 80 % and the final accuracy must not move with `--seed`.
        let t = Instant::now();
        let (db, rows) = updates::split_imdb_random(DATA, 0.2, DATA.seed);
        let m = Model::learn(db, secs(t))?;
        let reads = queries_of(joblight::job_light(&m.db, seed));
        let accuracy_set = queries_of(joblight::job_light(&m.db, DATA.seed));
        let hash = stream_hash(&reads) ^ stream_hash(&rows);

        let held_out_rows = rows.len();
        let mut batches: Vec<(TableId, Vec<Vec<Value>>)> = Vec::new();
        for (table, values) in rows {
            match batches.last_mut() {
                Some((t, batch)) if *t == table && batch.len() < ROWS_PER_BATCH => {
                    batch.push(values)
                }
                _ => batches.push((table, vec![values])),
            }
        }

        let mut warm_op_s = 0.0;
        for _ in 0..2 {
            let t = Instant::now();
            for q in &reads {
                compile::estimate_cardinality(&m.ens, &m.db, q).map_err(err)?;
            }
            warm_op_s = secs(t) / reads.len() as f64;
        }
        Ok(UpdateRun {
            epoch_at_setup: m.ens.plan_epoch(),
            m,
            batches,
            next_batch: 0,
            reads,
            accuracy_set,
            hash,
            warm_op_s,
            held_out_rows,
            writes: Vec::new(),
            write_failures: 0,
        })
    }

    fn write_next(&mut self) -> bool {
        let (table, rows) = &self.batches[self.next_batch];
        self.next_batch += 1;
        let t = Instant::now();
        let ok = self
            .m
            .ens
            .apply_insert_batch(&mut self.m.db, *table, rows)
            .is_ok();
        self.writes
            .push((rows.len(), t.elapsed().as_nanos() as u64));
        self.write_failures += u64::from(!ok);
        ok
    }

    fn written_rows_and_secs(&self) -> (f64, f64) {
        let rows: usize = self.writes.iter().map(|w| w.0).sum();
        let ns: u64 = self.writes.iter().map(|w| w.1).sum();
        (rows as f64, ns as f64 / 1e9)
    }
}

/// One write batch, then [`READS_PER_BATCH`] reads; the read is the op.
struct UpdateOp<'a> {
    run: &'a mut UpdateRun,
    /// The open span of the current write-plus-reads cycle.
    cycle: Option<SpanId>,
}

impl Op for UpdateOp<'_> {
    fn spans_per_op(&self) -> usize {
        3
    }

    fn before(&mut self, i: usize, mut tr: Option<&mut Tracer>) {
        if !i.is_multiple_of(READS_PER_BATCH) {
            return;
        }
        let write = tr.as_deref_mut().map(|t| {
            if let Some(done) = self.cycle.take() {
                t.end(done);
            }
            let cycle = t.begin_op("update_mixed.cycle");
            self.cycle = Some(cycle);
            t.begin_child("ensemble.apply_insert_batch", cycle)
        });
        self.run.write_next();
        if let (Some(t), Some(id)) = (tr, write) {
            t.end(id);
        }
    }

    fn run(&mut self, i: usize, tr: Option<&mut Tracer>) -> bool {
        let run = &*self.run;
        let q = &run.reads[i % run.reads.len()];
        let span = tr
            .zip(self.cycle)
            .map(|(t, cycle)| (t.begin_child("compile.estimate", cycle), t));
        let got = compile::estimate_cardinality(&run.m.ens, &run.m.db, q);
        if let Some((id, t)) = span {
            t.end(id);
        }
        got.is_ok_and(|est| est.is_finite() && est >= 1.0)
    }

    fn exhausted(&self) -> bool {
        self.run.next_batch >= self.run.batches.len()
    }
}

impl Workload for UpdateRun {
    fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn models(&self) -> Vec<&Model> {
        vec![&self.m]
    }

    fn gate(&mut self) -> Res<()> {
        routes_agree(&self.m, &self.reads)
    }

    fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
        let reserve = reserve(seconds, self.warm_op_s);
        let failures_before = self.write_failures;
        let writes_before = self.writes.len();
        let mut op = UpdateOp {
            run: self,
            cycle: None,
        };
        let mut phase = drive(&mut op, seconds, reserve, tracer.as_deref_mut());
        if let (Some(t), Some(cycle)) = (tracer, op.cycle) {
            t.end(cycle);
        }
        // A refused write is a failed operation of the stream too.
        phase.extra_attempted = (self.writes.len() - writes_before) as u64;
        phase.failed += self.write_failures - failures_before;
        phase
    }

    /// Absorb what the phases left of the stream, then score JOB-light
    /// against the final database (the paper's Table 2 check).
    fn accuracy(&mut self) -> Res<Vec<Score>> {
        while self.next_batch < self.batches.len() {
            if !self.write_next() {
                return Err("a write batch was refused after the timed phase".into());
            }
        }
        let absorbed = self.m.ens.updates_absorbed();
        if absorbed != self.held_out_rows as u64 {
            return Err(format!(
                "the stream held {} rows, the ensemble absorbed {absorbed}",
                self.held_out_rows
            ));
        }
        self.m.idx = Indexes::build(&self.m.db);
        let truth = self.m.truths(&self.accuracy_set)?;
        card_scores(&self.m, &self.accuracy_set, &truth)
    }

    fn count_pass(&mut self, out: &mut Layers) -> Res<()> {
        let before = lanes::counters(&[&self.m.ens]);
        let mut reads = 0;
        for _ in 0..COUNT_PASS_BATCHES.min(self.batches.len() - self.next_batch) {
            if !self.write_next() {
                return Err("count pass: a write batch was refused".into());
            }
            for _ in 0..READS_PER_BATCH {
                let q = &self.reads[reads % self.reads.len()];
                compile::estimate_cardinality(&self.m.ens, &self.m.db, q).map_err(err)?;
                reads += 1;
            }
        }
        let after = lanes::counters(&[&self.m.ens]);
        lanes::count_lanes(before, after, reads, out);
        Ok(())
    }

    fn lanes(&mut self, tracer: &Tracer, _traced_p50_us: f64, out: &mut Layers) -> Res<()> {
        // The first read after each write batch pays for the epoch bump.
        let names = tracer.names();
        let mut replans = Vec::new();
        let mut after_write = false;
        for s in tracer.spans() {
            match names[s.name as usize] {
                "ensemble.apply_insert_batch" => after_write = true,
                "compile.estimate" if after_write => {
                    replans.push(s.dur_ns() as f64 / 1e3);
                    after_write = false;
                }
                _ => {}
            }
        }
        out.set("cache.replan_p50_us", median(&replans));
        let (rows, write_s) = self.written_rows_and_secs();
        out.set("ensemble.insert_us_per_row", write_s * 1e6 / rows.max(1.0));
        out.set("ensemble.write_rows_per_s", rows / write_s.max(1e-9));
        out.set(
            "ensemble.epoch_bumps",
            (self.m.ens.plan_epoch() - self.epoch_at_setup) as f64,
        );
        out.set(
            "ensemble.updates_absorbed",
            self.m.ens.updates_absorbed() as f64,
        );

        // The other lanes run on the final database (`accuracy` has rebuilt
        // its indexes); the cache-less twin never saw the stream, so the
        // `compile.cold_*` lanes read the model as learned.
        let lane = &lanes::lane_of(&self.reads);
        lanes::card_lanes(&self.m, lane, out)?;
        lanes::spn_lanes(&[(&self.m, lane)], out);
        let (stats, one_client_p50) = lanes::serve_lanes(&self.m, lane, out)?;
        lanes::serve_stat_lanes(stats, one_client_p50, out);
        lanes::join_lanes(&self.m, lane, out)
    }

    fn notes(&self) -> Vec<String> {
        let (rows, write_s) = self.written_rows_and_secs();
        vec![format!(
            "writes: {} batches, {rows} rows in {write_s:.4} s = {:.0} rows/s ({} refused)",
            self.writes.len(),
            rows / write_s.max(1e-9),
            self.write_failures
        )]
    }
}

// ---------------------------------------------------------------------------
// aqp_dashboard: the SSB and Flights queries as one refresh
// ---------------------------------------------------------------------------

struct Board {
    m: Model,
    queries: Vec<Query>,
    truth: Vec<QueryOutput>,
}

impl Board {
    fn setup(
        generate: fn(deepdb::data::Scale) -> deepdb::Database,
        queries: fn(&deepdb::Database) -> Vec<deepdb::data::NamedQuery>,
    ) -> Res<Board> {
        let t = Instant::now();
        let db = generate(DATA);
        let mut m = Model::learn(db, secs(t))?;
        let queries = queries_of(queries(&m.db));
        let truth = m.truths(&queries)?;
        Ok(Board { m, queries, truth })
    }
}

const SSB: usize = 0;
const FLIGHTS: usize = 1;
/// Child span of a refresh, by board and by whether the query groups.
const AQP_SPANS: [[&str; 2]; 2] = [
    ["aqp.ssb.scalar", "aqp.ssb.grouped"],
    ["aqp.flights.scalar", "aqp.flights.grouped"],
];

struct AqpRun {
    boards: [Board; 2],
    /// One refresh: (board, query) in the seed's order.
    round: Vec<(usize, usize)>,
    /// Checksum of each answer of the round, from the warm-up.
    expected: Vec<u64>,
    groups_per_round: usize,
    hash: u64,
    warm_op_s: f64,
}

/// Every number of an AQP answer folded into one word; `None` if any is not
/// finite.
fn checksum(out: &AqpOutput) -> Option<u64> {
    let fold = |sum: u64, r: &AqpResult| {
        [r.value, r.ci_low, r.ci_high, r.count_estimate]
            .iter()
            .try_fold(sum, |sum, x| {
                x.is_finite().then(|| sum.rotate_left(7) ^ x.to_bits())
            })
    };
    match out {
        AqpOutput::Scalar(r) => fold(1, r),
        AqpOutput::Grouped(groups) => groups
            .iter()
            .try_fold(groups.len() as u64, |sum, (_, r)| fold(sum, r)),
    }
}

impl AqpRun {
    fn setup(seed: u64) -> Res<Self> {
        // The two boards are independent and learning is single-threaded:
        // learn them side by side.
        let (ssb, flights) = std::thread::scope(|s| {
            let ssb = s.spawn(|| Board::setup(ssb::generate, ssb::queries));
            let flights = Board::setup(flights::generate, flights::queries);
            (ssb.join().expect("set-up thread panicked"), flights)
        });
        let boards = [ssb?, flights?];
        let mut round: Vec<(usize, usize)> = [SSB, FLIGHTS]
            .into_iter()
            .flat_map(|b| (0..boards[b].queries.len()).map(move |q| (b, q)))
            .collect();
        shuffle(&mut round, seed);
        let in_order: Vec<&Query> = round.iter().map(|&(b, q)| &boards[b].queries[q]).collect();
        let mut run = AqpRun {
            hash: stream_hash(&in_order),
            boards,
            round,
            expected: Vec::new(),
            groups_per_round: 0,
            warm_op_s: 0.0,
        };
        for &(b, q) in &run.round {
            let board = &run.boards[b];
            let out = execute_aqp(&board.m.ens, &board.m.db, &board.queries[q]).map_err(err)?;
            run.groups_per_round += out.groups().len();
            run.expected
                .push(checksum(&out).ok_or("an AQP answer is not finite")?);
        }
        let t = Instant::now();
        if !run.refresh(None) {
            return Err("warm-up: a refresh failed or changed its answers".into());
        }
        run.warm_op_s = secs(t);
        Ok(run)
    }

    /// One refresh of the dashboard; `true` if every answer repeats.
    fn refresh(&self, mut tr: Option<&mut Tracer>) -> bool {
        let op = tr
            .as_deref_mut()
            .map(|t| t.begin_op("aqp_dashboard.refresh"));
        let mut ok = true;
        for (&(b, q), want) in self.round.iter().zip(&self.expected) {
            let board = &self.boards[b];
            let query = &board.queries[q];
            let span = tr.as_deref_mut().zip(op).map(|(t, op)| {
                let name = AQP_SPANS[b][usize::from(!query.group_by.is_empty())];
                (t.begin_child(name, op), t)
            });
            let got = execute_aqp(&board.m.ens, &board.m.db, query);
            if let Some((id, t)) = span {
                t.end(id);
            }
            ok &= got.is_ok_and(|out| checksum(&out) == Some(*want));
        }
        if let (Some(t), Some(op)) = (tr, op) {
            t.end(op);
        }
        ok
    }
}

struct AqpOp<'a>(&'a AqpRun);

impl Op for AqpOp<'_> {
    fn spans_per_op(&self) -> usize {
        1 + self.0.round.len()
    }

    fn run(&mut self, _i: usize, tr: Option<&mut Tracer>) -> bool {
        self.0.refresh(tr)
    }
}

fn truth_groups(out: &QueryOutput, q: &Query) -> Vec<(Vec<Value>, f64)> {
    out.groups()
        .iter()
        .filter_map(|(k, a)| a.value_for(q.aggregate).map(|v| (k.clone(), v)))
        .collect()
}

impl Workload for AqpRun {
    fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn models(&self) -> Vec<&Model> {
        self.boards.iter().map(|b| &b.m).collect()
    }

    /// Cache-bypassed answers must equal the cached ones the warm-up
    /// recorded, and every number must be finite.
    fn gate(&mut self) -> Res<()> {
        for (&(b, q), want) in self.round.iter().zip(&self.expected) {
            let board = &self.boards[b];
            let cold = execute_aqp(&board.m.cold, &board.m.db, &board.queries[q]).map_err(err)?;
            if checksum(&cold) != Some(*want) {
                return Err(format!(
                    "board {b} query {q}: cache-bypassed and cached answers differ"
                ));
            }
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let reserve = reserve(seconds, self.warm_op_s);
        drive(&mut AqpOp(&*self), seconds, reserve, tracer)
    }

    fn accuracy(&mut self) -> Res<Vec<Score>> {
        let mut scores = Vec::new();
        for board in &self.boards {
            for (q, truth) in board.queries.iter().zip(&board.truth) {
                let out = execute_aqp(&board.m.ens, &board.m.db, q).map_err(err)?;
                let (relerr_pct, count_estimate) = match &out {
                    AqpOutput::Scalar(r) => {
                        let t = truth.scalar().value_for(q.aggregate).unwrap_or(0.0);
                        (rel_error_pct(r.value, t), r.count_estimate)
                    }
                    AqpOutput::Grouped(groups) => {
                        let est: Vec<_> =
                            groups.iter().map(|(k, r)| (k.clone(), r.value)).collect();
                        (
                            grouped_rel_error_pct(&truth_groups(truth, q), &est),
                            groups.iter().map(|(_, r)| r.count_estimate).sum(),
                        )
                    }
                };
                scores.push(Score {
                    qerr: qerror(count_estimate, truth.scalar().count as f64),
                    relerr_pct,
                });
            }
        }
        Ok(scores)
    }

    fn count_pass(&mut self, out: &mut Layers) -> Res<()> {
        let ensembles: Vec<_> = self.boards.iter().map(|b| &b.m.ens).collect();
        for ens in &ensembles {
            ens.invalidate_plans();
        }
        let pass = |what: &str| {
            if self.refresh(None) {
                Ok(())
            } else {
                Err(format!("count pass: the {what} refresh failed"))
            }
        };
        pass("warming")?;
        let before = lanes::counters(&ensembles);
        pass("counted")?;
        let after = lanes::counters(&ensembles);
        lanes::count_lanes(before, after, 1, out);
        Ok(())
    }

    fn lanes(&mut self, tracer: &Tracer, _traced_p50_us: f64, out: &mut Layers) -> Res<()> {
        let us = |board: usize, grouped: usize| tracer.durations_us(AQP_SPANS[board][grouped]);
        let scalar: Vec<f64> = [us(SSB, 0), us(FLIGHTS, 0)].concat();
        let grouped: Vec<f64> = [us(SSB, 1), us(FLIGHTS, 1)].concat();
        let rounds = tracer.durations_us("aqp_dashboard.refresh").len().max(1) as f64;
        out.set("aqp.scalar_p50_us", median(&scalar));
        out.set("aqp.grouped_p50_us", median(&grouped));
        out.set(
            "aqp.us_per_group",
            grouped.iter().sum::<f64>() / (rounds * self.groups_per_round.max(1) as f64),
        );
        out.set("aqp.groups_per_round", self.groups_per_round as f64);
        // Mean time per refresh spent on each board.
        let per_round = |b: usize| [us(b, 0), us(b, 1)].concat().iter().sum::<f64>() / rounds;
        out.set("aqp.ssb_round_us", per_round(SSB));
        out.set("aqp.flights_round_us", per_round(FLIGHTS));
        let per_board: Vec<(&Model, &[Query])> = self
            .boards
            .iter()
            .map(|b| (&b.m, b.queries.as_slice()))
            .collect();
        lanes::spn_lanes(&per_board, out);
        Ok(())
    }
}
