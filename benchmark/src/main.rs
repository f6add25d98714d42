//! The repo's end-to-end benchmark: six workloads over the whole estimator,
//! the end-to-end metrics a user sees, and per-layer lanes timed from
//! outside the library. `BENCHMARK.json` at the repo root is the contract;
//! README.md is the glossary.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--repeat-check]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric without
//! `--trace`, every per-layer metric with it.

mod fixture;
mod json;
mod lanes;
mod metrics;
mod phase;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use fixture::{secs, Res};
use json::Json;
use metrics::{Layers, END_TO_END, PER_LAYER, WORKLOADS};
use phase::{Phase, Summary};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Spans a traced phase may record before it stops (32 bytes each).
const SPAN_CAPACITY: usize = 1 << 18;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 8.0,
        trace: false,
        repeat_check: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat-check" => args.repeat_check = true,
            // `--trace 0|1` as the driver writes it; a bare `--trace` is on.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") | Some("1") => argv.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.5) {
        return Err("--seconds must be at least 0.5".into());
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_header(args: &Args, workload: &metrics::Workload) {
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are meaningless)"
    } else {
        "release, lto=thin"
    };
    println!("# deepdb benchmark");
    println!(
        "# commit {}   {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"])
    );
    println!(
        "# available_parallelism {}   profile {profile}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "# workload {}   seed {}   measuring {} s{}   data seed {} scale {}",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace {
            " (quarters: untraced, traced, traced, untraced)"
        } else {
            ""
        },
        fixture::DATA.seed,
        fixture::DATA.factor
    );
    println!("# why: {}", workload.why);
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print a phase that measured something, and hand back its summary.
fn print_phase(label: &str, phase: &Phase) -> Res<Summary> {
    if phase.is_empty() {
        return Err(format!("{label}: nothing was measured"));
    }
    let s = phase.summary();
    let (median, min, max) = s.rate;
    println!(
        "{label}: {} ops, {} failed; {} slices of {} ops",
        phase.attempted(),
        phase.failed,
        s.slices,
        s.ops_per_slice
    );
    println!("  median over slices: {median:.1} ops/s (min {min:.1}, max {max:.1}), p50 {:.3} us, p95 {:.3} us", s.p50_us, s.p95_us);
    for (name, p) in ["p50", "p95", "p99", "p99.9"].iter().zip(s.pooled) {
        println!(
            "  pooled {name:<5} {:>12.3} us   {} samples, {} beyond{}",
            p.value,
            p.samples,
            p.beyond,
            if p.supported() {
                ""
            } else {
                "  (fewer than ten beyond: not a supported reading)"
            }
        );
    }
    Ok(s)
}

/// Run one workload in this process; returns the result line.
fn run_workload(args: &Args, workload: &metrics::Workload) -> Res<Json> {
    print_header(args, workload);

    // A later set-up starts only after the earlier one is dropped, so peak
    // memory is one set-up's, not three.
    let mut setup_secs = Vec::new();
    let mut run = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(run.take());
        let t = Instant::now();
        run = Some(workloads::setup(workload.name, args.seed)?);
        setup_secs.push(secs(t));
    }
    let mut run = run.expect("at least one set-up");
    let setup_s = stats::median(&setup_secs);
    println!("stream_hash {:016x}", run.stream_hash());
    println!("setup_s {setup_s:.4} (median of {:?})", setup_secs);

    let t = Instant::now();
    run.gate()
        .map_err(|e| format!("correctness gate failed: {e}"))?;
    println!("correctness gate passed in {:.3} s", secs(t));

    // (name, value, unit, higher is better)
    let mut metrics: Vec<(&str, f64, &str, bool)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    if !args.trace {
        let phase = run.measure(args.seconds, None);
        let summary = print_phase("measured phase", &phase)?;
        let scores = run.accuracy()?;
        for note in run.notes() {
            println!("{note}");
        }
        if scores.is_empty() {
            return Err("no answer was scored".into());
        }
        let pick = |f: fn(&workloads::Score) -> f64, q: f64| {
            let mut v: Vec<f64> = scores.iter().map(f).collect();
            stats::sort(&mut v);
            stats::percentile(&v, q).value
        };
        let model_bytes: usize = run.models().iter().map(|m| m.model_bytes).sum();
        let values = [
            setup_s,
            summary.rate.0,
            summary.p50_us,
            summary.p95_us,
            pick(|s| s.qerr, 0.5),
            pick(|s| s.qerr, 0.95),
            pick(|s| s.relerr_pct, 0.5),
            pick(|s| s.relerr_pct, 0.95),
            model_bytes as f64,
            peak_rss_mb(),
        ];
        println!("accuracy over {} scored answers", scores.len());
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, v, m.unit, m.higher_is_better));
        }
        attempted += phase.attempted();
        failed += phase.failed;
    } else {
        let mut layers = Layers::new();
        run.count_pass(&mut layers)?;
        // Plain, traced, traced, plain: the host drifts by more than tracing
        // costs, and this order cancels a steady drift out of the overhead.
        let mut tracer = Tracer::new(Instant::now(), SPAN_CAPACITY);
        let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
        for with_spans in [false, true, true, false] {
            let phase = run.measure(args.seconds / 4.0, with_spans.then_some(&mut tracer));
            let label = if with_spans {
                "traced quarter"
            } else {
                "untraced quarter"
            };
            let p50s = if with_spans {
                &mut traced_p50
            } else {
                &mut plain_p50
            };
            p50s.push(print_phase(label, &phase)?.p50_us);
            attempted += phase.attempted();
            failed += phase.failed;
        }
        let (plain_p50, traced_p50) = (stats::median(&plain_p50), stats::median(&traced_p50));
        run.accuracy()?;
        lanes::setup_lanes(&run.models(), &mut layers);
        run.lanes(&tracer, traced_p50, &mut layers)?;
        lanes::trace_lanes(&tracer, plain_p50, traced_p50, &mut layers);
        for note in run.notes() {
            println!("{note}");
        }
        let dir = std::env::var("CARGO_MANIFEST_DIR")
            .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
        let path = std::path::Path::new(&dir)
            .join("out")
            .join(format!("trace-{}.json", workload.name));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        for m in &PER_LAYER {
            metrics.push((m.name, layers.get(m.name), m.unit, m.higher_is_better));
        }
    }

    let mut finite = true;
    for (name, value, unit, higher) in &metrics {
        let better = if *higher { "higher" } else { "lower" };
        println!("{name:<32} {value:>18.4} {unit:<6} ({better} is better)");
        finite &= value.is_finite();
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(finite && failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit, _)| {
                        let reading = vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ];
                        (name.to_string(), Json::Obj(reading))
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Run one workload as a child process of its own, so set-up time and peak
/// memory stay per workload; returns its result line.
fn run_child(args: &Args, workload: &str) -> Res<Json> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("workload {workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    Json::parse(last)
}

fn reading(result: &Json, name: &str) -> Res<f64> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or(format!("`{name}` is missing from a result line"))
}

/// Two runs of the same code and seed must agree: timings within their
/// bounds, counts, accuracy and sizes exactly.
fn repeat_check(args: &Args, workload: &str) -> Res<bool> {
    let first = run_child(args, workload)?;
    let second = run_child(args, workload)?;
    // (name, bound or None for an ungated timing, must repeat exactly)
    let rows: Vec<(&str, Option<f64>, bool)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, None, m.exact)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, Some(m.bound), m.exact))
            .collect()
    };
    println!("repeat-check {workload}");
    let mut ok = true;
    for (name, bound, exact) in rows {
        let (a, b) = (reading(&first, name)?, reading(&second, name)?);
        let diff = if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        };
        let (agrees, verdict) = match (exact, bound) {
            (true, _) if diff == 0.0 => (true, "identical"),
            (true, _) => (false, "DIFFERS (must be identical)"),
            (false, Some(bound)) if diff > bound => (false, "OUTSIDE its bound"),
            (false, Some(_)) => (true, "within its bound"),
            (false, None) => (true, ""),
        };
        ok &= agrees;
        let bound = bound.map_or("-".into(), |b| format!("{:.1}%", b * 100.0));
        println!(
            "  {name:<32} {a:>16.4} {b:>16.4}  diff {:>7.3}%  bound {bound:>6}  {verdict}",
            diff * 100.0
        );
    }
    for result in [&first, &second] {
        ok &= result.get("correct") == Some(&Json::Bool(true));
    }
    Ok(ok)
}

fn main_inner() -> Res<bool> {
    let args = parse_args()?;
    let selected: Vec<&metrics::Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if args.repeat_check {
        let mut ok = true;
        for w in &selected {
            ok &= repeat_check(&args, w.name)?;
        }
        println!("repeat-check {}", if ok { "passed" } else { "FAILED" });
        return Ok(ok);
    }
    if let [workload] = selected[..] {
        let result = run_workload(&args, workload)?;
        println!("{}", result.render());
        return Ok(true);
    }
    for w in &selected {
        run_child(&args, w.name)?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
