//! The repo benchmark: four named workloads over the MUST serving stack,
//! five end-to-end metrics taken with tracing off, and an outside-in
//! traced pass that yields the per-layer numbers.  See `README.md` next to
//! this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
//! benchmark --seed N [--seconds S] [--out DIR] [--smoke]     # every workload, both passes
//! benchmark --compare A.json[,A2.json…] B.json[,B2.json…] [--bounds BENCHMARK.json]
//! ```
//!
//! The last line of standard output of a one-workload, one-pass run is
//! the result object the driver reads.

/// Runs `$body` with `$s` bound to whichever server the engine holds.
macro_rules! with_engine {
    ($engine:expr, $s:ident => $body:expr) => {
        match $engine {
            Engine::Single($s) => $body,
            Engine::Sharded($s) => $body,
        }
    };
}

mod closed;
mod compare;
mod inputs;
mod layers;
mod metrics;
mod mutate;
mod open;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use must_vector::Weights;

use serde::Value;

use inputs::{Engine, Host, Kind, SetUp, Spec, RATES};
use metrics::{Def, Values, END_TO_END, PER_LAYER};
use stats::{percentile, tail_supported, Summary, TAIL};

/// Timed windows per run; every timing metric is the median over them.
const WINDOWS: usize = 5;
/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes.
    trace: Option<bool>,
    out: PathBuf,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload W] --seed N [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       \
         benchmark --compare A.json B.json [--bounds BENCHMARK.json]\nworkloads: {}",
        inputs::WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        out: PathBuf::from(".bench_out"),
        smoke: false,
    };
    let mut bounds = String::from("BENCHMARK.json");
    let mut compare: Option<(String, String)> = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workloads.push(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--out" => args.out = PathBuf::from(value()),
            "--smoke" => args.smoke = true,
            "--bounds" => bounds = value(),
            "--compare" => compare = Some((value(), value())),
            _ => usage(),
        }
    }
    if let Some((a, b)) = compare {
        return Err(match compare::run(&a, &b, &bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        });
    }
    if args.workloads.is_empty() {
        args.workloads = inputs::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if args.smoke {
        args.seconds = 0.3;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    Ok(args)
}

/// One pass of one workload.
struct Report {
    workload: &'static str,
    traced: bool,
    values: Values,
    attempted: usize,
    failed: usize,
    correct: bool,
    findings: Vec<String>,
    inputs_fingerprint: u64,
}

/// One window of `spec`'s measured phase.
fn measured_window(
    setup: &SetUp,
    overrides: &[Weights],
    host: &Host,
    window: Duration,
) -> closed::Window {
    match setup.spec.kind {
        Kind::Closed => {
            with_engine!(&setup.engine, s => closed::window(s, &setup.queries, host.clients, window))
        }
        Kind::Open => {
            with_engine!(&setup.engine, s => open::in_flight_window(s, setup, overrides, host.workers, window))
        }
        Kind::Mutate => mutate::window(setup, window),
    }
}

/// The snapshot recall is scored on: the loaded bundle, or for
/// `build_mutate` the bundle plus the fixed tail, frozen.
fn served_engine(setup: &SetUp) -> Option<Engine> {
    (setup.spec.kind == Kind::Mutate).then(|| Engine::Single(mutate::post_insert_server(setup)))
}

fn check_recall(spec: &Spec, recall: f64) -> bool {
    if recall < spec.recall_floor {
        eprintln!(
            "FAIL: recall@10 {recall:.4} is below the floor {}",
            spec.recall_floor
        );
    }
    recall >= spec.recall_floor
}

fn run_end_to_end(spec: &Spec, args: &Args, host: &Host, dir: &Path) -> Report {
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let windows = if args.smoke { 1 } else { WINDOWS };
    let overrides = inputs::override_weights();
    let mut v = Values::default();

    let mut totals = Vec::new();
    let mut setup = None;
    for _ in 0..reps {
        // One snapshot alive at a time.
        drop(setup.take());
        let s = inputs::set_up(spec, args.seed, host, dir);
        totals.push(s.times.total);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    v.put("setup_s", Summary::of(&totals));
    v.set(
        "bytes_per_object",
        setup.bundle_bytes as f64 / spec.n_base as f64,
    );

    // One untimed single-thread pass over every query — the warm-up, and
    // the outcomes recall is scored on — then the timed windows.
    let post_insert = served_engine(&setup);
    let outcomes = with_engine!(
        post_insert.as_ref().unwrap_or(&setup.engine),
        s => closed::full_pass(s, &setup, &overrides)
    );
    drop(post_insert);
    let window = Duration::from_secs_f64(args.seconds / windows as f64);
    let measured: Vec<closed::Window> = (0..windows)
        .map(|_| measured_window(&setup, &overrides, host, window))
        .collect();

    let per_window =
        |f: fn(&closed::Window) -> f64| Summary::of(&measured.iter().map(f).collect::<Vec<_>>());
    v.put("ops_per_s", per_window(|w| w.ops as f64 / w.secs));
    v.put(
        "p50_us",
        per_window(|w| percentile(&w.lat_ns, 50.0) as f64 / 1e3),
    );
    let recall = closed::recall(&outcomes, &setup.ground_truth);
    v.set("recall_at_10", recall);

    let failed: usize = measured.iter().map(|w| w.failed).sum();
    Report {
        workload: spec.name,
        traced: false,
        values: v,
        attempted: measured.iter().map(|w| w.ops).sum::<usize>() + outcomes.len(),
        failed,
        correct: check_recall(spec, recall) && failed == 0,
        findings: Vec::new(),
        inputs_fingerprint: fingerprint(&setup),
    }
}

/// Inputs and — the build being byte-deterministic — the bundle.
fn fingerprint(setup: &SetUp) -> u64 {
    let mut h = inputs::Fnv(setup.inputs_hash);
    h.bytes(&inputs::hash_file(&setup.bundle).to_le_bytes());
    h.0
}

fn run_traced(spec: &Spec, args: &Args, host: &Host, dir: &Path) -> Report {
    let overrides = inputs::override_weights();
    let setup = inputs::set_up(spec, args.seed, host, dir);
    let post_insert = served_engine(&setup);
    let engine = post_insert.as_ref().unwrap_or(&setup.engine);
    let (outcomes, direct_ns) = with_engine!(engine, s => layers::direct_pass(s, &setup));
    let mut traced = layers::run(
        &setup,
        engine,
        args.seed,
        host,
        args.seconds,
        &outcomes,
        &direct_ns,
    );
    traced.correct &= check_recall(spec, closed::recall(&outcomes, &setup.ground_truth));

    // The workload's own loop for one window, for the tail it shows.
    let windows = if args.smoke { 1 } else { WINDOWS };
    let w = measured_window(
        &setup,
        &overrides,
        host,
        Duration::from_secs_f64(args.seconds / windows as f64),
    );
    traced
        .values
        .set("client.p99_us", percentile(&w.lat_ns, TAIL) as f64 / 1e3);
    traced.attempted += w.ops;
    traced.failed += w.failed;
    traced.correct &= w.failed == 0;
    if !tail_supported(w.lat_ns.len()) {
        eprintln!(
            "FAIL: the window has {} samples; p99 needs 10 beyond it",
            w.lat_ns.len()
        );
        traced.correct = false;
    }

    let path = args.out.join(format!("trace.{}.jsonl", spec.name));
    let written = std::fs::File::create(&path)
        .and_then(|f| traced.trace.write_jsonl(std::io::BufWriter::new(f)));
    if let Err(e) = written {
        eprintln!("FAIL: cannot write {}: {e}", path.display());
        traced.correct = false;
    }
    Report {
        workload: spec.name,
        traced: true,
        values: traced.values,
        attempted: traced.attempted,
        failed: traced.failed,
        correct: traced.correct,
        findings: traced.findings,
        inputs_fingerprint: fingerprint(&setup),
    }
}

fn table(report: &Report) -> &'static [Def] {
    if report.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn print_report(r: &Report) {
    println!(
        "## {} ({}): correct={} attempted={} failed={} inputs_fingerprint={:016x}",
        r.workload,
        if r.traced {
            "traced pass, per-layer"
        } else {
            "tracing off, end-to-end"
        },
        r.correct,
        r.attempted,
        r.failed,
        r.inputs_fingerprint,
    );
    for (def, s) in r.values.in_order(table(r)) {
        if s.min == s.max {
            println!("   {:<42} {:>16.4} {}", def.0, s.median, def.1);
        } else {
            println!(
                "   {:<42} {:>16.4} {:<5} [min {:.4}, max {:.4}]",
                def.0, s.median, def.1, s.min, s.max
            );
        }
    }
    for f in &r.findings {
        println!("   finding: {f}");
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The driver's result object.
fn driver_line(r: &Report) -> String {
    let metrics = r
        .values
        .in_order(table(r))
        .map(|(def, s)| {
            (
                def.0.to_string(),
                obj(vec![
                    ("value", Value::Num(s.median)),
                    ("unit", Value::Str(def.1.into())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("tree-backed values serialise")
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `result.json`: what `--compare` reads — one report per workload × pass.
fn result_file(args: &Args, host: &Host, reports: &[Report]) -> Value {
    let num = |n: usize| Value::Num(n as f64);
    let reports = reports
        .iter()
        .map(|r| {
            let metrics = r
                .values
                .in_order(table(r))
                .map(|(def, s)| {
                    let fields = vec![
                        ("value", Value::Num(s.median)),
                        ("min", Value::Num(s.min)),
                        ("max", Value::Num(s.max)),
                        ("unit", Value::Str(def.1.into())),
                    ];
                    (def.0.to_string(), obj(fields))
                })
                .collect();
            obj(vec![
                ("workload", Value::Str(r.workload.into())),
                (
                    "pass",
                    Value::Str(if r.traced { "per_layer" } else { "end_to_end" }.into()),
                ),
                ("correct", Value::Bool(r.correct)),
                ("attempted", num(r.attempted)),
                ("failed", num(r.failed)),
                (
                    "inputs_fingerprint",
                    Value::Str(format!("{:016x}", r.inputs_fingerprint)),
                ),
                (
                    "findings",
                    Value::Array(r.findings.iter().cloned().map(Value::Str).collect()),
                ),
                ("metrics", Value::Object(metrics)),
            ])
        })
        .collect();
    obj(vec![
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "host",
            obj(vec![
                ("nproc", num(host.nproc)),
                ("clients", num(host.clients)),
                ("workers", num(host.workers)),
                ("build_threads", num(host.build_threads)),
                (
                    "commit",
                    Value::Str(command_output("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Value::Str(command_output("rustc", &["--version"]))),
            ]),
        ),
        ("reports", Value::Array(reports)),
    ])
}

fn main() -> ExitCode {
    // No environment variable changes a workload: the library's knobs are
    // cleared, and the effective thread counts are recorded instead.
    for var in ["MUST_BUILD_THREADS", "MUST_SCALE", "MUST_SCALE_N"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let host = Host::detect();
    let specs: Vec<Spec> = args
        .workloads
        .iter()
        .map(|w| inputs::spec(w, args.smoke).unwrap_or_else(|| usage()))
        .collect();
    // Bundles are scratch, one directory per process; traces and the
    // result file stay in `--out`.
    let dir = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# seed={} seconds={} smoke={} nproc={} clients={} workers={} build_threads={} rates={:?}",
        args.seed,
        args.seconds,
        args.smoke,
        host.nproc,
        host.clients,
        host.workers,
        host.build_threads,
        RATES
    );
    let mut reports = Vec::new();
    for spec in &specs {
        for traced in [false, true] {
            if args.trace.is_some_and(|t| t != traced) {
                continue;
            }
            let report = if traced {
                run_traced(spec, &args, &host, &dir)
            } else {
                run_end_to_end(spec, &args, &host, &dir)
            };
            print_report(&report);
            reports.push(report);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let result = serde_json::to_string_pretty(&result_file(&args, &host, &reports))
        .expect("tree-backed values serialise");
    if let Err(e) = std::fs::write(args.out.join("result.json"), result) {
        eprintln!("cannot write result.json: {e}");
        return ExitCode::from(2);
    }
    let all_correct = reports.iter().all(|r| r.correct);
    if let [only] = reports.as_slice() {
        println!("{}", driver_line(only));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
