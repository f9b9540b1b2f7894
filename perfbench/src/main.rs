//! The repository's standing benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tc-chain --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one seeded workload (`tc-chain`, `tc-boxes`,
//! `serve-read`, `serve-commit`, or `all` for each in its own process),
//! checks every output against an oracle, and prints its metrics; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics,
//! read from spans the benchmark records around its own calls and from
//! the engine's public counters and histograms. See `README.md`.

mod serve;
mod spans;
mod stats;
mod tc;

use cql_core::{EnginePolicy, GenRelation};
use cql_dense::Dense;
use cql_engine::Executor;
use spans::Tracer;
use stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["tc-chain", "tc-boxes", "serve-read", "serve-commit"];

/// The end-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The commit shapes of the serving workloads' writer script.
pub const SHAPES: [&str; 4] = ["island", "tail", "head", "shortcut"];
pub const OPS: [&str; 2] = ["insert", "retract"];

/// Every per-layer metric with its unit, in report order. A workload
/// reports 0 for a layer it does not exercise.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 31] = [
        ("relation.inserts", "count"),
        ("relation.subsumed", "count"),
        ("relation.entailment_checks", "count"),
        ("relation.sample_checks_per_insert", "ratio"),
        ("relation.insert_us.p50", "us"),
        ("relation.insert_us.p99", "us"),
        ("relation.replay_ms", "ms"),
        ("dense.qe_calls", "count"),
        ("dense.qe_ms", "ms"),
        ("qe_cache.hit_ratio", "ratio"),
        ("interner.hit_ratio", "ratio"),
        ("interner.entries", "count"),
        ("plan.probes", "count"),
        ("plan.yield", "ratio"),
        ("symbolic.rounds", "count"),
        ("symbolic.round_ms.p50", "ms"),
        ("symbolic.round_ms.max", "ms"),
        ("executor.map_us.p50", "us"),
        ("runtime.query_ms.p50", "ms"),
        ("runtime.query_ms.p99", "ms"),
        ("runtime.rows_examined_per_result", "ratio"),
        ("runtime.read_qe_calls", "count"),
        ("server.queue_wait_ms.p50", "ms"),
        ("server.queue_wait_ms.p99", "ms"),
        ("server.shed", "count"),
        ("snapshot.pin_us.p50", "us"),
        ("snapshot.pin_us.p99", "us"),
        ("incremental.delta_rounds", "count"),
        ("incremental.rederivations", "count"),
        ("trace.overhead_p50_ms", "ms"),
        ("trace.spans", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (kind, unit) in [
        ("snapshot.commit_ms", "ms"),
        ("snapshot.publish_ms", "ms"),
        ("incremental.update_ms", "ms"),
        ("incremental.solver_calls", "count"),
    ] {
        for shape in SHAPES {
            for op in OPS {
                out.push((format!("{kind}.{shape}.{op}"), unit));
            }
        }
    }
    out
}

/// Per-layer values set by a traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    setup_s: f64,
    op_p50_ms: f64,
    op_tail_ms: f64,
    ops_per_s: f64,
    pub layers: Layers,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s,
            op_p50_ms: 0.0,
            op_tail_ms: 0.0,
            ops_per_s: 0.0,
            layers: Layers::default(),
            notes: Vec::new(),
        }
    }

    /// Count one checked operation.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record the foreground operation's latencies, completed over
    /// `wall_s` seconds.
    pub fn ops(&mut self, samples: &Samples, wall_s: f64) {
        let (tail, level) = samples.tail_ms();
        self.op_p50_ms = samples.median_ms();
        self.op_tail_ms = tail;
        self.ops_per_s = stats::ratio(samples.len() as f64, wall_s);
        self.note(format!(
            "op latency: p50 {:.4} ms, p{level:.1} {tail:.4} ms over {} samples",
            self.op_p50_ms,
            samples.len()
        ));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the human-readable lines, then the JSON result line.
    fn emit(&self, trace: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        let failed_frac = stats::ratio(self.failed as f64, self.attempted as f64);
        println!("# failed_frac {failed_frac} ({} of {} operations)", self.failed, self.attempted);
        let metrics: Vec<(String, f64, &str)> = if trace {
            let known = per_layer();
            for name in self.layers.0.keys() {
                assert!(known.iter().any(|(n, _)| n == name), "unlisted per-layer metric {name}");
            }
            known
                .into_iter()
                .map(|(name, unit)| {
                    let v = self.layers.0.get(&name).copied().unwrap_or(0.0);
                    (name, v, unit)
                })
                .collect()
        } else {
            let values = [
                self.setup_s,
                self.op_p50_ms,
                self.op_tail_ms,
                self.ops_per_s,
                stats::peak_rss_mb(),
            ];
            END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
        };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            println!("# {name} {value} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Replay `t`'s tuples through `GenRelation::insert` under the default
/// policy, timing each insert.
pub fn replay(layers: &mut Layers, t: &GenRelation<Dense>) {
    let mut rel = GenRelation::<Dense>::with_policy(t.arity(), EnginePolicy::default());
    let mut per_insert = Samples::default();
    let started = Instant::now();
    for tuple in t.tuples() {
        let one = Instant::now();
        black_box(rel.insert(tuple.clone()));
        per_insert.push(one.elapsed());
    }
    layers.set("relation.replay_ms", started.elapsed().as_secs_f64() * 1e3);
    layers.set("relation.insert_us.p50", per_insert.median_ms() * 1e3);
    layers.set("relation.insert_us.p99", per_insert.quantile_ms(0.99) * 1e3);
}

/// Median time of `Executor::map` over a trivial batch of `items`
/// elements at `threads` threads, in microseconds.
pub fn executor_map_us(threads: usize, items: usize) -> f64 {
    let executor = Executor::new(threads);
    let mut samples = Samples::default();
    for _ in 0..200 {
        let batch = vec![0u64; items];
        let started = Instant::now();
        black_box(executor.map(batch, |x| black_box(x) + 1));
        samples.push(started.elapsed());
    }
    samples.median_ms() * 1e3
}

/// Write the traced run's spans next to the benchmark executable.
pub fn write_spans(out: &mut Outcome, tracer: &Tracer, workload: &str, seed: u64) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-spans")))
        .unwrap_or_else(|| "perfbench-spans".into());
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    match tracer.write(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    for (name, (count, total, own)) in tracer.self_times() {
        out.note(format!(
            "span {name}: {count} spans, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `--workload all`: run each workload in a process of its own (so each
/// peak RSS is that workload's alone), pass its report through, and end
/// with a summary of the checks.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for workload in WORKLOADS {
        println!("## {workload}");
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run one workload");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| {
            let value = last.split(&format!("\"{key}\": ")).nth(1)?;
            value.split([',', '}']).next().map(str::trim)
        };
        correct &= output.status.success() && field("correct") == Some("true");
        attempted += field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
        failed += field("failed").and_then(|v| v.parse().ok()).unwrap_or(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match args.workload.as_str() {
        "tc-chain" => tc::run(tc::Shape::Chain, args.seed, args.seconds, args.trace),
        "tc-boxes" => tc::run(tc::Shape::Boxes, args.seed, args.seconds, args.trace),
        "serve-read" => serve::run(serve::Side::Read, args.seed, args.seconds, args.trace),
        "serve-commit" => serve::run(serve::Side::Commit, args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    outcome.emit(args.trace);
    ExitCode::SUCCESS
}
