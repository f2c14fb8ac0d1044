//! End-to-end benchmark of the MALS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-10k|serve-300|replay-3k|campaign-1k \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its instances from `--seed`, measures for about
//! `--seconds`, checks every output outside the timed regions, and prints a
//! human report followed, as the last line of stdout, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the run
//! records a span around every layer call and reports per-layer self times
//! and counters ([`LAYER_SPANS`], [`LAYER_EXTRAS`]). See `README.md` for
//! what each metric means on each workload.

mod batch;
mod campaign;
mod census;
mod replay;
mod serve;
mod stats;
mod trace;

use stats::{valid_metric_name, Metrics};
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics every untraced run reports, with their units.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("part_a_ms", "ms"),
    ("part_b_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("makespan_ratio", "ratio"),
    ("success_rate", "ratio"),
];

/// Layers whose summed self time (`<name>_ms`) every traced run reports.
pub const LAYER_SPANS: [&str; 12] = [
    "gen.daggen",
    "ref.heft",
    "ref.minmin",
    "ref.peaks",
    "json.emit_request",
    "json.parse",
    "json.build",
    "dag.rank",
    "sched.solve",
    "sim.validate",
    "service.handle",
    "json.emit_report",
];

/// Further per-layer metrics of every traced run, with their units.
pub const LAYER_EXTRAS: [(&str, &str); 16] = [
    ("path.outer_ms", "ms"),
    ("path.inner_ms", "ms"),
    ("path.overhead_ms", "ms"),
    ("path.busy_ratio", "ratio"),
    ("sched.solves", "count"),
    ("sched.infeasible", "count"),
    ("sched.useful_ratio", "ratio"),
    ("json.request_bytes", "bytes"),
    ("json.report_bytes", "bytes"),
    ("online.replans", "count"),
    ("online.events", "count"),
    ("serve.backlog_max", "count"),
    ("serve.rejected", "count"),
    ("serve.max_rps", "1/s"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every instance of the run is derived from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Correctness checks: every check is one attempt; a failed one is a
/// failure and fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// What failed (the first few).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// What a workload hands back: its metrics (end-to-end when untraced; the
/// [`LAYER_EXTRAS`] it measured when traced) and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics measured by the workload.
    pub metrics: Metrics,
    /// Correctness checks.
    pub checks: Checks,
}

/// Repeats `f` (at least `min` times, then while less than `budget` seconds
/// have passed since `since`) and returns each call's result.
pub fn repeat<R>(min: usize, budget: f64, since: Instant, mut f: impl FnMut(usize) -> R) -> Vec<R> {
    let mut out = Vec::new();
    while out.len() < min || since.elapsed().as_secs_f64() < budget {
        out.push(f(out.len()));
    }
    out
}

/// Prints one value per pass, so the spread inside a run is visible, then
/// their median and tail percentiles with sample counts.
pub fn print_passes(name: &str, values: impl IntoIterator<Item = f64>) {
    let values: Vec<f64> = values.into_iter().collect();
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    println!("{name} per pass (ms): {}", shown.join(" "));
    println!("{name}: {}", stats::Latencies::new(values).describe("ms"));
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload batch-10k|serve-300|replay-3k|campaign-1k \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed expects a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds expects a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace expects 0 or 1")),
    }
}

/// Cost of recording one span, measured on a scratch tracer (ns).
fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut scratch = Tracer::new(true);
    let started = Instant::now();
    for i in 0..N {
        scratch.span("calibrate", i, |t| t.span("inner", i, |_| ()));
    }
    started.elapsed().as_nanos() as f64 / (2 * N) as f64
}

fn main() {
    let args = parse_args();
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "batch-10k" => batch::run(&args, &mut tracer),
        "serve-300" => serve::run(&args, &mut tracer),
        "replay-3k" => replay::run(&args, &mut tracer),
        "campaign-1k" => campaign::run(&args, &mut tracer),
        other => usage(&format!("unknown workload {other}")),
    };
    let Outcome {
        metrics: measured,
        mut checks,
    } = outcome;

    let mut metrics = Metrics::default();
    if args.trace {
        let by_name = tracer.ms_by_name();
        for layer in LAYER_SPANS {
            let value = by_name.get(layer).map_or(0.0, |&(_, self_ms)| self_ms);
            metrics.push(format!("{layer}_ms"), value, "ms");
        }
        let spans = tracer.spans().len() as f64;
        for (name, unit) in LAYER_EXTRAS {
            let value = match name {
                "trace.spans" => Some(spans),
                "trace.overhead_ms" => Some(spans * span_cost_ns() / 1e6),
                _ => measured.get(name),
            };
            checks.check(value.is_some(), || format!("{name} was not measured"));
            metrics.push(name, value.unwrap_or(0.0), unit);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
        // A span's total is its self time plus its children's totals, so
        // the layers account for a path span up to its own self time.
        for (name, (total, self_ms)) in &by_name {
            println!("span {name:<20} total {total:>12.3} ms  self {self_ms:>12.3} ms");
        }
    } else {
        for (name, unit) in E2E {
            let value = match name {
                "peak_rss_mb" => peak_rss_mb(),
                _ => measured.get(name),
            };
            checks.check(value.is_some(), || format!("{name} was not measured"));
            metrics.push(name, value.unwrap_or(0.0), unit);
        }
    }
    for m in &metrics.0 {
        checks.check(valid_metric_name(&m.name) && m.value.is_finite(), || {
            format!("metric {} = {} is malformed", m.name, m.value)
        });
        println!("metric {:<22} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &checks.notes {
        println!("FAILED: {note}");
    }
    println!(
        "workload {} seed {} trace {}: {} checks, {} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        checks.attempted,
        checks.failed,
        started.elapsed().as_secs_f64()
    );
    let correct = checks.failed == 0;
    let result = mals_util::Json::obj([
        ("correct", mals_util::Json::Bool(correct)),
        ("attempted", mals_util::Json::Num(checks.attempted as f64)),
        ("failed", mals_util::Json::Num(checks.failed as f64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", result.to_compact());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_util::Json;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(Json::as_arr)
            .expect("metric list present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        let e2e: Vec<_> = E2E
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = LAYER_SPANS
            .iter()
            .map(|n| (format!("{n}_ms"), "ms".to_string()))
            .chain(
                LAYER_EXTRAS
                    .iter()
                    .map(|(n, u)| (n.to_string(), u.to_string())),
            )
            .collect();
        assert_eq!(declared("per_layer"), layers);
        assert!(e2e.iter().chain(&layers).all(|(n, _)| valid_metric_name(n)));
    }
}
