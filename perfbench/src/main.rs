//! The skyward benchmark: end-to-end host-time metrics for three
//! workloads, and a traced run that times calls into each layer's
//! public API from here. Nothing inside the program is instrumented.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--root <checkout>] [--out <dir>]
//! ```
//!
//! A run repeats *passes* — a fixed amount of work determined by the
//! seed, after its own set-up — until `--seconds` have passed (and, for
//! untraced runs, at least [`MIN_OPS`] distinct operations were timed).
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced passes and prints the per-layer
//! metrics. Passes at one seed must produce the same simulated-outcome
//! digest, and at the default seed the first pass's digest must equal
//! the one pinned in `pinned.txt`. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! Times are estimated the way a noisy shared host allows: passes at one
//! seed repeat the same work piece by piece, and for each piece (the
//! set-up, each operation, each stretch of the timed phase between two
//! operations) the fastest of its repeats is kept — other processes on
//! the host only ever add time. `wall_s` is the sum of a pass's fastest
//! pieces, and the operation percentiles are taken over each
//! operation's fastest time. Where a run covers several seeds, the
//! median over seeds is reported. Untraced runs make their passes in
//! [`child::PROCESSES`] child processes one after another, so that the
//! fastest times are taken over several memory layouts.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)
// Host wall time is what this benchmark measures, so the workspace's
// clippy ban on `Instant::now` is lifted for the whole package.
#![allow(clippy::disallowed_methods)]

mod child;
mod counts;
mod digest;
mod pass;
mod routing;
mod sampling;
mod stats;
mod suite;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sky_bench::sweep::Jobs;
use sky_bench::WORLD_SEED;

use pass::Pass;
use trace::Recorder;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sampling_saturation", "daily_routing", "suite_quick"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) other than the per-experiment times.
const LAYERS: [(&str, &str); 36] = [
    ("engine.advance_s", "s"),
    ("engine.advance_events", "count"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.deploy_s", "s"),
    ("faas.attempts", "count"),
    ("faas.cold_starts", "count"),
    ("faas.warm_starts", "count"),
    ("faas.pooled_starts", "count"),
    ("faas.restored_starts", "count"),
    ("faas.branched_starts", "count"),
    ("faas.gated_retries", "count"),
    ("faas.keepalive_evictions", "count"),
    ("faas.hosts_added", "count"),
    ("faas.throttled", "count"),
    ("faas.no_capacity", "count"),
    ("faas.warm_start_ratio", "fraction"),
    ("faas.useful_attempt_ratio", "fraction"),
    ("sampling.poll_s", "s"),
    ("sampling.polls", "count"),
    ("sampling.campaign_new_s", "s"),
    ("sampling.new_fi_ratio", "fraction"),
    ("router.burst_s", "s"),
    ("router.bursts", "count"),
    ("router.retried_fraction", "fraction"),
    ("router.decide_us", "us"),
    ("hook.take_s", "s"),
    ("hook.reports", "count"),
    ("characterizer.observe_ns_per_report", "ns"),
    ("characterizer.reprobes", "count"),
    ("characterizer.reprobe_s", "s"),
    ("sweep.efficiency", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("sim_events_per_s", "events/s"),
    ("invocations_per_s", "invocations/s"),
    ("failed_frac", "fraction"),
];

/// Untraced runs time at least this many distinct operations (counting
/// each seed's once), so the p90 has at least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Digests pinned for the default seed, one `workload digest` per line.
const PINNED: &str = include_str!("../pinned.txt");

/// Every per-layer metric, with units: [`LAYERS`] plus `exp.<name>_s`
/// for each suite experiment.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(suite::SUITE.iter().map(|n| (format!("exp.{n}_s"), "s")));
    all
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// When not 0, the index of this child process (from 1): run passes
    /// here and print them for the parent (see [`child`]).
    child: u64,
    root: PathBuf,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: WORLD_SEED,
        seconds: 10.0,
        trace: false,
        child: 0,
        root: PathBuf::from("."),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = number(value)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("{flag} {value}: expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--child" => args.child = number(value)?,
            "--root" => args.root = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident set of this process so far, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Passes run until a deadline, and the panic that ended them early.
#[derive(Default)]
pub struct Passes {
    done: Vec<(Pass, Recorder)>,
    panicked: Option<String>,
    /// Peak RSS when the first pass ended: later passes reuse a heap
    /// fragmented by earlier ones, so only the first is repeatable.
    first_peak_rss_mb: Option<f64>,
}

impl Passes {
    /// Operations timed, counting each seed's once.
    pub fn distinct_ops(&self) -> usize {
        let mut seeds = Vec::new();
        let mut ops = 0;
        for (p, _) in &self.done {
            if !seeds.contains(&p.seed) {
                seeds.push(p.seed);
                ops += p.op_ms.len();
            }
        }
        ops
    }
}

/// Run passes until `until`, and at least `min_passes` passes. Pass `i`
/// is traced when `traced(i)`. A panicking pass ends the loop.
fn run_passes(
    one: &mut dyn FnMut(&mut Recorder) -> Pass,
    traced: &dyn Fn(usize) -> bool,
    until: Instant,
    min_passes: usize,
) -> Passes {
    let mut passes = Passes::default();
    loop {
        let mut rec = Recorder::new(traced(passes.done.len()));
        match catch_unwind(AssertUnwindSafe(|| one(&mut rec))) {
            Ok(pass) => {
                passes.done.push((pass, rec));
                if passes.first_peak_rss_mb.is_none() {
                    passes.first_peak_rss_mb = peak_rss_mb();
                }
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                passes.panicked = Some(msg);
                break;
            }
        }
        if Instant::now() >= until && passes.done.len() >= min_passes {
            break;
        }
    }
    passes
}

fn median_of(passes: &[&(Pass, Recorder)], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(|(p, _)| f(p)).collect::<Vec<_>>())
}

/// One seed's passes reduced to the fastest time seen for each piece of
/// their work.
struct Fastest {
    setup_s: f64,
    /// Sum of the fastest time of each segment of the timed phase.
    wall_s: f64,
    /// Fastest time of each operation, ms.
    op_ms: Vec<f64>,
    events: u64,
    invocations: u64,
}

/// Reduce `passes` seed by seed, in order of each seed's first pass.
fn fastest(passes: &[&(Pass, Recorder)]) -> Vec<Fastest> {
    let mut seeds: Vec<u64> = Vec::new();
    for (p, _) in passes {
        if !seeds.contains(&p.seed) {
            seeds.push(p.seed);
        }
    }
    seeds
        .into_iter()
        .map(|seed| {
            let group: Vec<&Pass> = passes
                .iter()
                .map(|(p, _)| p)
                .filter(|p| p.seed == seed)
                .collect();
            let segments: Vec<&[f64]> = group.iter().map(|p| p.segments.as_slice()).collect();
            let ops: Vec<&[f64]> = group.iter().map(|p| p.op_ms.as_slice()).collect();
            Fastest {
                setup_s: group
                    .iter()
                    .map(|p| p.setup_s)
                    .fold(f64::INFINITY, f64::min),
                wall_s: stats::elementwise_min(&segments).iter().sum(),
                op_ms: stats::elementwise_min(&ops),
                events: group[0].events,
                invocations: group[0].invocations,
            }
        })
        .collect()
}

fn median_over(seeds: &[Fastest], f: impl Fn(&Fastest) -> f64) -> f64 {
    stats::median(&seeds.iter().map(f).collect::<Vec<_>>())
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: whether every output check passed, operation
/// counts, and the metrics as `(name, value, unit)`.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers: `nproc` for the suite, one for the simulator workloads.
fn jobs_for(workload: &str) -> Jobs {
    if workload == "suite_quick" {
        Jobs::new(nproc())
    } else {
        Jobs::serial()
    }
}

/// Run the workload's passes in this process.
fn measure(args: &Args) -> Result<Passes, String> {
    let jobs = jobs_for(&args.workload);
    let (seed, root) = (args.seed, args.root.clone());
    let mut one: Box<dyn FnMut(&mut Recorder) -> Pass> = match args.workload.as_str() {
        "sampling_saturation" => Box::new(move |rec| sampling::pass(seed, rec)),
        "daily_routing" => Box::new(move |rec| routing::pass(seed, rec)),
        _ => {
            // Child `i` starts the suite's seed cycle `i - 1` seeds in,
            // so that a run's children share out its seeds.
            let first = args.child.saturating_sub(1) as usize;
            let mut suite = suite::Suite::new(seed, first, jobs, &root)?;
            Box::new(move |rec| suite.pass(rec))
        }
    };

    let start = Instant::now();
    // Traced runs alternate untraced and traced passes, so that a drift
    // in host speed does not show up as tracing overhead.
    Ok(run_passes(
        &mut *one,
        &|i| args.trace && i % 2 == 1,
        start + Duration::from_secs_f64(args.seconds),
        if args.trace { 2 } else { 1 },
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = nproc();
    let jobs = jobs_for(&args.workload);
    let run = if args.trace {
        measure(args)?
    } else {
        let argv: Vec<String> = [
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--trace",
            "0",
            "--root",
            &args.root.to_string_lossy(),
            "--out",
            &args.out.to_string_lossy(),
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        child::spread(&argv, args.seconds)?
    };

    // Output checks: failures, digest agreement, and the pin.
    let all: Vec<&Pass> = run.done.iter().map(|(p, _)| p).collect();
    let panics = u64::from(run.panicked.is_some());
    let attempted = all.iter().map(|p| p.attempted).sum::<u64>() + panics;
    let failed = all.iter().map(|p| p.failed).sum::<u64>() + panics;
    for problem in all.iter().flat_map(|p| &p.problems).chain(&run.panicked) {
        eprintln!("check failed: {problem}");
    }
    let (traced, untraced): (Vec<_>, Vec<_>) = run.done.iter().partition(|(_, r)| r.enabled());
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return Err("no pass completed".to_string());
    }
    let mut correct = failed == 0;
    if all
        .iter()
        .any(|p| all.iter().any(|q| q.seed == p.seed && q.digest != p.digest))
    {
        eprintln!("check failed: simulated outcomes differ between passes at one seed");
        correct = false;
    }
    if all.iter().any(|p| {
        all.iter().any(|q| {
            q.seed == p.seed
                && (q.segments.len() != p.segments.len() || q.op_ms.len() != p.op_ms.len())
        })
    }) {
        eprintln!("check failed: passes at one seed timed different pieces of work");
        correct = false;
    }
    // The first pass runs at the workload seed.
    let digest = all[0].digest;
    let pinned = PINNED
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == args.workload)
        .map(|(_, d)| d.trim());
    let digest_hex = format!("{digest:016x}");
    if args.seed == WORLD_SEED && pinned != Some(digest_hex.as_str()) {
        eprintln!(
            "check failed: digest {digest_hex} at seed {WORLD_SEED}, pinned {}",
            pinned.unwrap_or("nothing")
        );
        correct = false;
    }
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"jobs\": {}, \"profile\": \"{}\", \"passes\": {}, \"traced_passes\": {}, \"digest\": \"{digest_hex}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs.get(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        untraced.len(),
        if args.trace { traced.len() } else { 0 },
    );

    let walls: Vec<String> = untraced
        .iter()
        .map(|(p, _)| format!("{:.4}", p.wall_s))
        .collect();
    println!("# pass wall_s [{}]", walls.join(", "));
    let fast_untraced = fastest(&untraced);
    let wall_untraced = median_over(&fast_untraced, |f| f.wall_s);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        let op_ms: Vec<f64> = fast_untraced.iter().flat_map(|f| f.op_ms.clone()).collect();
        let p90 = stats::tail_percentile(&op_ms, 0.9)
            .ok_or_else(|| format!("{} operations are too few for a p90", op_ms.len()))?;
        let rss = run
            .first_peak_rss_mb
            .ok_or("peak RSS unavailable (no /proc/self/status)")?;
        let values = [
            median_over(&fast_untraced, |f| f.setup_s),
            wall_untraced,
            stats::median(&op_ms),
            p90,
            rss,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        println!("# ops {}", op_ms.len());
        if untraced[0].0.events > 0 {
            println!(
                "# sim_events_per_s {} events/s",
                median_over(&fast_untraced, |f| f.events as f64 / f.wall_s)
            );
            println!(
                "# invocations_per_s {} invocations/s",
                median_over(&fast_untraced, |f| f.invocations as f64 / f.wall_s)
            );
        }
    } else {
        let wall_traced = median_over(&fastest(&traced), |f| f.wall_s);
        let layer = |name: &str| {
            median_of(&traced, |p| {
                p.layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v)
            })
        };
        let serial_s: f64 = suite::SUITE
            .iter()
            .map(|n| layer(&format!("exp.{n}_s")))
            .sum();
        for (name, unit) in per_layer() {
            let value = match name.as_str() {
                "trace.overhead_frac" => wall_traced / wall_untraced - 1.0,
                "sweep.efficiency" => serial_s / (jobs.get() as f64 * wall_untraced),
                "sim_events_per_s" => median_over(&fast_untraced, |f| f.events as f64 / f.wall_s),
                "invocations_per_s" => {
                    median_over(&fast_untraced, |f| f.invocations as f64 / f.wall_s)
                }
                "failed_frac" => failed as f64 / attempted.max(1) as f64,
                _ => layer(&name),
            };
            metrics.push((name, value, unit));
        }
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let mut spans = String::new();
        for (i, (_, rec)) in traced.iter().enumerate() {
            trace::write_jsonl(&mut spans, i, rec.spans());
        }
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child > 0 {
        return match measure(&args) {
            Ok(passes) => {
                for problem in passes.done.iter().flat_map(|(p, _)| &p.problems) {
                    eprintln!("check failed: {problem}");
                }
                print!("{}", child::encode(&passes));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    match run(&args) {
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
        }) => {
            println!(
                "# failed_frac {} fraction",
                failed as f64 / attempted.max(1) as f64
            );
            for (name, value, unit) in &metrics {
                println!("{name} = {value} {unit}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                json_metrics(&metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        &v.as_map()
            .expect("object")
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key}"))
            .1
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        field(&benchmark_json(), key)
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = field(&benchmark_json(), "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| field(w, "name").as_str().expect("string").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn digest_repeats_across_runs_and_tracing_and_changes_with_seed() {
        let untraced = routing::pass(WORLD_SEED, &mut Recorder::new(false));
        let traced = routing::pass(WORLD_SEED, &mut Recorder::new(true));
        let other = routing::pass(7, &mut Recorder::new(false));
        assert_eq!(untraced.failed, 0, "{:?}", untraced.problems);
        assert_eq!(untraced.digest, traced.digest);
        assert_ne!(untraced.digest, other.digest);
    }
}
