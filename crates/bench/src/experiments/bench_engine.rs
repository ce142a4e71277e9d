//! **Engine throughput benchmark** — emits `BENCH_engine.json` (as a
//! registry artifact, written next to the report: into `--out DIR`, or
//! the current directory without it).
//!
//! Two measurements:
//!
//! 1. *Hot path*: wall time and events/second for `run_batch` over 1k
//!    and 10k sleep probes (the infrastructure-sampling request mix) in
//!    a fresh seeded world, using [`FaasEngine::events_processed`].
//! 2. *Sweep speedup*: wall time of sibling multi-cell registry
//!    experiments run in-process at 1 worker vs `max(4, cores)`
//!    workers, asserting the two runs' rendered text is byte-identical.
//!    (On a single-core host the speedup is honestly ~1.0×; the
//!    `host_cores` field records the conditions.)

// Benchmarks measure host wall time by definition — the bench crate is
// on the wall-clock allowlist (sky-lint D002), and the clippy
// `disallowed_methods` ban on `Instant::now` is lifted here to match.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use crate::registry::{self, Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep::Jobs;
use crate::{outln, Scale, World};
use sky_core::cloud::Arch;
use sky_core::faas::{BatchRequest, RequestBody};
use sky_core::sim::{SimDuration, SimRng};

struct BatchRun {
    requests: usize,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    completed: usize,
}

/// Time one `run_batch` of `n` sleep probes in a fresh world; best of
/// `iters` runs.
fn bench_run_batch(n: usize, iters: usize, seed: u64) -> BatchRun {
    let mut best: Option<BatchRun> = None;
    for _ in 0..iters {
        let mut world = World::new(seed);
        let az = World::az("us-west-1b");
        let dep = world
            .engine
            .deploy(world.aws, &az, 2048, Arch::X86_64)
            .expect("deploys");
        let mut rng = SimRng::seed_from(seed).derive("bench-engine");
        let requests: Vec<BatchRequest> = (0..n)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_micros(rng.next_below(5_000_000)),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(200),
                },
            })
            .collect();
        let events_before = world.engine.events_processed();
        let start = Instant::now();
        let outcomes = world.engine.run_batch(requests);
        let wall = start.elapsed().as_secs_f64();
        let events = world.engine.events_processed() - events_before;
        let run = BatchRun {
            requests: n,
            wall_ms: wall * 1_000.0,
            events,
            events_per_sec: events as f64 / wall,
            completed: outcomes.iter().filter(|o| o.status.is_success()).count(),
        };
        if best
            .as_ref()
            .map(|b| run.wall_ms < b.wall_ms)
            .unwrap_or(true)
        {
            best = Some(run);
        }
    }
    best.expect("at least one iteration")
}

/// Run a sibling registry experiment in-process with the given worker
/// count, returning (wall seconds, rendered text).
fn run_sibling(name: &str, jobs: Jobs, scale: Scale, seed: u64) -> Option<(f64, String)> {
    let exp = registry::find(name)?;
    let start = Instant::now();
    let output = registry::run_experiment(exp, scale, jobs, seed).ok()?;
    Some((start.elapsed().as_secs_f64(), output.text))
}

/// See the module docs.
pub struct BenchEngine;

impl Experiment for BenchEngine {
    fn name(&self) -> &'static str {
        "bench_engine"
    }

    fn description(&self) -> &'static str {
        "Engine throughput benchmark; writes BENCH_engine.json artifact"
    }

    fn params(&self, _scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("batch_sizes", "1000,10000".to_string()),
            (
                "sweep_experiments",
                "fig5_progressive_sampling,fig2_global_characterization".to_string(),
            ),
        ]
    }

    /// Wall-clock measurements: the JSON differs every run.
    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let parallel_jobs = cores.max(4);

        eprintln!("run_batch hot path (best of 3)...");
        let batches: Vec<BatchRun> = [1_000usize, 10_000]
            .iter()
            .map(|&n| bench_run_batch(n, 3, ctx.seed))
            .collect();
        for b in &batches {
            eprintln!(
                "  {} requests: {:.1} ms, {} events, {:.0} events/s, {} completed",
                b.requests, b.wall_ms, b.events, b.events_per_sec, b.completed
            );
        }

        let mut sweeps = Vec::new();
        for name in ["fig5_progressive_sampling", "fig2_global_characterization"] {
            eprintln!("sweep speedup: {name} with 1 vs {parallel_jobs} workers...");
            let serial = run_sibling(name, Jobs::serial(), ctx.scale, ctx.seed);
            let parallel = run_sibling(name, Jobs::new(parallel_jobs), ctx.scale, ctx.seed);
            match (serial, parallel) {
                (Some((serial_s, serial_out)), Some((parallel_s, parallel_out))) => {
                    let identical = serial_out == parallel_out;
                    // On a single-core host a worker pool cannot beat the
                    // serial run; a <1x "speedup" would only be noise, so
                    // record null + the reason instead of a number.
                    let (speedup, note) = if cores == 1 {
                        (
                            serde_json::Value::Null,
                            serde_json::json!(
                                "single-core host: parallel sweep cannot beat serial"
                            ),
                        )
                    } else {
                        (
                            serde_json::json!(serial_s / parallel_s),
                            serde_json::Value::Null,
                        )
                    };
                    if cores == 1 {
                        eprintln!(
                            "  serial {serial_s:.2}s, parallel {parallel_s:.2}s, \
                             speedup not meaningful on a single-core host, \
                             identical output: {identical}"
                        );
                    } else {
                        eprintln!(
                            "  serial {serial_s:.2}s, parallel {parallel_s:.2}s, \
                             speedup {:.2}x, identical output: {identical}",
                            serial_s / parallel_s
                        );
                    }
                    sweeps.push(serde_json::json!({
                        "experiment": name,
                        "jobs": parallel_jobs,
                        "serial_ms": serial_s * 1_000.0,
                        "parallel_ms": parallel_s * 1_000.0,
                        "speedup": speedup,
                        "note": note,
                        "identical_output": identical,
                    }));
                }
                _ => eprintln!("  {name} failed or is not registered — skipped"),
            }
        }

        let report = serde_json::json!({
            "benchmark": "sky-bench engine throughput",
            "host_cores": cores,
            "run_batch": batches.iter().map(|b| serde_json::json!({
                "requests": b.requests,
                "wall_ms": b.wall_ms,
                "events": b.events,
                "events_per_sec": b.events_per_sec,
                "completed": b.completed,
            })).collect::<Vec<_>>(),
            "sweep_speedup": sweeps,
        });
        let rendered = serde_json::to_string_pretty(&report).expect("serializable");
        outln!(ctx, "{rendered}");
        ctx.artifact("BENCH_engine.json", rendered);
        ctx.finish()
    }
}
