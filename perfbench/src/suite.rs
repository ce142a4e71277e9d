//! `suite_quick`: `skyward exp run` as users run it. Every golden-pinned
//! registry experiment except `bench_engine_fleet`, plus
//! `table1_workloads`, at quick scale through `registry::run_many` on
//! `nproc` workers. A pass is one such suite run; successive passes
//! cycle through [`SEEDS`] seeds, starting at the workload seed. One
//! operation is one experiment.
//!
//! `bench_engine` and `bench_engine_fleet` are never run: they
//! oversubscribe threads and write `BENCH_*.json` artifacts. No suite
//! experiment may return an artifact, and none is ever written.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use sky_bench::registry::{self, Experiment, ExperimentCtx, ExperimentOutput};
use sky_bench::sweep::Jobs;
use sky_bench::{Scale, WORLD_SEED};

use crate::digest::Digest;
use crate::pass::Pass;
use crate::trace::{layer_times, Recorder};

/// The suite, in registry order.
pub const SUITE: [&str; 27] = [
    "table1_workloads",
    "fig2_global_characterization",
    "fig3_sleep_sweep",
    "fig4_saturation",
    "fig5_progressive_sampling",
    "fig6_polls_to_accuracy",
    "fig7_temporal_drift",
    "fig8_hourly_variation",
    "fig9_cpu_performance",
    "fig10_retry_methods",
    "fig11_region_hopping",
    "ex5_summary",
    "cost_summary",
    "ablation_ban_sets",
    "ablation_staleness",
    "ablation_passive",
    "latency_tradeoff",
    "arm_vs_x86",
    "availability",
    "carbon_aware",
    "adaptive_sampling",
    "fig_faults",
    "fig_exec_modes",
    "ablation_mode_routing",
    "fig_drift_regret",
    "ablation_drift_lag",
    "calibration_probe",
];

/// The one suite member without a golden: it times kernels on the host.
const TABLE1: &str = "table1_workloads";

/// When one experiment started and ended, by suite index.
type Timing = (usize, Instant, Instant);

/// Registry experiment wrapped to time its `run` as the sweep runner
/// executes it.
struct Timed {
    inner: &'static dyn Experiment,
    index: usize,
    sink: &'static Mutex<Vec<Timing>>,
}

impl Experiment for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let start = Instant::now();
        let out = self.inner.run(ctx);
        let end = Instant::now();
        self.sink
            .lock()
            .expect("timing sink poisoned by a panicking experiment")
            .push((self.index, start, end));
        out
    }
}

/// `table1_workloads` with its host-time column removed and whitespace
/// normalized (column widths follow the timings), so the checksum and
/// work-unit columns can be compared exactly.
pub fn mask_table1(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.iter().all(|t| t.chars().all(|c| c == '-')) {
            continue;
        }
        let is_row = tokens
            .get(2)
            .is_some_and(|t| t.len() == 16 && t.chars().all(|c| c.is_ascii_hexdigit()));
        if is_row && tokens.len() > 4 {
            tokens.remove(4);
        }
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

/// Passes cycle through this many seeds: the workload seed, then seeds
/// a fixed stride apart. Several experiments' work depends on the seed
/// (e.g. `adaptive_sampling` polls until its estimate converges), so a
/// single seed would let it decide the experiment-time tail.
const SEEDS: u64 = 4;
const SEED_STRIDE: u64 = 1_000_003;

/// The suite for one run: registry entries resolved once, with timing
/// wrappers that live for the whole process.
pub struct Suite {
    seeds: Vec<u64>,
    untraced_passes: usize,
    jobs: Jobs,
    root: PathBuf,
    plain: Vec<&'static dyn Experiment>,
    timed: Vec<&'static dyn Experiment>,
    sink: &'static Mutex<Vec<Timing>>,
}

impl Suite {
    /// Resolve the suite's experiments and check that the goldens under
    /// `root` are readable. The first untraced pass takes the seed `first`
    /// places into the cycle.
    pub fn new(seed: u64, first: usize, jobs: Jobs, root: &Path) -> Result<Suite, String> {
        let plain = SUITE
            .iter()
            .map(|name| registry::find(name).ok_or_else(|| format!("no experiment {name}")))
            .collect::<Result<Vec<_>, _>>()?;
        let sink: &'static Mutex<Vec<Timing>> = Box::leak(Box::new(Mutex::new(Vec::new())));
        let timed = plain
            .iter()
            .enumerate()
            .map(|(index, &inner)| {
                let wrapped: &'static dyn Experiment =
                    Box::leak(Box::new(Timed { inner, index, sink }));
                wrapped
            })
            .collect();
        let suite = Suite {
            seeds: (0..SEEDS)
                .map(|i| seed.wrapping_add(i * SEED_STRIDE))
                .collect(),
            untraced_passes: first,
            jobs,
            root: root.to_path_buf(),
            plain,
            timed,
            sink,
        };
        suite.goldens()?;
        Ok(suite)
    }

    /// Set-up: load the checked-in goldens. Outputs are compared with
    /// them at the default seed only; otherwise passes are checked
    /// against each other through the digest. Loading them whatever the
    /// seed keeps set-up the same work.
    fn goldens(&self) -> Result<Vec<Option<String>>, String> {
        SUITE
            .iter()
            .map(|name| {
                if *name == TABLE1 {
                    return Ok(None);
                }
                let path = self.root.join(format!("tests/golden/exp/{name}_quick.txt"));
                std::fs::read_to_string(&path)
                    .map(Some)
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }

    /// The expected text of each experiment at `seed`, if pinned.
    fn expected(goldens: &[Option<String>], seed: u64) -> Vec<Option<&str>> {
        goldens
            .iter()
            .map(|g| g.as_deref().filter(|_| seed == WORLD_SEED))
            .collect()
    }

    /// Check one experiment's outcome and fold it into the digest.
    fn check(
        out: &mut Pass,
        digest: &mut Digest,
        name: &str,
        result: Result<ExperimentOutput, String>,
        expected: Option<&str>,
    ) {
        let output = match result {
            Ok(output) => output,
            Err(e) => return out.fail(format!("{name} panicked: {e}")),
        };
        let text = if name == TABLE1 {
            mask_table1(&output.text)
        } else {
            output.text
        };
        if expected.is_some_and(|golden| golden != text) {
            out.fail(format!("{name} differs from its golden"));
        }
        if !output.artifacts.is_empty() {
            out.fail(format!("{name} returned an artifact"));
        }
        digest.str(name);
        digest.str(&text);
    }

    /// Run one pass: the suite through `run_many`. An untraced pass takes
    /// the next seed of the cycle; a traced pass repeats the seed of the
    /// untraced pass before it, so its outcomes are checked against the
    /// same seed. Traced passes also run every experiment once more at
    /// one job, each in its own `exp.<name>` span, and check that serial
    /// output matches the parallel run.
    pub fn pass(&mut self, rec: &mut Recorder) -> Pass {
        if !rec.enabled() {
            self.untraced_passes += 1;
        }
        let seed = self.seeds[self.untraced_passes.saturating_sub(1) % self.seeds.len()];
        let mut out = Pass {
            seed,
            ..Pass::default()
        };
        let setup = Instant::now();
        let goldens = match self.goldens() {
            Ok(goldens) => goldens,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("golden unreadable: {e}"));
                return out;
            }
        };
        let expected = Self::expected(&goldens, seed);
        out.setup_s = setup.elapsed().as_secs_f64();

        let timed = Instant::now();
        let phase = rec.enter("timed");
        let results = registry::run_many(&self.timed, Scale::Quick, self.jobs, seed);
        let mut timings = std::mem::take(&mut *self.sink.lock().expect("timing sink poisoned"));
        for &(index, start, end) in &timings {
            rec.record(format!("suite.{}", SUITE[index]), start, end);
        }
        rec.exit(phase);
        out.wall_s = timed.elapsed().as_secs_f64();
        // Experiments run in parallel, so the pass is one segment.
        out.segments = vec![out.wall_s];

        // Experiments finish in an order that varies; list them in
        // suite order, so each pass lists them alike.
        timings.sort_by_key(|&(index, _, _)| index);
        out.op_ms = timings
            .iter()
            .map(|(_, start, end)| (*end - *start).as_secs_f64() * 1e3)
            .collect();
        out.attempted = results.len() as u64;
        let mut digest = Digest::default();
        for ((name, result), expected) in results.into_iter().zip(&expected) {
            Self::check(&mut out, &mut digest, name, result, *expected);
        }
        out.digest = digest.finish();

        if rec.enabled() {
            let phase = rec.enter("serial");
            let mut serial = Digest::default();
            for (&exp, expected) in self.plain.iter().zip(&expected) {
                let entered = rec.enter(format!("exp.{}", exp.name()));
                let result = registry::run_experiment(exp, Scale::Quick, Jobs::serial(), seed);
                rec.exit(entered);
                out.attempted += 1;
                Self::check(&mut out, &mut serial, exp.name(), result, *expected);
            }
            rec.exit(phase);
            if serial.finish() != out.digest {
                out.fail("serial suite output differs from the parallel run".to_string());
            }
            for (name, t) in layer_times(rec.spans(), "serial") {
                if name.starts_with("exp.") {
                    out.layer(&format!("{name}_s"), t.self_s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mask_drops_only_host_time() {
        let a = "== T ==\n  f  v  checksum  wu  host ms  d\n------\n  \
                 zipper  2.0  3b35d1a41c1a6ac3  196608  3.5  Generates files.\n";
        let b = "== T ==\n  f  v  checksum  wu  host ms  d\n-------\n  \
                 zipper  2.0  3b35d1a41c1a6ac3  196608  12.25  Generates files.\n";
        assert_eq!(mask_table1(a), mask_table1(b));
        let c = a.replace("196608", "196609");
        assert_ne!(mask_table1(a), mask_table1(&c));
    }
}
