//! **fig_exec_modes** — one table row per FI lifecycle (ephemeral,
//! cached, cached+pool, checkpointed, branched, persistent) under the
//! same three-wave burst schedule on the homogeneous 2.5 GHz zone, so
//! latency and cost differences are attributable to the lifecycle
//! alone. Waves are spaced past the 5–9 minute keep-alive ceiling but
//! inside the 30-minute snapshot TTL: cached arms re-pay the cold start
//! every wave while checkpointed arms restore and branched arms clone.
//!
//! Each lifecycle is one sweep cell (a fresh seeded world from
//! [`WORLD_SEED`]), so the table is byte-identical for any `--jobs`
//! setting. The two verdict lines — snapshot restore sits strictly
//! between warm reuse and cold boot, and the pre-warm pool absorbs every
//! burst cold-start-free — are pinned by the golden harness.

use crate::out;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep::{self, Jobs};
use crate::{Scale, World, WORLD_SEED};
use sky_core::cloud::{Arch, AzId};
use sky_core::faas::{
    BatchRequest, ExecMode, ExecProfile, InvocationOutcome, PoolPolicy, RequestBody,
};
use sky_core::percentile;
use sky_core::sim::series::Table;
use sky_core::sim::{MetricsSnapshot, SimDuration};

/// The homogeneous 2.5 GHz zone: every start class pays the same
/// execution time, so the figure isolates dispatch-path differences.
fn mode_az() -> AzId {
    World::az("us-east-2a")
}

/// Bursts per arm. Wave 1 is always a cold ramp; waves 2–3 show what
/// the lifecycle can reuse.
const WAVES: usize = 3;

/// Gap between waves: past the 5–9 minute keep-alive ceiling, inside
/// the 30-minute snapshot TTL.
fn wave_gap() -> SimDuration {
    SimDuration::from_mins(10)
}

/// Concurrent requests per wave.
fn wave_size(scale: Scale) -> usize {
    scale.pick(48, 12)
}

/// One figure row: a lifecycle arm of `fig_exec_modes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArm {
    /// Fresh microVM per request, torn down after the response.
    Ephemeral,
    /// The keep-alive default every other experiment runs under.
    Cached,
    /// Cached plus a fixed pre-warm pool sized to the wave.
    Prewarmed,
    /// Snapshot on release, CRIU-style restore on the next cold path.
    Checkpointed,
    /// CoW clones off the parent snapshot under concurrency.
    Branched,
    /// Never reclaimed; the provisioned-concurrency endpoint.
    Persistent,
}

impl ModeArm {
    /// Every arm, in figure row order.
    pub const ALL: [ModeArm; 6] = [
        ModeArm::Ephemeral,
        ModeArm::Cached,
        ModeArm::Prewarmed,
        ModeArm::Checkpointed,
        ModeArm::Branched,
        ModeArm::Persistent,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            ModeArm::Ephemeral => "ephemeral",
            ModeArm::Cached => "cached",
            ModeArm::Prewarmed => "cached+pool",
            ModeArm::Checkpointed => "checkpointed",
            ModeArm::Branched => "branched",
            ModeArm::Persistent => "persistent",
        }
    }

    /// The execution profile this arm deploys under.
    pub fn profile(self, scale: Scale) -> ExecProfile {
        match self {
            ModeArm::Ephemeral => ExecProfile::for_mode(ExecMode::Ephemeral),
            ModeArm::Cached => ExecProfile::for_mode(ExecMode::Cached),
            ModeArm::Prewarmed => {
                let n = wave_size(scale) as u32;
                ExecProfile::for_mode(ExecMode::Cached)
                    .with_pool(PoolPolicy::Fixed { target: n, cap: n })
            }
            ModeArm::Checkpointed => ExecProfile::for_mode(ExecMode::Checkpointed),
            ModeArm::Branched => ExecProfile::for_mode(ExecMode::Branched),
            ModeArm::Persistent => ExecProfile::for_mode(ExecMode::Persistent),
        }
    }
}

/// Start-class counts plus latency/cost aggregates for one arm.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// The lifecycle under test.
    pub arm: ModeArm,
    /// Cold boots.
    pub cold: u64,
    /// Starts served from the pre-warm pool.
    pub pooled: u64,
    /// Snapshot restores.
    pub restored: u64,
    /// CoW branches.
    pub branched: u64,
    /// Keep-alive (or persistent) reuses.
    pub warm: u64,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// Tail end-to-end latency, ms.
    pub p95_ms: f64,
    /// Median cold dispatch latency, ms (0 when the arm never cold-boots).
    pub cold_p50_ms: f64,
    /// Median restore/branch dispatch latency, ms.
    pub restore_p50_ms: f64,
    /// Median warm/pooled dispatch latency, ms.
    pub warm_p50_ms: f64,
    /// Dollars per 1 000 requests (all attempts).
    pub usd_per_k: f64,
    /// Requests issued.
    pub n: usize,
}

/// Median of a per-class dispatch histogram, in ms (0 if never observed).
fn dispatch_p50_ms(snap: &MetricsSnapshot, name: &str, az: &str) -> f64 {
    use sky_core::sim::metrics::MetricValue;
    snap.entries
        .iter()
        .find(|e| {
            e.subsystem == "faas"
                && e.name == name
                && e.labels.iter().any(|(k, v)| k == "az" && v == az)
        })
        .and_then(|e| match &e.value {
            MetricValue::Histogram(h) => h.to_histogram().quantile(0.5),
            _ => None,
        })
        .map(|us| us as f64 / 1_000.0)
        .unwrap_or(0.0)
}

pub(crate) fn e2e_ms(outcomes: &[InvocationOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| o.finished.saturating_since(o.arrived).as_millis_f64())
        .collect()
}

fn usd_per_k(outcomes: &[InvocationOutcome]) -> f64 {
    let total: f64 = outcomes.iter().map(|o| o.total_cost_usd()).sum();
    1_000.0 * total / outcomes.len().max(1) as f64
}

/// Run one lifecycle arm: three concurrent sleep-bursts spaced by
/// [`wave_gap`] in a fresh seeded world. Returns the row plus the arm's
/// metric snapshot tagged with a `mode` label. Deterministic from
/// [`WORLD_SEED`].
fn run_mode_arm(arm: ModeArm, scale: Scale) -> (ModeRow, MetricsSnapshot) {
    let mut world = World::new(WORLD_SEED);
    let az = mode_az();
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("mode arm deploys");
    world.engine.set_exec_profile(dep, arm.profile(scale));

    let n = wave_size(scale);
    let mut outcomes = Vec::with_capacity(WAVES * n);
    for _ in 0..WAVES {
        let requests: Vec<BatchRequest> = (0..n)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::ZERO,
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(250),
                },
            })
            .collect();
        outcomes.extend(world.engine.run_batch(requests));
        world.engine.advance_by(wave_gap());
    }
    assert!(
        outcomes.iter().all(|o| o.status.is_success()),
        "{}: the mode figure must run below saturation",
        arm.label()
    );

    let snap = world.metrics_snapshot();
    let count = |name: &str| {
        snap.counter("faas", name, &[("az", "us-east-2a")])
            .unwrap_or(0)
    };
    let ms = e2e_ms(&outcomes);
    let row = ModeRow {
        arm,
        cold: count("cold_starts"),
        pooled: count("pooled_starts"),
        restored: count("restored_starts"),
        branched: count("branched_starts"),
        warm: count("warm_starts"),
        p50_ms: percentile(&ms, 0.50),
        p95_ms: percentile(&ms, 0.95),
        cold_p50_ms: dispatch_p50_ms(&snap, "dispatch_cold_us", "us-east-2a"),
        restore_p50_ms: dispatch_p50_ms(&snap, "dispatch_restore_us", "us-east-2a"),
        warm_p50_ms: dispatch_p50_ms(&snap, "dispatch_warm_us", "us-east-2a"),
        usd_per_k: usd_per_k(&outcomes),
        n: outcomes.len(),
    };
    (row, snap.with_label("mode", arm.label()))
}

/// All figure rows plus the experiment-wide metric snapshot. Cells are
/// pure, and per-cell snapshots merge in `ModeArm::ALL` order, so both
/// outputs are byte-identical for any `jobs` setting.
pub fn fig_exec_modes_with_metrics(scale: Scale, jobs: Jobs) -> (Vec<ModeRow>, MetricsSnapshot) {
    let cells = sweep::run(ModeArm::ALL.to_vec(), jobs, |_, &arm| {
        run_mode_arm(arm, scale)
    });
    let mut rows = Vec::with_capacity(cells.len());
    let mut metrics = MetricsSnapshot::new();
    for (row, cell_metrics) in cells {
        rows.push(row);
        metrics.merge(&cell_metrics);
    }
    (rows, metrics)
}

fn find_row(rows: &[ModeRow], arm: ModeArm) -> &ModeRow {
    rows.iter().find(|r| r.arm == arm).expect("arm present")
}

/// Render the figure: one row per lifecycle, then the two verdict lines
/// the golden harness pins.
fn render_fig_exec_modes(rows: &[ModeRow]) -> String {
    let mut table = Table::new(
        format!(
            "fig_exec_modes: FI lifecycles under {} waves of {} on {}",
            WAVES,
            rows.first().map(|r| r.n / WAVES).unwrap_or(0),
            mode_az()
        ),
        &[
            "mode", "cold", "pooled", "restored", "branched", "warm", "p50 ms", "p95 ms", "$/1k",
        ],
    );
    for row in rows {
        table.row(&[
            row.arm.label().to_string(),
            row.cold.to_string(),
            row.pooled.to_string(),
            row.restored.to_string(),
            row.branched.to_string(),
            row.warm.to_string(),
            format!("{:.1}", row.p50_ms),
            format!("{:.1}", row.p95_ms),
            format!("{:.4}", row.usd_per_k),
        ]);
    }
    let mut out = table.render();
    let cached = find_row(rows, ModeArm::Cached);
    let pooled = find_row(rows, ModeArm::Prewarmed);
    let checkpointed = find_row(rows, ModeArm::Checkpointed);
    let persistent = find_row(rows, ModeArm::Persistent);
    // Dispatch medians isolate the start path from the 250 ms body:
    // warm reuse (persistent arm) < snapshot restore (checkpointed arm)
    // < cold boot (cached arm).
    let (warm, restore, cold) = (
        persistent.warm_p50_ms,
        checkpointed.restore_p50_ms,
        cached.cold_p50_ms,
    );
    let between = warm < restore && restore < cold;
    out.push_str(&format!(
        "restore dispatch lands between warm reuse and cold boot (p50 {warm:.1} < {restore:.1} < {cold:.1} ms): {}\n",
        if between { "yes" } else { "NO" },
    ));
    let pool_clean = pooled.cold == 0 && pooled.pooled == pooled.n as u64;
    out.push_str(&format!(
        "pre-warm pool absorbs every burst without a cold start: {}\n",
        if pool_clean { "yes" } else { "NO" },
    ));
    out
}

/// See the module docs.
pub struct FigExecModes;

impl Experiment for FigExecModes {
    fn name(&self) -> &'static str {
        "fig_exec_modes"
    }

    fn description(&self) -> &'static str {
        "FI lifecycle matrix: cold/pooled/restored/branched/warm latency and cost"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("lifecycles", ModeArm::ALL.len().to_string()),
            ("waves", WAVES.to_string()),
            ("wave_size", wave_size(scale).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (rows, _) = fig_exec_modes_with_metrics(ctx.scale, ctx.jobs);
        out!(ctx, "{}", render_fig_exec_modes(&rows));
        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycles_reuse_what_they_promise() {
        let (rows, _) = fig_exec_modes_with_metrics(Scale::Quick, Jobs::serial());
        let n = (WAVES * wave_size(Scale::Quick)) as u64;
        let eph = find_row(&rows, ModeArm::Ephemeral);
        assert_eq!(eph.cold, n, "ephemeral cold-boots every request");
        let cached = find_row(&rows, ModeArm::Cached);
        assert_eq!(cached.cold, n, "keep-alive lapses between waves");
        let pooled = find_row(&rows, ModeArm::Prewarmed);
        assert_eq!(pooled.cold, 0, "pool absorbs every burst");
        assert_eq!(pooled.pooled, n);
        let ckpt = find_row(&rows, ModeArm::Checkpointed);
        assert!(ckpt.restored > 0, "waves 2-3 restore from snapshot");
        assert!(ckpt.cold < cached.cold);
        let br = find_row(&rows, ModeArm::Branched);
        assert!(br.branched > 0, "burst clones branch");
        assert!(br.cold < cached.cold);
        // Under concurrent bursts the router spreads instead of always
        // reusing (Lambda scale-out), so persistent still cold-boots
        // sometimes — but strictly less than cached, which re-pays the
        // whole ramp every wave, and it alone reuses warm across waves.
        let per = find_row(&rows, ModeArm::Persistent);
        assert!(per.cold < cached.cold, "persistent reuses across waves");
        assert!(per.warm > 0, "persistent FIs survive the 10-min gaps");
        for row in &rows {
            assert_eq!(
                row.cold + row.pooled + row.restored + row.branched + row.warm,
                n,
                "{}: start classes partition the requests",
                row.arm.label()
            );
        }
    }
}
