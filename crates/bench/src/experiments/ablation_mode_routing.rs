//! **ablation_mode_routing** — does the paper's CPU-aware retry
//! steering (§3.5, the 18.2 % cost win) survive execution-mode
//! diversity?
//!
//! Crosses client policy (naive vs CPU-gated) with the cached,
//! checkpointed and branched lifecycles on the heterogeneous retry
//! zone. Each `(mode, policy)` pair is one sweep cell (a fresh seeded
//! world from [`WORLD_SEED`]), so the grid is byte-identical for any
//! `--jobs` setting; the verdict line asserts the steering cost win
//! holds in every mode.

use super::fig_exec_modes::e2e_ms;
use crate::out;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep::{self, Jobs};
use crate::{Scale, World, WORLD_SEED};
use sky_core::cloud::{Arch, AzId, CpuSet, CpuType};
use sky_core::faas::{BatchRequest, ExecMode, ExecProfile, RequestBody, WorkloadSpec};
use sky_core::sim::series::Table;
use sky_core::sim::{MetricsSnapshot, SimDuration};
use sky_core::workloads::WorkloadKind;

/// The heterogeneous retry zone the routing ablation steers within.
fn routing_az() -> AzId {
    World::az("us-west-1b")
}

/// The exec modes the routing ablation crosses with client policy.
const ROUTING_MODES: [ExecMode; 3] = [ExecMode::Cached, ExecMode::Checkpointed, ExecMode::Branched];

/// The workload the steering experiment runs: zipper, the Figure-10
/// function, whose per-CPU runtime spread is wide enough for steering
/// to amortize its retry overhead.
const ROUTING_WORKLOAD: WorkloadKind = WorkloadKind::Zipper;

/// CPUs the gated client refuses: the EPYC straggler and the 2.9 GHz
/// part that is counter-intuitively slower than the 2.5 GHz baseline
/// (Figure 9). 70 % of the zone remains acceptable.
fn banned_cpus() -> CpuSet {
    CpuSet::from_slice(&[CpuType::IntelXeon2_9, CpuType::AmdEpyc])
}

/// One ablation cell: a `(mode, gated)` arm.
#[derive(Debug, Clone)]
pub struct RoutingRow {
    /// Lifecycle the deployment runs under.
    pub mode: ExecMode,
    /// Whether the client steers via CPU-gated retries.
    pub gated: bool,
    /// Mean billed execution time of the final attempt over successful
    /// requests, ms.
    pub mean_billed_ms: f64,
    /// Mean end-to-end latency (including declines and reissues), ms.
    pub mean_e2e_ms: f64,
    /// Dollars per 1 000 *completed* requests; declined attempts still
    /// bill into the numerator (the paper's savings accounting).
    pub usd_per_k: f64,
    /// Platform attempts per request.
    pub attempts_per_req: f64,
    /// Requests whose retry budget ran out on declined CPUs.
    pub declined: u64,
    /// Snapshot restores observed (checkpointed arms).
    pub restored: u64,
    /// CoW branches observed (branched arms).
    pub branched: u64,
}

/// Run one `(mode, gated)` arm: two request waves separated past the
/// keep-alive ceiling on the heterogeneous retry zone. Deterministic
/// from [`WORLD_SEED`].
fn run_routing_arm(mode: ExecMode, gated: bool, scale: Scale) -> (RoutingRow, MetricsSnapshot) {
    let mut world = World::new(WORLD_SEED);
    let az = routing_az();
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("routing arm deploys");
    world
        .engine
        .set_exec_profile(dep, ExecProfile::for_mode(mode));

    let spec = WorkloadSpec::new(ROUTING_WORKLOAD);
    // The gate parameters mirror the SmartRouter defaults (§3.5): a
    // 150 ms hold with a 60 ms reissue keeps declined FIs busy past the
    // retry, and the generous retry budget lets steering converge.
    let body = if gated {
        RequestBody::GatedWorkload {
            spec,
            banned: banned_cpus(),
            hold: SimDuration::from_millis(150),
            max_retries: 25,
            retry_latency: SimDuration::from_millis(60),
        }
    } else {
        RequestBody::Workload { spec }
    };
    let n = scale.pick(120, 24);
    let mut outcomes = Vec::with_capacity(2 * n);
    for _ in 0..2 {
        let requests: Vec<BatchRequest> = (0..n)
            .map(|i| BatchRequest {
                deployment: dep,
                // Arrivals ramp across a router-style 150 ms jitter
                // window.
                offset: SimDuration::from_micros(150_000 * i as u64 / n as u64),
                body,
            })
            .collect();
        outcomes.extend(world.engine.run_batch(requests));
        world.engine.advance_by(SimDuration::from_mins(12));
    }
    // Declines that exhausted the retry budget are a legitimate (and
    // billed) outcome of the steering method; only platform rejections
    // would invalidate the comparison.
    assert!(
        outcomes.iter().all(|o| !o.status.is_error()),
        "routing ablation must run below saturation"
    );

    let snap = world.metrics_snapshot();
    let count = |name: &str| {
        snap.counter("faas", name, &[("az", "us-west-1b")])
            .unwrap_or(0)
    };
    let billed_ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.status.is_success())
        .map(|o| o.billed.as_millis_f64())
        .collect();
    let e2e = e2e_ms(&outcomes);
    let attempts: u64 = outcomes.iter().map(|o| o.attempts as u64).sum();
    let completed = outcomes.iter().filter(|o| o.status.is_success()).count();
    // Cost accounting matches the daily-routing experiments: every
    // attempt (declines included) is billed, divided by completed work.
    let total_usd: f64 = outcomes.iter().map(|o| o.total_cost_usd()).sum();
    let row = RoutingRow {
        mode,
        gated,
        mean_billed_ms: billed_ms.iter().sum::<f64>() / billed_ms.len().max(1) as f64,
        mean_e2e_ms: e2e.iter().sum::<f64>() / e2e.len().max(1) as f64,
        usd_per_k: 1_000.0 * total_usd / completed.max(1) as f64,
        attempts_per_req: attempts as f64 / outcomes.len().max(1) as f64,
        declined: outcomes.iter().filter(|o| !o.status.is_success()).count() as u64,
        restored: count("restored_starts"),
        branched: count("branched_starts"),
    };
    let snap = snap
        .with_label("mode", mode.label())
        .with_label("policy", if gated { "gated" } else { "baseline" });
    (row, snap)
}

/// The six ablation cells in `(mode, policy)` order.
fn routing_cells() -> Vec<(ExecMode, bool)> {
    ROUTING_MODES
        .iter()
        .flat_map(|&m| [(m, false), (m, true)])
        .collect()
}

/// All ablation rows plus the experiment-wide metric snapshot, fanned
/// out over the sweep runner; byte-identical for any `jobs` setting.
pub fn ablation_mode_routing_with_metrics(
    scale: Scale,
    jobs: Jobs,
) -> (Vec<RoutingRow>, MetricsSnapshot) {
    let cells = sweep::run(routing_cells(), jobs, |_, &(mode, gated)| {
        run_routing_arm(mode, gated, scale)
    });
    let mut rows = Vec::with_capacity(cells.len());
    let mut metrics = MetricsSnapshot::new();
    for (row, cell_metrics) in cells {
        rows.push(row);
        metrics.merge(&cell_metrics);
    }
    (rows, metrics)
}

/// Render the ablation: a `(mode, policy)` grid, then the per-mode
/// steering saving and the survival verdict.
fn render_ablation_mode_routing(rows: &[RoutingRow]) -> String {
    let mut table = Table::new(
        format!(
            "ablation_mode_routing: CPU-gated steering x exec mode on {}",
            routing_az()
        ),
        &[
            "mode",
            "policy",
            "billed ms",
            "e2e ms",
            "$/1k",
            "attempts",
            "declined",
            "restored",
            "branched",
        ],
    );
    for row in rows {
        table.row(&[
            row.mode.label().to_string(),
            if row.gated { "gated" } else { "baseline" }.to_string(),
            format!("{:.0}", row.mean_billed_ms),
            format!("{:.0}", row.mean_e2e_ms),
            format!("{:.4}", row.usd_per_k),
            format!("{:.2}", row.attempts_per_req),
            row.declined.to_string(),
            row.restored.to_string(),
            row.branched.to_string(),
        ]);
    }
    let mut out = table.render();
    let mut survives = true;
    for mode in ROUTING_MODES {
        let base = rows
            .iter()
            .find(|r| r.mode == mode && !r.gated)
            .expect("baseline row");
        let gated = rows
            .iter()
            .find(|r| r.mode == mode && r.gated)
            .expect("gated row");
        let saving = 100.0 * (base.usd_per_k - gated.usd_per_k) / base.usd_per_k;
        survives &= gated.usd_per_k < base.usd_per_k;
        out.push_str(&format!(
            "{}: steering saves {:.1}% of cost per 1k requests\n",
            mode.label(),
            saving,
        ));
    }
    out.push_str(&format!(
        "CPU-aware steering stays cheaper than the naive client in every exec mode: {}\n",
        if survives { "yes" } else { "NO" },
    ));
    out
}

/// See the module docs.
pub struct AblationModeRouting;

impl Experiment for AblationModeRouting {
    fn name(&self) -> &'static str {
        "ablation_mode_routing"
    }

    fn description(&self) -> &'static str {
        "Ablation: CPU-gated retry steering crossed with exec modes"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("modes", ROUTING_MODES.len().to_string()),
            ("requests_per_arm", (2 * scale.pick(120, 24)).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (rows, _) = ablation_mode_routing_with_metrics(ctx.scale, ctx.jobs);
        out!(ctx, "{}", render_ablation_mode_routing(&rows));
        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_outruns_baseline_in_every_mode() {
        for mode in ROUTING_MODES {
            let (base, _) = run_routing_arm(mode, false, Scale::Quick);
            let (gated, _) = run_routing_arm(mode, true, Scale::Quick);
            assert!(
                gated.mean_billed_ms < base.mean_billed_ms,
                "{}: steering onto fast CPUs must cut billed time ({:.0} vs {:.0} ms)",
                mode.label(),
                gated.mean_billed_ms,
                base.mean_billed_ms,
            );
            assert!(
                gated.attempts_per_req > 1.0,
                "{}: some declines must occur on the diverse zone",
                mode.label()
            );
            assert!(
                gated.usd_per_k < base.usd_per_k,
                "{}: the steering cost win must survive the lifecycle ({:.4} vs {:.4} $/1k)",
                mode.label(),
                gated.usd_per_k,
                base.usd_per_k,
            );
        }
    }
}
