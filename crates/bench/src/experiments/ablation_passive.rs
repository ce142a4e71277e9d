//! **Ablation (§4.6 future work, implemented)** — passive vs active
//! characterization.
//!
//! The paper proposes eliminating probing overhead by building
//! characterizations "passively as part of the normal function
//! execution". This ablation compares three ways of learning
//! us-west-1b's CPU mix:
//!
//! 1. active polling (1, 3, 6 polls — dollars spent on probes);
//! 2. passive folding of SAAF reports from N routed production requests
//!    (zero marginal dollars — the workload was running anyway), drained
//!    from the engine's completion observation hook;
//!
//! against the platform ground truth.
//!
//! The two methods are independent sweep cells (each with its own seeded
//! world and ground-truth snapshot), so they run in parallel under
//! `--jobs N` and merge deterministically: active rows first.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{outln, Scale, World};
use sky_core::cloud::Arch;
use sky_core::sim::series::{fmt_usd, Table};
use sky_core::workloads::WorkloadKind;
use sky_core::{CampaignConfig, Characterization, SamplingCampaign, WorkloadProfiler};

#[derive(Clone, Copy)]
enum Method {
    Active,
    Passive,
}

/// Build a fresh world, instantiate us-west-1b, and snapshot its ground
/// truth. Both cells derive the identical truth (same seed).
fn world_with_truth(seed: u64) -> (World, sky_core::cloud::CpuMix) {
    let mut world = World::new(seed);
    let az = World::az("us-west-1b");
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("deploys");
    let _ = dep;
    let truth = world
        .engine
        .platform(&az)
        .expect("platform exists")
        .ground_truth_mix();
    (world, truth)
}

fn run_method(method: Method, scale: Scale, seed: u64) -> Vec<[String; 4]> {
    let az = World::az("us-west-1b");
    let (mut world, truth) = world_with_truth(seed);
    let mut rows = Vec::new();
    match method {
        Method::Active => {
            let mut campaign = SamplingCampaign::new(
                &mut world.engine,
                world.aws,
                &az,
                CampaignConfig {
                    deployments: 8,
                    ..Default::default()
                },
            )
            .expect("deploys");
            let mut spent = 0.0;
            for checkpoint in [1usize, 3, 6] {
                while campaign.polls().len() < checkpoint {
                    let stats = campaign.poll_once(&mut world.engine);
                    spent += stats.cost_usd;
                }
                rows.push([
                    format!("active, {checkpoint} poll(s)"),
                    campaign.characterization().unique_fis().to_string(),
                    format!("{:.1}", campaign.characterization().ape_percent(&truth)),
                    fmt_usd(spent),
                ]);
            }
        }
        Method::Passive => {
            // Production-style bursts; fold their SAAF reports.
            let dep = world
                .engine
                .deploy(world.aws, &az, 2048, Arch::X86_64)
                .expect("deploys");
            world.engine.set_observation_hook(true);
            let mut profiler = WorkloadProfiler::new();
            let mut passive = Characterization::new();
            let mut folded = 0usize;
            for checkpoint in [500usize, 2_000, scale.pick(6_000, 3_000)] {
                let n = checkpoint - folded;
                profiler.profile(
                    &mut world.engine,
                    dep,
                    WorkloadKind::JsonFlattener,
                    n,
                    250,
                    7,
                );
                folded = checkpoint;
                passive.observe_all(&world.engine.take_observations(&az));
                rows.push([
                    format!("passive, {checkpoint} requests"),
                    passive.unique_fis().to_string(),
                    format!("{:.1}", passive.ape_percent(&truth)),
                    "$0.0000 (traffic ran anyway)".to_string(),
                ]);
            }
        }
    }
    rows
}

/// See the module docs.
pub struct AblationPassive;

impl Experiment for AblationPassive {
    fn name(&self) -> &'static str {
        "ablation_passive"
    }

    fn description(&self) -> &'static str {
        "Ablation §4.6: active polling vs passive traffic characterization"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("active_polls", "1,3,6".to_string()),
            (
                "passive_requests",
                format!("500,2000,{}", scale.pick(6_000, 3_000)),
            ),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);

        let cells = sweep::run(
            vec![Method::Active, Method::Passive],
            ctx.jobs,
            |_, &method| run_method(method, scale, seed),
        );

        let mut out = Table::new(
            "Ablation: active polls vs passive production traffic (us-west-1b)",
            &["method", "FIs observed", "APE vs truth %", "marginal cost"],
        );
        for row in cells.iter().flatten() {
            out.row(row);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "Passive characterization converges toward the active estimate while"
        );
        outln!(
            ctx,
            "costing nothing beyond the workload the user was already paying for —"
        );
        outln!(
            ctx,
            "the paper's proposed path to eliminating probing overhead entirely."
        );
        ctx.finish()
    }
}
