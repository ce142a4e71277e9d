//! **Figure 6 / EX-4** — sampling effort needed for accurate
//! characterization, across five zones and two weeks.
//!
//! Repeats the progressive-sampling campaign daily (22 h cadence) in the
//! EX-4 zones and reports the polls (and FIs) needed to come within 15 %
//! / 10 % / 5 % / 1 % APE of each day's final characterization — the
//! paper reports averages of 1.41 / 2.62 / 5.65 / 10.5 polls.

use crate::outln;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{ex4_zones, Scale};
use sky_core::cloud::{Catalog, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::series::Table;
use sky_core::{
    run_temporal_campaign, CampaignConfig, PollConfig, TemporalConfig, RESAMPLE_CADENCE,
};

/// See the module docs.
pub struct Fig6PollsToAccuracy;

impl Experiment for Fig6PollsToAccuracy {
    fn name(&self) -> &'static str {
        "fig6_polls_to_accuracy"
    }

    fn description(&self) -> &'static str {
        "Fig 6 / EX-4: polls needed per day for 85/90/95/99% accuracy"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("observations", scale.pick(14, 3).to_string()),
            ("requests_per_poll", scale.pick(1_000, 300).to_string()),
            ("max_polls", scale.pick(60, 10).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let mut engine =
            FaasEngine::new(Catalog::paper_world(ctx.seed), FleetConfig::new(ctx.seed));
        let account = engine.create_account(Provider::Aws);
        let config = TemporalConfig {
            observations: scale.pick(14, 3),
            cadence: RESAMPLE_CADENCE,
            campaign: CampaignConfig {
                poll: PollConfig {
                    requests: scale.pick(1_000, 300),
                    ..Default::default()
                },
                max_polls: scale.pick(60, 10),
                ..Default::default()
            },
            accuracy_targets_pct: vec![15.0, 10.0, 5.0, 1.0],
        };
        let zones = ex4_zones();
        let result =
            run_temporal_campaign(&mut engine, account, &zones, &config).expect("campaign runs");

        let mut table = Table::new(
            "Figure 6: polls needed per day to reach 95% characterization accuracy",
            &[
                "az",
                "day",
                "hour",
                "polls to failure",
                "FIs",
                "p85",
                "p90",
                "p95",
                "p99",
            ],
        );
        for r in &result.records {
            let fmt = |o: Option<usize>| o.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
            table.row(&[
                r.az.to_string(),
                r.index.to_string(),
                r.at.hour_of_day().to_string(),
                r.polls.to_string(),
                r.fis.to_string(),
                fmt(r.polls_to_target[0]),
                fmt(r.polls_to_target[1]),
                fmt(r.polls_to_target[2]),
                fmt(r.polls_to_target[3]),
            ]);
        }
        outln!(ctx, "{}", table.render());

        let mut means = Table::new(
            "Mean polls to accuracy across all zone-days (paper: 1.41 / 2.62 / 5.65 / 10.5)",
            &["accuracy", "mean polls"],
        );
        for (label, target) in [("85%", 15.0), ("90%", 10.0), ("95%", 5.0), ("99%", 1.0)] {
            let mean = result
                .mean_polls_to(target)
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".into());
            means.row(&[label.to_string(), mean]);
        }
        outln!(ctx, "{}", means.render());
        ctx.finish()
    }
}
