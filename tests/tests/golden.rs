//! Golden-trace regression harness: renders each experiment's core path
//! at quick scale and compares the output byte-for-byte against the
//! checked-in snapshots under `tests/golden/`.
//!
//! Every snapshot is a pure function of the pinned `WORLD_SEED` — no
//! wall clock, no process entropy — so the harness passes identically
//! across machines and process invocations. When an intentional change
//! shifts an experiment's numbers, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sky-integration-tests --test golden
//! ```
//!
//! and commit the updated `tests/golden/*.txt` alongside the change so
//! the diff is reviewable.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use sky_bench::sweep::Jobs;
use sky_bench::{cumulative_savings, Scale, World, WORLD_SEED};
use sky_core::sim::series::Table;
use sky_core::{CampaignConfig, PollConfig, SamplingCampaign};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// Readable unified-ish diff: line numbers plus `-expected` / `+actual`
/// markers, capped so a wildly divergent table stays scannable.
fn render_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        if shown >= 40 {
            let _ = writeln!(out, "  ... (further mismatches elided)");
            break;
        }
        if let Some(e) = e {
            let _ = writeln!(out, "  {:>4} - {e}", i + 1);
        }
        if let Some(a) = a {
            let _ = writeln!(out, "  {:>4} + {a}", i + 1);
        }
        shown += 1;
    }
    out
}

/// Compare `actual` against the named `.txt` snapshot, or rewrite the
/// snapshot when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    check_golden_file(&format!("{name}.txt"), actual);
}

/// Like [`check_golden`] but with an explicit file name, for snapshots
/// that aren't plain text (e.g. `.json` exports).
fn check_golden_file(file: &str, actual: &str) {
    let name = file;
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        eprintln!("golden: wrote {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {}; regenerate with \
             `UPDATE_GOLDEN=1 cargo test -p sky-integration-tests --test golden`",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "golden mismatch for `{name}` ({}):\n{}\
         if the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p sky-integration-tests --test golden`",
        path.display(),
        render_diff(&expected, actual),
    );
}

#[test]
fn golden_registry_experiments_quick() {
    // The registry-driven gate behind the experiment multiplexer: every
    // deterministic registered experiment must reproduce its quick-scale
    // snapshot byte-for-byte. Ports or refactors of an experiment that
    // shift even one byte of output fail here, not in review.
    for exp in sky_bench::registry::all() {
        if !exp.deterministic() {
            continue;
        }
        let output =
            sky_bench::registry::run_experiment(*exp, Scale::Quick, Jobs::serial(), WORLD_SEED)
                .unwrap_or_else(|e| panic!("{} failed at quick scale: {e}", exp.name()));
        check_golden_file(&format!("exp/{}_quick.txt", exp.name()), &output.text);
    }
}

#[test]
fn golden_daily_routing() {
    let (outcomes, _) = sky_bench::report::daily_routing(Scale::Quick);
    let mut out = Table::new(
        "golden: two-day regional routing (quick scale)",
        &[
            "day",
            "az",
            "base $/req",
            "opt $/req",
            "savings %",
            "sampling $",
        ],
    );
    for o in &outcomes {
        out.row(&[
            o.day.to_string(),
            o.az.to_string(),
            format!(
                "{:.6}",
                o.baseline.total_cost_usd() / o.baseline.completed.max(1) as f64
            ),
            format!(
                "{:.6}",
                o.optimized.total_cost_usd() / o.optimized.completed.max(1) as f64
            ),
            format!("{:.2}", o.savings() * 100.0),
            format!("{:.6}", o.sampling_cost_usd),
        ]);
    }
    let mut rendered = out.render();
    let _ = writeln!(
        rendered,
        "cumulative savings: {:.2}%",
        cumulative_savings(&outcomes) * 100.0
    );
    check_golden("daily_routing_quick", &rendered);
}

#[test]
fn golden_metrics_report() {
    // One snapshot drives all three expositions, so the Prometheus, JSON
    // and table goldens can never drift apart.
    let snapshot = sky_bench::report::report_snapshot(Scale::Quick, Jobs::serial());
    check_golden("metrics_report_quick", &snapshot.to_prometheus_text());
    check_golden_file("metrics_report_quick.json", &snapshot.to_json());
    check_golden(
        "metrics_report_table_quick",
        &sky_bench::report::render_report(&snapshot),
    );
}

#[test]
fn golden_sampling_campaign() {
    let mut world = World::new(WORLD_SEED);
    let az = World::az("us-east-2c");
    let mut campaign = SamplingCampaign::new(
        &mut world.engine,
        world.aws,
        &az,
        CampaignConfig {
            deployments: 4,
            poll: PollConfig {
                requests: 200,
                ..Default::default()
            },
            max_polls: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let polls = campaign.run_polls(&mut world.engine, 4);
    let mut out = Table::new(
        format!("golden: sampling campaign in {az} (quick scale)"),
        &["poll", "unique FIs", "failures", "mix after"],
    );
    for (i, p) in polls.iter().enumerate() {
        out.row(&[
            (i + 1).to_string(),
            p.cumulative_fis.to_string(),
            p.failures.to_string(),
            format!("{:?}", p.mix_after),
        ]);
    }
    let mut rendered = out.render();
    let _ = writeln!(
        rendered,
        "campaign cost: ${:.6}, overall failure rate: {:.4}",
        campaign.total_cost_usd(),
        campaign.overall_failure_rate()
    );
    check_golden("sampling_campaign_quick", &rendered);
}
