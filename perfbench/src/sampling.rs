//! `sampling_saturation`: EX-3 infrastructure sampling. One world; for
//! each EX-3 zone a default 100-deployment campaign polls until a poll
//! fails at least half its probes or the poll cap is hit, with an hour
//! of virtual time between zones. One operation is one poll.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::time::Instant;

use sky_bench::{ex3_zones, World};
use sky_core::sim::SimDuration;
use sky_core::{CampaignConfig, PollStats, SamplingCampaign};

use crate::counts::{conserved, FaasCounts};
use crate::digest::Digest;
use crate::pass::{engine_layers, layer, Laps, Pass};
use crate::trace::{layer_times, Recorder};

/// Fold one poll's simulated outcome into the digest.
fn fold_poll(d: &mut Digest, stats: &PollStats) {
    d.u64(stats.index as u64);
    d.u64(stats.requests as u64);
    d.u64(stats.failures as u64);
    d.u64(stats.unique_fis as u64);
    d.u64(stats.new_fis);
    d.u64(stats.cumulative_fis);
    d.f64(stats.cost_usd);
    for (cpu, share) in stats.mix_after.iter() {
        d.str(&cpu.to_string());
        d.f64(share);
    }
    d.u64(stats.started.as_micros());
    d.u64(stats.finished.as_micros());
}

/// Checks on one poll, made from outside.
fn check_poll(
    stats: &PollStats,
    requested: usize,
    before: &FaasCounts,
    after: &FaasCounts,
) -> Result<(), String> {
    if stats.requests != requested {
        return Err(format!(
            "poll issued {} probes, configured {requested}",
            stats.requests
        ));
    }
    if stats.new_fis > stats.requests as u64 {
        return Err(format!(
            "poll saw {} new FIs from {} probes",
            stats.new_fis, stats.requests
        ));
    }
    if stats.unique_fis + stats.failures > stats.requests {
        return Err(format!(
            "poll saw {} FIs and {} failures from {} probes",
            stats.unique_fis, stats.failures, stats.requests
        ));
    }
    conserved(before, after, stats.requests as u64)
}

/// Run one pass.
pub fn pass(seed: u64, rec: &mut Recorder) -> Pass {
    let mut out = Pass {
        seed,
        ..Pass::default()
    };
    let setup = Instant::now();
    let mut world = rec.time("setup", || World::new(seed));
    out.setup_s = setup.elapsed().as_secs_f64();

    let engine = &mut world.engine;
    let config = CampaignConfig::default();
    let mut digest = Digest::default();
    let snap0 = engine.metrics_snapshot();
    let counts0 = FaasCounts::read(&snap0);
    let events0 = engine.events_processed();
    let (mut polls, mut probes, mut new_fis, mut advance_events) = (0u64, 0u64, 0u64, 0u64);

    // The benchmark's own checks run inside the timed phase but are not
    // counted in it.
    let mut laps = Laps::start();
    let phase = rec.enter("timed");
    for (z, az) in ex3_zones().iter().enumerate() {
        if z > 0 {
            let before = engine.events_processed();
            rec.time("engine.advance", || {
                engine.advance_by(SimDuration::from_hours(1))
            });
            advance_events += engine.events_processed() - before;
        }
        let campaign = rec.time("sampling.campaign_new", || {
            SamplingCampaign::new(engine, world.aws, az, config.clone())
        });
        let mut campaign = match campaign {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("{az}: campaign did not deploy: {e}"));
                continue;
            }
        };
        digest.str(&az.to_string());
        loop {
            let before = laps.exclude(|| FaasCounts::read(&engine.metrics_snapshot()));
            rec.set_op(polls);
            laps.lap();
            let stats = rec.time("sampling.poll", || campaign.poll_once(engine));
            out.op_ms.push(laps.lap() * 1e3);
            laps.exclude(|| {
                let after = FaasCounts::read(&engine.metrics_snapshot());
                if let Err(e) = check_poll(&stats, config.poll.requests, &before, &after) {
                    out.fail(format!("{az} poll {}: {e}", stats.index));
                }
                fold_poll(&mut digest, &stats);
            });
            polls += 1;
            probes += stats.requests as u64;
            new_fis += stats.new_fis;
            if stats.failure_rate() >= 0.5 || campaign.polls().len() >= config.max_polls {
                break;
            }
        }
    }
    rec.exit(phase);
    laps.finish(&mut out);
    out.attempted = out.op_ms.len() as u64;

    let snap1 = engine.metrics_snapshot();
    digest.counter_deltas(&snap0, &snap1, "faas");
    out.digest = digest.finish();
    out.events = engine.events_processed() - events0;
    let counts = FaasCounts::read(&snap1).since(&counts0);
    out.invocations = counts.requests;

    let times = layer_times(rec.spans(), "timed");
    let setup_times = layer_times(rec.spans(), "setup");
    engine_layers(&mut out, &times, &setup_times, advance_events);
    out.layers.extend(counts.layer_metrics());
    out.layer("sampling.poll_s", layer(&times, "sampling.poll").self_s);
    out.layer("sampling.polls", polls as f64);
    out.layer(
        "sampling.campaign_new_s",
        layer(&times, "sampling.campaign_new").self_s,
    );
    out.layer(
        "sampling.new_fi_ratio",
        new_fis as f64 / probes.max(1) as f64,
    );
    out
}
