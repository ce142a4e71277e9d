//! `daily_routing`: EX-5 smart routing over the five EX-4 zones. Set-up
//! deploys three Table-1 kinds per zone (cached, checkpointed and
//! branched, each with a fixed pre-warm pool), profiles them into one
//! runtime table, probes every zone and arms a seeded fault storm over
//! the horizon. The timed phase fires bursts several times a virtual
//! day, alternating hybrid CPU-gated retry and regional policies, feeds
//! every completion through the observation hook into a streaming
//! characterizer, and re-probes a zone whenever it asks. A pass runs
//! [`WORLDS`] such scenarios one after another, each from a seed derived
//! from the workload seed. One operation is one burst.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::collections::BTreeMap;
use std::time::Instant;

use sky_bench::{ex4_zones, World};
use sky_core::cloud::{Arch, AzId, FaultPlan};
use sky_core::faas::{DeploymentId, ExecMode, ExecProfile, PoolPolicy, SaafReport};
use sky_core::sim::{SimDuration, SimRng, SimTime};
use sky_core::workloads::WorkloadKind;
use sky_core::{
    BurstReport, CampaignConfig, CharacterizationStore, Characterizer, PollConfig, RetryMode,
    RouterConfig, RoutingPolicy, SamplingCampaign, SmartRouter, StreamingCharacterizer,
    StreamingConfig, WorkloadProfiler,
};

use crate::counts::{conserved, FaasCounts};
use crate::digest::Digest;
use crate::pass::{engine_layers, layer, Laps, Pass};
use crate::trace::{layer_times, Recorder};

/// The Table-1 kinds deployed to every zone, with their execution modes.
const KINDS: [(WorkloadKind, ExecMode); 3] = [
    (WorkloadKind::Zipper, ExecMode::Cached),
    (WorkloadKind::GraphMst, ExecMode::Checkpointed),
    (WorkloadKind::Sha1Hash, ExecMode::Branched),
];
/// Independent scenarios per pass, each from its own seed derived from
/// the workload seed. Hybrid retry cost depends on a world's CPU mixes,
/// so one world alone would let the seed decide the burst-time tail.
const WORLDS: u64 = 6;
/// Virtual days per scenario.
const DAYS: u64 = 3;
/// Bursts per virtual day, 90 minutes apart.
const BURSTS_PER_DAY: u64 = 16;
/// Snapshots outlive the gap between two bursts of one kind, so the
/// checkpointed and branched deployments restore and branch.
const SNAPSHOT_TTL: SimDuration = SimDuration::from_hours(12);
/// Burst sizes are drawn uniformly from this range, which spreads burst
/// costs evenly instead of in a few clusters.
const BURST_MIN: u64 = 100;
const BURST_MAX: u64 = 300;
/// Profiling runs per kind.
const PROFILE_RUNS: usize = 120;
/// Polls per re-probe campaign.
const PROBE_POLLS: u64 = 3;
/// Faults in the storm per virtual day.
const FAULTS_PER_DAY: usize = 2;

/// Probe a zone with a small campaign (hook off, as production traffic
/// must not see probes), record the result with the characterizer and
/// the router, and return its new FIs and probe requests.
fn probe(
    world: &mut World,
    az: &AzId,
    rec: &mut Recorder,
    chr: &mut StreamingCharacterizer,
    router: &mut SmartRouter,
) -> Result<(u64, u64), String> {
    let engine = &mut world.engine;
    engine.set_observation_hook(false);
    let campaign = rec.time("sampling.campaign_new", || {
        SamplingCampaign::new(
            engine,
            world.aws,
            az,
            CampaignConfig {
                deployments: 4,
                poll: PollConfig {
                    requests: 600,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    });
    let mut campaign = campaign.map_err(|e| format!("{az}: probe did not deploy: {e}"))?;
    for _ in 0..PROBE_POLLS {
        rec.time("sampling.poll", || campaign.poll_once(engine));
    }
    engine.set_observation_hook(true);
    let at = engine.now();
    let chz = campaign.characterization();
    chr.record_probe(az, at, &chz.to_mix());
    router.store_mut().record(
        az,
        at,
        chz.to_mix(),
        chz.unique_fis(),
        campaign.total_cost_usd(),
    );
    let polls = campaign.polls();
    Ok((
        polls.iter().map(|p| p.new_fis).sum(),
        polls.iter().map(|p| p.requests as u64).sum(),
    ))
}

fn fold_burst(d: &mut Digest, r: &BurstReport) {
    d.str(&r.az.to_string());
    d.u64(r.n as u64);
    d.u64(r.completed as u64);
    d.u64(r.errors as u64);
    d.f64(r.workload_cost_usd);
    d.f64(r.retry_cost_usd);
    d.f64(r.mean_billed_ms);
    d.u64(r.retried as u64);
    d.u64(r.attempts);
    for (cpu, n) in &r.cpu_counts {
        d.str(&cpu.to_string());
        d.u64(*n);
    }
    d.u64(r.finished.as_micros());
    d.u64(r.rtt.map_or(u64::MAX, |t| t.as_micros()));
}

fn fold_report(d: &mut Digest, r: &SaafReport) {
    d.str(&r.az.to_string());
    d.str(&r.cpu_model);
    d.str(&r.instance_uuid);
    d.u64(u64::from(r.new_container));
    d.u64(r.billed.as_micros());
    d.u64(u64::from(r.memory_mb));
    d.u64(r.finished_at.as_micros());
}

/// Checks on one burst, made from outside.
fn check_burst(
    r: &BurstReport,
    n: usize,
    before: &FaasCounts,
    after: &FaasCounts,
) -> Result<(), String> {
    if r.n != n || r.completed + r.errors != n {
        return Err(format!(
            "burst of {n} reported n={} completed={} errors={}",
            r.n, r.completed, r.errors
        ));
    }
    if r.attempts < n as u64 || r.retried > n {
        return Err(format!(
            "burst of {n} reported {} attempts, {} retried",
            r.attempts, r.retried
        ));
    }
    conserved(before, after, n as u64)
}

/// One EX-4 scenario, set up and ready for its timed days.
struct Scenario {
    world: World,
    zones: Vec<AzId>,
    deployments: BTreeMap<(usize, AzId), DeploymentId>,
    router: SmartRouter,
    chr: StreamingCharacterizer,
    sizes: SimRng,
}

/// What the timed days of every scenario in a pass added up to.
#[derive(Default)]
struct Tally {
    advance_events: u64,
    bursts: u64,
    requests: u64,
    retried: u64,
    reports: u64,
    reprobes: u64,
    probe_fis: u64,
    probe_requests: u64,
}

/// Set-up: world, deployments, profiling, probes and the fault storm.
fn setup(seed: u64, rec: &mut Recorder, out: &mut Pass) -> Scenario {
    let zones = ex4_zones();
    let mut world = World::new(seed);
    let mut deployments: BTreeMap<(usize, AzId), DeploymentId> = BTreeMap::new();
    for (k, &(_, mode)) in KINDS.iter().enumerate() {
        for az in &zones {
            let engine = &mut world.engine;
            let deployed = rec.time("engine.deploy", || {
                engine.deploy(world.aws, az, 2048, Arch::X86_64)
            });
            let dep = deployed.expect("EX-4 zones accept 2048 MB x86 deployments");
            engine.set_exec_profile(
                dep,
                ExecProfile::for_mode(mode)
                    .with_pool(PoolPolicy::Fixed { target: 2, cap: 4 })
                    .with_snapshot_ttl(SNAPSHOT_TTL),
            );
            deployments.insert((k, az.clone()), dep);
        }
    }
    let mut profiler = WorkloadProfiler::new();
    for (k, &(kind, _)) in KINDS.iter().enumerate() {
        let dep = deployments[&(k, zones[k % zones.len()].clone())];
        profiler.profile(
            &mut world.engine,
            dep,
            kind,
            PROFILE_RUNS,
            60,
            seed ^ kind as u64,
        );
    }
    world.engine.advance_by(SimDuration::from_mins(30));
    let mut store = CharacterizationStore::new();
    store.max_age = SimDuration::from_days(365);
    let mut router = SmartRouter::new(store, profiler.into_table(), RouterConfig::default());
    let mut chr = StreamingCharacterizer::new(StreamingConfig {
        probe_budget: zones.len() as u32 + 12,
        ..Default::default()
    });
    for az in &zones {
        if let Err(e) = probe(&mut world, az, rec, &mut chr, &mut router) {
            out.fail(e);
        }
    }
    let start = world.engine.now();
    let storm = FaultPlan::random_storm(
        &mut SimRng::seed_from(seed).derive("perfbench-storm"),
        &zones,
        start + SimDuration::from_mins(1),
        SimDuration::from_days(DAYS),
        FAULTS_PER_DAY * DAYS as usize,
    );
    world.engine.set_fault_plan(&storm);
    world.engine.set_observation_hook(true);
    let sizes = SimRng::seed_from(seed).derive("perfbench-bursts");
    Scenario {
        world,
        zones,
        deployments,
        router,
        chr,
        sizes,
    }
}

/// The timed days of one scenario.
fn run_days(
    sc: &mut Scenario,
    rec: &mut Recorder,
    laps: &mut Laps,
    out: &mut Pass,
    digest: &mut Digest,
    tally: &mut Tally,
) {
    let Scenario {
        world,
        zones,
        deployments,
        router,
        chr,
        sizes,
    } = sc;
    for day in 1..=DAYS {
        for b in 0..BURSTS_PER_DAY {
            let at = SimTime::start_of_day(day)
                + SimDuration::from_mins(45)
                + SimDuration::from_mins(90 * b);
            let engine = &mut world.engine;
            let before = engine.events_processed();
            rec.time("engine.advance", || engine.advance_to(at.max(engine.now())));
            tally.advance_events += engine.events_processed() - before;

            for az in zones.iter() {
                if chr.wants_probe(az, world.engine.now()) {
                    let entered = rec.enter("characterizer.reprobe");
                    match probe(world, az, rec, chr, router) {
                        Ok((fis, requests)) => {
                            digest.str(&az.to_string());
                            digest.u64(fis);
                            tally.probe_fis += fis;
                            tally.probe_requests += requests;
                        }
                        Err(e) => out.fail(e),
                    }
                    rec.exit(entered);
                    tally.reprobes += 1;
                }
            }

            let k = ((day * BURSTS_PER_DAY + b) % KINDS.len() as u64) as usize;
            let kind = KINDS[k].0;
            let policy = if b % 2 == 0 {
                RoutingPolicy::Hybrid {
                    candidates: zones.clone(),
                    mode: RetryMode::RetrySlow,
                }
            } else {
                RoutingPolicy::Regional {
                    candidates: zones.clone(),
                }
            };
            let n = sizes.range_inclusive(BURST_MIN, BURST_MAX) as usize;
            let engine = &mut world.engine;
            let now = engine.now();
            let decided = rec.enabled().then(|| {
                rec.time("router.decide", || {
                    router.choose_az_bounded(kind, zones, now, engine.catalog())
                })
            });

            let before = laps.exclude(|| FaasCounts::read(&engine.metrics_snapshot()));
            rec.set_op(out.op_ms.len() as u64);
            laps.lap();
            let report = rec.time("router.burst", || {
                router.run_burst(engine, kind, n, &policy, |az| {
                    deployments.get(&(k, az.clone())).copied()
                })
            });
            out.op_ms.push(laps.lap() * 1e3);
            laps.exclude(|| {
                let after = FaasCounts::read(&engine.metrics_snapshot());
                if let Err(e) = check_burst(&report, n, &before, &after) {
                    out.fail(format!("day {day} burst {b}: {e}"));
                }
                if let Some(az) = decided.filter(|az| *az != report.az) {
                    out.fail(format!(
                        "day {day} burst {b}: decided {az} but routed to {}",
                        report.az
                    ));
                }
                fold_burst(digest, &report);
            });
            tally.bursts += 1;
            tally.requests += n as u64;
            tally.retried += report.retried as u64;

            for az in zones.iter() {
                let drained = rec.time("hook.take", || engine.take_observations(az));
                rec.time("characterizer.observe", || {
                    for r in &drained {
                        chr.observe(az, r);
                    }
                });
                laps.exclude(|| {
                    for r in &drained {
                        fold_report(digest, r);
                    }
                });
                tally.reports += drained.len() as u64;
            }
        }
    }
    digest.u64(u64::from(chr.probes_used()));
}

/// Run one pass: [`WORLDS`] scenarios from seeds derived from `seed`.
pub fn pass(seed: u64, rec: &mut Recorder) -> Pass {
    let mut out = Pass {
        seed,
        ..Pass::default()
    };
    let setup_start = Instant::now();
    let phase = rec.enter("setup");
    let mut scenarios: Vec<Scenario> = (0..WORLDS)
        .map(|w| setup(seed.wrapping_mul(WORLDS).wrapping_add(w), rec, &mut out))
        .collect();
    rec.exit(phase);
    out.setup_s = setup_start.elapsed().as_secs_f64();

    let snaps0: Vec<_> = scenarios
        .iter()
        .map(|sc| sc.world.engine.metrics_snapshot())
        .collect();
    let events0: u64 = scenarios
        .iter()
        .map(|sc| sc.world.engine.events_processed())
        .sum();
    let mut digest = Digest::default();
    let mut tally = Tally::default();
    // The benchmark's own checks and digest folds run inside the timed
    // phase but are not counted in it.
    let mut laps = Laps::start();
    let phase = rec.enter("timed");
    for sc in &mut scenarios {
        run_days(sc, rec, &mut laps, &mut out, &mut digest, &mut tally);
    }
    rec.exit(phase);
    laps.finish(&mut out);
    out.attempted = out.op_ms.len() as u64;

    let mut counts = FaasCounts::default();
    for (sc, snap0) in scenarios.iter().zip(&snaps0) {
        let snap1 = sc.world.engine.metrics_snapshot();
        digest.counter_deltas(snap0, &snap1, "faas");
        counts = counts.plus(&FaasCounts::read(&snap1).since(&FaasCounts::read(snap0)));
        out.events += sc.world.engine.events_processed();
    }
    out.events -= events0;
    out.digest = digest.finish();
    out.invocations = counts.requests;

    let times = layer_times(rec.spans(), "timed");
    let setup_times = layer_times(rec.spans(), "setup");
    engine_layers(&mut out, &times, &setup_times, tally.advance_events);
    out.layers.extend(counts.layer_metrics());
    out.layer("sampling.poll_s", layer(&times, "sampling.poll").self_s);
    out.layer("sampling.polls", (tally.reprobes * PROBE_POLLS) as f64);
    out.layer(
        "sampling.campaign_new_s",
        layer(&times, "sampling.campaign_new").self_s,
    );
    out.layer(
        "sampling.new_fi_ratio",
        tally.probe_fis as f64 / tally.probe_requests.max(1) as f64,
    );
    out.layer("router.burst_s", layer(&times, "router.burst").self_s);
    out.layer("router.bursts", tally.bursts as f64);
    out.layer(
        "router.retried_fraction",
        tally.retried as f64 / tally.requests.max(1) as f64,
    );
    let decide = layer(&times, "router.decide");
    out.layer(
        "router.decide_us",
        decide.total_s * 1e6 / decide.count.max(1) as f64,
    );
    out.layer("hook.take_s", layer(&times, "hook.take").self_s);
    out.layer("hook.reports", tally.reports as f64);
    out.layer(
        "characterizer.observe_ns_per_report",
        layer(&times, "characterizer.observe").self_s * 1e9 / tally.reports.max(1) as f64,
    );
    out.layer("characterizer.reprobes", tally.reprobes as f64);
    out.layer(
        "characterizer.reprobe_s",
        layer(&times, "characterizer.reprobe").total_s,
    );
    out
}
