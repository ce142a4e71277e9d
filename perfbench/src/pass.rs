//! What one pass of a workload measured.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::LayerTime;

/// One pass: a fixed amount of work, fully determined by the seed, run
/// after its own set-up. A run repeats passes until its time is used.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up before the timed phase, seconds.
    pub setup_s: f64,
    /// The timed phase, seconds: the sum of [`segments`](Self::segments).
    pub wall_s: f64,
    /// The timed phase cut into consecutive pieces of work (each
    /// operation and each stretch between two), seconds. Passes at one
    /// seed cut it identically.
    pub segments: Vec<f64>,
    /// Host time of each operation (poll, burst or experiment), ms, in
    /// an order that repeats across passes at one seed.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output or conservation check.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub problems: Vec<String>,
    /// The seed the pass ran at; passes at one seed must agree.
    pub seed: u64,
    /// Digest of the pass's simulated outcomes.
    pub digest: u64,
    /// Engine events processed in the timed phase.
    pub events: u64,
    /// Simulated invocations resolved in the timed phase.
    pub invocations: u64,
    /// Per-layer metrics; span-derived times are zero when untraced.
    pub layers: Vec<(String, f64)>,
}

impl Pass {
    /// Count one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }
}

/// Cuts the timed phase into segments, leaving out the time of the
/// benchmark's own checks.
pub struct Laps {
    last: Instant,
    excluded: Duration,
    segments: Vec<f64>,
}

impl Laps {
    /// Start the first segment now.
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            excluded: Duration::ZERO,
            segments: Vec::new(),
        }
    }

    /// End the current segment and start the next; returns the ended
    /// segment's time, seconds.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.last)
            .saturating_sub(self.excluded)
            .as_secs_f64();
        self.segments.push(s);
        self.last = now;
        self.excluded = Duration::ZERO;
        s
    }

    /// Run `f` without counting its time in the current segment.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.excluded += start.elapsed();
        out
    }

    /// End the last segment and store the timed phase in `pass`.
    pub fn finish(mut self, pass: &mut Pass) {
        self.lap();
        pass.wall_s = self.segments.iter().sum();
        pass.segments = self.segments;
    }
}

/// Lookup into [`crate::trace::layer_times`] output that treats a
/// missing name as no time spent.
pub fn layer(times: &BTreeMap<String, LayerTime>, name: &str) -> LayerTime {
    times.get(name).copied().unwrap_or_default()
}

/// The `engine.*` metrics from the timed phase's spans (`times`), except
/// `deploy_s`, which times the benchmark's own deploys in set-up.
/// `advance_events` are the events processed inside the benchmark's own
/// `advance_*` calls, so `ns_per_event` is engine maintenance time per
/// event with nothing else in the call.
pub fn engine_layers(
    pass: &mut Pass,
    times: &BTreeMap<String, LayerTime>,
    setup_times: &BTreeMap<String, LayerTime>,
    advance_events: u64,
) {
    let advance_s = layer(times, "engine.advance").self_s;
    pass.layer("engine.advance_s", advance_s);
    pass.layer("engine.advance_events", advance_events as f64);
    pass.layer("engine.events", pass.events as f64);
    let ns_per_event = if advance_events == 0 {
        0.0
    } else {
        advance_s * 1e9 / advance_events as f64
    };
    pass.layer("engine.ns_per_event", ns_per_event);
    pass.layer(
        "engine.deploy_s",
        layer(setup_times, "engine.deploy").self_s,
    );
}
