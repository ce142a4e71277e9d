//! Engine counters read from outside through `metrics_snapshot`.

use sky_core::sim::MetricsSnapshot;

/// The `faas.*` counters the benchmark reports, summed over zones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaasCounts {
    pub requests: u64,
    pub successes: u64,
    pub attempts: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub pooled_starts: u64,
    pub restored_starts: u64,
    pub branched_starts: u64,
    pub gated_retries: u64,
    pub keepalive_evictions: u64,
    pub hosts_added: u64,
    pub throttled: u64,
    pub no_capacity: u64,
}

fn requests_with_status(snap: &MetricsSnapshot, status: &str) -> u64 {
    snap.subsystem("faas")
        .filter(|e| e.name == "requests")
        .filter(|e| e.labels.iter().any(|(k, v)| k == "status" && v == status))
        .map(|e| match e.value {
            sky_core::sim::MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

impl FaasCounts {
    /// Read the counters from a snapshot.
    pub fn read(snap: &MetricsSnapshot) -> FaasCounts {
        let sum = |name| snap.counter_sum("faas", name);
        FaasCounts {
            requests: sum("requests"),
            successes: requests_with_status(snap, "success"),
            attempts: sum("attempts"),
            cold_starts: sum("cold_starts"),
            warm_starts: sum("warm_starts"),
            pooled_starts: sum("pooled_starts"),
            restored_starts: sum("restored_starts"),
            branched_starts: sum("branched_starts"),
            gated_retries: sum("gated_retries"),
            keepalive_evictions: sum("keepalive_evictions"),
            hosts_added: sum("hosts_added"),
            throttled: requests_with_status(snap, "throttled"),
            no_capacity: requests_with_status(snap, "no-capacity"),
        }
    }

    fn zip(&self, other: &FaasCounts, f: impl Fn(u64, u64) -> u64) -> FaasCounts {
        FaasCounts {
            requests: f(self.requests, other.requests),
            successes: f(self.successes, other.successes),
            attempts: f(self.attempts, other.attempts),
            cold_starts: f(self.cold_starts, other.cold_starts),
            warm_starts: f(self.warm_starts, other.warm_starts),
            pooled_starts: f(self.pooled_starts, other.pooled_starts),
            restored_starts: f(self.restored_starts, other.restored_starts),
            branched_starts: f(self.branched_starts, other.branched_starts),
            gated_retries: f(self.gated_retries, other.gated_retries),
            keepalive_evictions: f(self.keepalive_evictions, other.keepalive_evictions),
            hosts_added: f(self.hosts_added, other.hosts_added),
            throttled: f(self.throttled, other.throttled),
            no_capacity: f(self.no_capacity, other.no_capacity),
        }
    }

    /// Growth since `before`.
    pub fn since(&self, before: &FaasCounts) -> FaasCounts {
        self.zip(before, |now, was| now - was)
    }

    /// Sum of two sets of counts.
    pub fn plus(&self, other: &FaasCounts) -> FaasCounts {
        self.zip(other, |a, b| a + b)
    }

    /// The `faas.*` per-layer metrics.
    pub fn layer_metrics(&self) -> Vec<(String, f64)> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        [
            ("faas.attempts", self.attempts as f64),
            ("faas.cold_starts", self.cold_starts as f64),
            ("faas.warm_starts", self.warm_starts as f64),
            ("faas.pooled_starts", self.pooled_starts as f64),
            ("faas.restored_starts", self.restored_starts as f64),
            ("faas.branched_starts", self.branched_starts as f64),
            ("faas.gated_retries", self.gated_retries as f64),
            ("faas.keepalive_evictions", self.keepalive_evictions as f64),
            ("faas.hosts_added", self.hosts_added as f64),
            ("faas.throttled", self.throttled as f64),
            ("faas.no_capacity", self.no_capacity as f64),
            (
                "faas.warm_start_ratio",
                ratio(self.warm_starts, self.attempts),
            ),
            (
                "faas.useful_attempt_ratio",
                ratio(self.successes, self.attempts),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Per-operation conservation check: the requests the engine resolved
/// equal the invocations submitted, and at least that many attempts
/// were made. Returns a description of the first violation.
pub fn conserved(before: &FaasCounts, after: &FaasCounts, submitted: u64) -> Result<(), String> {
    let d = after.since(before);
    if d.requests != submitted {
        return Err(format!(
            "{} requests resolved for {submitted} submitted",
            d.requests
        ));
    }
    if d.attempts < submitted {
        return Err(format!("{} attempts for {submitted} submitted", d.attempts));
    }
    Ok(())
}
