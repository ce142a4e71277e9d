//! Workload profiling: learning per-CPU runtimes from SAAF reports.
//!
//! EX-5's first step runs each Table-1 function thousands of times and
//! groups observed billed durations by the CPU the FI reported —
//! producing Figure 9 (runtimes normalized to the 2.5 GHz baseline) and
//! the lookup table the smart router uses to rank CPUs per workload.
//!
//! Passive characterization (paper §4.6) is not folded here: callers
//! that want the zone's CPU mix from the same traffic enable the
//! engine's completion observation hook and drain it per zone.

use serde::{Deserialize, Serialize};
use sky_cloud::{AzId, CpuType};
use sky_faas::{
    BatchRequest, DeploymentId, FaasEngine, InvocationStatus, RequestBody, WorkloadSpec,
};
use sky_sim::{OnlineStats, SimDuration, SimRng};
use sky_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// Observed billed-runtime statistics per (workload, CPU) pair.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(from = "RuntimeTableSerde", into = "RuntimeTableSerde")]
pub struct RuntimeTable {
    stats: BTreeMap<(WorkloadKind, CpuType), OnlineStats>,
}

/// Flat on-disk form (tuple keys cannot be JSON map keys).
#[derive(Serialize, Deserialize, Clone)]
struct RuntimeTableSerde {
    entries: Vec<(WorkloadKind, CpuType, OnlineStats)>,
}

impl From<RuntimeTableSerde> for RuntimeTable {
    fn from(s: RuntimeTableSerde) -> Self {
        RuntimeTable {
            stats: s
                .entries
                .into_iter()
                .map(|(k, c, st)| ((k, c), st))
                .collect(),
        }
    }
}

impl From<RuntimeTable> for RuntimeTableSerde {
    fn from(t: RuntimeTable) -> Self {
        RuntimeTableSerde {
            entries: t.stats.into_iter().map(|((k, c), st)| (k, c, st)).collect(),
        }
    }
}

impl RuntimeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed billed duration.
    pub fn record(&mut self, kind: WorkloadKind, cpu: CpuType, billed: SimDuration) {
        self.stats
            .entry((kind, cpu))
            .or_default()
            .push(billed.as_millis_f64());
    }

    /// Mean observed runtime in ms, if any samples exist.
    pub fn expected_ms(&self, kind: WorkloadKind, cpu: CpuType) -> Option<f64> {
        self.stats
            .get(&(kind, cpu))
            .filter(|s| s.count() > 0)
            .map(|s| s.mean())
    }

    /// Number of samples behind a cell.
    pub fn samples(&self, kind: WorkloadKind, cpu: CpuType) -> u64 {
        self.stats.get(&(kind, cpu)).map(|s| s.count()).unwrap_or(0)
    }

    /// CPUs observed for a workload, ranked fastest first.
    pub fn ranking(&self, kind: WorkloadKind) -> Vec<(CpuType, f64)> {
        let mut v: Vec<(CpuType, f64)> = self
            .stats
            .iter()
            .filter(|((k, _), s)| *k == kind && s.count() > 0)
            .map(|((_, c), s)| (*c, s.mean()))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("means are finite"));
        v
    }

    /// The fastest observed CPU for a workload.
    pub fn fastest(&self, kind: WorkloadKind) -> Option<CpuType> {
        self.ranking(kind).first().map(|&(c, _)| c)
    }

    /// The `k` slowest observed CPUs for a workload.
    pub fn slowest(&self, kind: WorkloadKind, k: usize) -> Vec<CpuType> {
        let ranking = self.ranking(kind);
        ranking.iter().rev().take(k).map(|&(c, _)| c).collect()
    }

    /// Figure 9's rows: per-CPU runtime normalized to a baseline CPU
    /// (>1 means slower than baseline). Empty if the baseline is
    /// unobserved.
    pub fn normalized(&self, kind: WorkloadKind, baseline: CpuType) -> Vec<(CpuType, f64)> {
        let Some(base) = self.expected_ms(kind, baseline) else {
            return Vec::new();
        };
        self.ranking(kind)
            .into_iter()
            .map(|(c, ms)| (c, ms / base))
            .collect()
    }

    /// Expected runtime of `kind` under a CPU mix, using observed means
    /// (CPUs without observations are skipped, with their probability
    /// renormalized over observed types). `None` if nothing observed.
    pub fn expected_ms_under_mix(
        &self,
        kind: WorkloadKind,
        mix: &sky_cloud::CpuMix,
    ) -> Option<f64> {
        let mut total_w = 0.0;
        let mut acc = 0.0;
        for (cpu, share) in mix.iter() {
            if let Some(ms) = self.expected_ms(kind, cpu) {
                acc += share * ms;
                total_w += share;
            }
        }
        (total_w > 0.0).then(|| acc / total_w)
    }

    /// Merge another table into this one.
    pub fn merge(&mut self, other: &RuntimeTable) {
        for (&key, stats) in &other.stats {
            self.stats.entry(key).or_default().merge(stats);
        }
    }

    /// Whether the table has no samples.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// Result of profiling one workload in one zone.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRun {
    /// The zone profiled.
    pub az: AzId,
    /// The workload profiled.
    pub kind: WorkloadKind,
    /// Invocations completed.
    pub completed: usize,
    /// Invocations failed (throttled/capacity).
    pub errors: usize,
    /// Dollars spent.
    pub cost_usd: f64,
}

/// Drives profiling runs into a [`RuntimeTable`].
#[derive(Debug, Default)]
pub struct WorkloadProfiler {
    table: RuntimeTable,
}

impl WorkloadProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The learned runtime table.
    pub fn table(&self) -> &RuntimeTable {
        &self.table
    }

    /// Consume the profiler, returning the learned table.
    pub fn into_table(self) -> RuntimeTable {
        self.table
    }

    /// Run `n` invocations of `kind` against a deployment, in waves of
    /// `wave` concurrent requests, folding every report into the table.
    pub fn profile(
        &mut self,
        engine: &mut FaasEngine,
        deployment: DeploymentId,
        kind: WorkloadKind,
        n: usize,
        wave: usize,
        seed: u64,
    ) -> ProfileRun {
        let dep = engine
            .deployment(deployment)
            .expect("deployment exists")
            .clone();
        let mut rng = SimRng::seed_from(seed).derive("profiler");
        let mut completed = 0usize;
        let mut errors = 0usize;
        let mut cost = 0.0;
        let mut remaining = n;
        while remaining > 0 {
            let batch_n = remaining.min(wave.max(1));
            remaining -= batch_n;
            let requests: Vec<BatchRequest> = (0..batch_n)
                .map(|_| BatchRequest {
                    deployment,
                    offset: SimDuration::from_micros(rng.next_below(150_000)),
                    body: RequestBody::Workload {
                        spec: WorkloadSpec::new(kind),
                    },
                })
                .collect();
            let outcomes = engine.run_batch(requests);
            for o in &outcomes {
                // sky-lint: allow(D005, outcome-ordered f64 USD fold for the profile report; metered billing stays integer nano-USD in metrics)
                cost += o.total_cost_usd();
                match &o.status {
                    InvocationStatus::Success(report) => {
                        completed += 1;
                        if let Some(cpu) = report.cpu_type() {
                            self.table.record(kind, cpu, o.billed);
                        }
                    }
                    _ => errors += 1,
                }
            }
            // Let the wave's FIs idle so the next wave re-rolls placement
            // across the pool rather than reusing one clique of hosts.
            engine.advance_by(SimDuration::from_mins(10));
        }
        ProfileRun {
            az: dep.az,
            kind,
            completed,
            errors,
            cost_usd: cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Arch, Catalog, Provider};
    use sky_faas::FleetConfig;
    use sky_workloads::PerfModel;

    #[test]
    fn table_ranking_and_normalization() {
        let mut t = RuntimeTable::new();
        for _ in 0..10 {
            t.record(
                WorkloadKind::Zipper,
                CpuType::IntelXeon2_5,
                SimDuration::from_millis(1000),
            );
            t.record(
                WorkloadKind::Zipper,
                CpuType::IntelXeon3_0,
                SimDuration::from_millis(890),
            );
            t.record(
                WorkloadKind::Zipper,
                CpuType::AmdEpyc,
                SimDuration::from_millis(1450),
            );
            t.record(
                WorkloadKind::Zipper,
                CpuType::IntelXeon2_9,
                SimDuration::from_millis(1280),
            );
        }
        assert_eq!(t.fastest(WorkloadKind::Zipper), Some(CpuType::IntelXeon3_0));
        assert_eq!(
            t.slowest(WorkloadKind::Zipper, 2),
            vec![CpuType::AmdEpyc, CpuType::IntelXeon2_9]
        );
        let norm = t.normalized(WorkloadKind::Zipper, CpuType::IntelXeon2_5);
        let epyc = norm.iter().find(|&&(c, _)| c == CpuType::AmdEpyc).unwrap();
        assert!((epyc.1 - 1.45).abs() < 1e-9);
        assert_eq!(t.samples(WorkloadKind::Zipper, CpuType::AmdEpyc), 10);
        assert!(t
            .expected_ms(WorkloadKind::GraphMst, CpuType::AmdEpyc)
            .is_none());
    }

    #[test]
    fn expected_under_mix_renormalizes_unobserved() {
        let mut t = RuntimeTable::new();
        t.record(
            WorkloadKind::Sha1Hash,
            CpuType::IntelXeon2_5,
            SimDuration::from_millis(100),
        );
        let mix = sky_cloud::CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.5),
            (CpuType::IntelXeon3_0, 0.5), // unobserved
        ]);
        assert_eq!(
            t.expected_ms_under_mix(WorkloadKind::Sha1Hash, &mix),
            Some(100.0)
        );
        assert_eq!(t.expected_ms_under_mix(WorkloadKind::Zipper, &mix), None);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = RuntimeTable::new();
        let mut b = RuntimeTable::new();
        a.record(
            WorkloadKind::GraphBfs,
            CpuType::IntelXeon2_5,
            SimDuration::from_millis(100),
        );
        b.record(
            WorkloadKind::GraphBfs,
            CpuType::IntelXeon2_5,
            SimDuration::from_millis(300),
        );
        a.merge(&b);
        assert_eq!(a.samples(WorkloadKind::GraphBfs, CpuType::IntelXeon2_5), 2);
        assert_eq!(
            a.expected_ms(WorkloadKind::GraphBfs, CpuType::IntelXeon2_5),
            Some(200.0)
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = RuntimeTable::new();
        t.record(
            WorkloadKind::MathService,
            CpuType::AmdEpyc,
            SimDuration::from_millis(500),
        );
        let json = serde_json::to_string(&t).unwrap();
        let back: RuntimeTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn profiling_recovers_cpu_hierarchy() {
        let mut engine = FaasEngine::new(Catalog::paper_world(3), FleetConfig::new(3));
        let account = engine.create_account(Provider::Aws);
        let az: AzId = "us-west-1b".parse().unwrap();
        let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
        let mut profiler = WorkloadProfiler::new();
        let run = profiler.profile(
            &mut engine,
            dep,
            WorkloadKind::LogisticRegression,
            400,
            100,
            9,
        );
        assert_eq!(run.completed, 400);
        assert_eq!(run.errors, 0);
        assert!(run.cost_usd > 0.0);
        let table = profiler.table();
        // The diverse zone should expose several CPU types at 400 samples.
        let ranking = table.ranking(WorkloadKind::LogisticRegression);
        assert!(ranking.len() >= 3, "observed {} CPU types", ranking.len());
        // Observed normalized runtimes should match the model hierarchy:
        // 3.0GHz fastest, EPYC slowest.
        assert_eq!(
            table.fastest(WorkloadKind::LogisticRegression),
            Some(CpuType::IntelXeon3_0)
        );
        let norm = table.normalized(WorkloadKind::LogisticRegression, CpuType::IntelXeon2_5);
        for (cpu, factor) in norm {
            let model = PerfModel::cpu_factor(WorkloadKind::LogisticRegression, cpu);
            assert!(
                (factor - model).abs() < 0.12,
                "{cpu}: observed {factor:.3} vs model {model:.3}"
            );
        }
    }
}
