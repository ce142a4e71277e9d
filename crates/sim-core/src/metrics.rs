//! Deterministic, mergeable observability: a typed registry of counters,
//! gauges and log-bucketed latency histograms, and Prometheus-text /
//! JSON exporters.
//!
//! The paper's method is *measurement*: per-AZ CPU mixes, tail latencies
//! and cost deltas only mean something if the numbers reproduce. This
//! module is therefore built around one contract:
//!
//! > A [`MetricsSnapshot`] is a pure function of the simulation inputs,
//! > and [`MetricsSnapshot::merge`] is associative and — after the
//! > order-normalization every constructor performs — commutative, so
//! > the PR-1 parallel sweep produces byte-identical snapshots at any
//! > `--jobs` setting.
//!
//! Three design rules make that hold:
//!
//! 1. **Integer arithmetic only on merge paths.** Counters are `u64`
//!    adds; histograms bucket `u64` microseconds with `u64` counts and
//!    sums; money is accumulated in integer nano-dollars (each f64 cost
//!    is rounded once, at record time, so the sum is order-free).
//! 2. **Gauges are a max-semilattice.** A gauge keeps the value with the
//!    greatest `(sim-time, value-bits)` pair, so merging two shards
//!    yields the same "latest wins" answer in either order.
//! 3. **Snapshots are sorted.** Entries are ordered by
//!    `(subsystem, name, labels)` strings; rendering is a fold over that
//!    order, so equal snapshots render to equal bytes.
//!
//! The live [`MetricsRegistry`] is optimized for the engine hot path:
//! callers intern a metric once into a [`MetricHandle`] (a dense index)
//! and every subsequent update is a vector index plus an integer add —
//! no hashing, no allocation.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
// sky-lint: allow(D001, HashMap here backs lookup-only interning indexes; exposition paths sort - see the per-field pragmas)
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values whose bit length is `b`, i.e. `[2^(b-1), 2^b - 1]`.
pub const LOG_BUCKETS: usize = 65;

/// Log₂-bucketed histogram over `u64` values (typically microseconds).
///
/// Recording and merging are pure integer operations, so a histogram
/// built from any interleaving or sharding of the same samples is
/// identical: merge is associative, commutative, and conserves the
/// total sample count (each sample lands in exactly one bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; LOG_BUCKETS],
        }
    }
}

/// The bucket index for a value: 0 for 0, else the bit length.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive upper edge of a bucket (`0` for bucket 0, else
/// `2^b - 1`).
pub fn bucket_upper_edge(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another histogram in: element-wise integer adds.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Nearest-rank quantile (`0 < q ≤ 1`), reported as the upper edge
    /// of the bucket containing that rank — a deterministic integer, at
    /// the cost of up-to-2× bucket resolution. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_edge(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty `(bucket index, count)` pairs in ascending bucket
    /// order — the serialized form used by [`HistogramSnapshot`].
    pub fn sparse_buckets(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b as u8, n))
            .collect()
    }
}

/// Serialized histogram state: sparse `(bucket, count)` pairs in bucket
/// order plus the scalar summaries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Rehydrate into a dense histogram (e.g. for quantile queries).
    pub fn to_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        h.count = self.count;
        h.sum = self.sum;
        h.min = self.min;
        h.max = self.max;
        for &(b, n) in &self.buckets {
            h.buckets[b as usize] = n;
        }
        h
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        let mut dense = self.to_histogram();
        dense.merge(&other.to_histogram());
        *self = HistogramSnapshot {
            count: dense.count,
            sum: dense.sum,
            min: dense.min,
            max: dense.max,
            buckets: dense.sparse_buckets(),
        };
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotone `u64` count.
    Counter(u64),
    /// Latest-wins observation: the pair with the greatest
    /// `(at_us, bits)` survives a merge.
    Gauge {
        /// Virtual time of the observation, microseconds.
        at_us: u64,
        /// Observed value.
        value: f64,
    },
    /// Log-bucketed distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn kind_label(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
            (
                MetricValue::Gauge { at_us, value },
                MetricValue::Gauge {
                    at_us: at_b,
                    value: value_b,
                },
            ) => {
                if (*at_b, value_b.to_bits()) > (*at_us, value.to_bits()) {
                    *at_us = *at_b;
                    *value = *value_b;
                }
            }
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (a, b) => panic!(
                "metric kind mismatch on merge: {} vs {}",
                a.kind_label(),
                b.kind_label()
            ),
        }
    }
}

/// One exported metric: identity plus value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Producing subsystem, e.g. `"faas"` or `"resilience"`.
    pub subsystem: String,
    /// Metric name within the subsystem, e.g. `"cold_starts"`.
    pub name: String,
    /// Label pairs, sorted by label name (then value).
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

type EntryKey = (String, String, Vec<(String, String)>);

impl MetricEntry {
    fn key(&self) -> EntryKey {
        (
            self.subsystem.clone(),
            self.name.clone(),
            self.labels.clone(),
        )
    }
}

/// A point-in-time, order-normalized export of a registry (or a merge
/// of many). Entries are always sorted by `(subsystem, name, labels)`,
/// which makes equality, merging and rendering deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sorted metric entries.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sort entries into canonical order. Constructors and `merge`
    /// already leave snapshots normalized; this is for snapshots
    /// deserialized from external data.
    pub fn normalize(&mut self) {
        self.entries.sort_by_key(|e| e.key());
    }

    /// Fold `other` into `self`: same-key entries are combined
    /// (counters add, gauges keep the latest, histograms add
    /// bucket-wise), unmatched entries are inserted. Associative, and
    /// commutative on the normalized form.
    ///
    /// # Panics
    ///
    /// Panics if the same key carries different metric kinds.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut map: BTreeMap<EntryKey, MetricValue> = BTreeMap::new();
        for e in self.entries.drain(..) {
            map.insert(e.key(), e.value);
        }
        for e in &other.entries {
            match map.entry(e.key()) {
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().merge(&e.value)
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(e.value.clone());
                }
            }
        }
        self.entries = map
            .into_iter()
            .map(|((subsystem, name, labels), value)| MetricEntry {
                subsystem,
                name,
                labels,
                value,
            })
            .collect();
    }

    /// A copy with `(key, value)` appended to every entry's labels —
    /// how a sweep cell tags its shard (e.g. `policy="resilient"`)
    /// before the cross-cell merge.
    pub fn with_label(&self, key: &str, value: &str) -> MetricsSnapshot {
        let mut out = self.clone();
        for e in &mut out.entries {
            e.labels.push((key.to_string(), value.to_string()));
            e.labels.sort();
        }
        out.normalize();
        out
    }

    /// Entries of one subsystem.
    pub fn subsystem<'a>(&'a self, subsystem: &'a str) -> impl Iterator<Item = &'a MetricEntry> {
        self.entries
            .iter()
            .filter(move |e| e.subsystem == subsystem)
    }

    /// The counter total for an exact `(subsystem, name, labels)` key,
    /// or `None` when absent or not a counter. `labels` must be sorted.
    pub fn counter(&self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| {
                e.subsystem == subsystem
                    && e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .and_then(|e| match &e.value {
                MetricValue::Counter(n) => Some(*n),
                _ => None,
            })
    }

    /// Sum of every counter named `(subsystem, name)` across all label
    /// sets — the "any labels" rollup the report tables use.
    pub fn counter_sum(&self, subsystem: &str, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.subsystem == subsystem && e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(n) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names are `sky_<subsystem>_<name>` (sanitized), counters
    /// gain the conventional `_total` suffix, and histograms expand to
    /// cumulative `_bucket{le=…}` series plus `_sum`/`_count`. Output
    /// is a pure fold over the sorted entries: equal snapshots render
    /// to equal bytes.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_type_line: Option<String> = None;
        for e in &self.entries {
            let (full, kind) = match &e.value {
                MetricValue::Counter(_) => (
                    format!("sky_{}_{}_total", sanitize(&e.subsystem), sanitize(&e.name)),
                    "counter",
                ),
                MetricValue::Gauge { .. } => (
                    format!("sky_{}_{}", sanitize(&e.subsystem), sanitize(&e.name)),
                    "gauge",
                ),
                MetricValue::Histogram(_) => (
                    format!("sky_{}_{}", sanitize(&e.subsystem), sanitize(&e.name)),
                    "histogram",
                ),
            };
            let type_line = format!("# TYPE {full} {kind}");
            if last_type_line.as_deref() != Some(&type_line) {
                let _ = writeln!(out, "{type_line}");
                last_type_line = Some(type_line);
            }
            match &e.value {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "{full}{} {n}", render_labels(&e.labels, None));
                }
                MetricValue::Gauge { value, .. } => {
                    let _ = writeln!(out, "{full}{} {value:?}", render_labels(&e.labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for &(b, n) in &h.buckets {
                        cumulative += n;
                        let le = bucket_upper_edge(b as usize).to_string();
                        let _ = writeln!(
                            out,
                            "{full}_bucket{} {cumulative}",
                            render_labels(&e.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{full}_bucket{} {}",
                        render_labels(&e.labels, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{full}_sum{} {}",
                        render_labels(&e.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{full}_count{} {}",
                        render_labels(&e.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }

    /// Render the snapshot as pretty-printed JSON (deterministic: the
    /// entry order is canonical and floats use shortest-round-trip
    /// formatting).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serializes");
        s.push('\n');
        s
    }
}

/// Prometheus-legal metric name characters.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize(k), escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.chars()
        .flat_map(|c| match c {
            '\\' => vec!['\\', '\\'],
            '"' => vec!['\\', '"'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// A registered metric: a dense index into the registry. Copyable and
/// cheap — the engine resolves handles once per platform, then every
/// hot-path update is `metrics[handle] += n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricHandle(u32);

#[derive(Debug, Clone)]
enum MetricData {
    Counter(u64),
    Gauge { at: SimTime, value: f64 },
    Histogram(LogHistogram),
}

impl MetricData {
    fn kind_label(&self) -> &'static str {
        match self {
            MetricData::Counter(_) => "counter",
            MetricData::Gauge { .. } => "gauge",
            MetricData::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    subsystem: u32,
    name: u32,
    labels: Vec<(u32, u32)>,
}

/// A metric identity was re-registered as a different kind — e.g. a
/// counter looked up as a histogram. Returned by the `try_*`
/// registration methods; the panicking wrappers (`counter`, `gauge`,
/// `histogram`) turn it into a panic at the offending call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricKindMismatch {
    /// Subsystem segment of the colliding identity.
    pub subsystem: String,
    /// Name segment of the colliding identity.
    pub name: String,
    /// Kind the identity was first registered with.
    pub existing: &'static str,
    /// Kind the rejected registration asked for.
    pub requested: &'static str,
}

impl fmt::Display for MetricKindMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "metric {}/{} re-registered as a different kind: first {}, now {}",
            self.subsystem, self.name, self.existing, self.requested
        )
    }
}

impl std::error::Error for MetricKindMismatch {}

/// The live registry: interned identities, dense storage, `O(1)`
/// handle-based updates.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    strings: Vec<String>,
    // sky-lint: allow(D001, lookup-only string interner; never iterated - ids come from the insertion-ordered strings vec)
    string_ids: HashMap<String, u32>,
    metrics: Vec<(MetricKey, MetricData)>,
    // sky-lint: allow(D001, lookup-only hot-path handle index; snapshot/export iterate the dense metrics vec and sort by name)
    index: HashMap<MetricKey, MetricHandle>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    fn key(&mut self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut interned: Vec<(u32, u32)> = labels
            .iter()
            .map(|(k, v)| (self.intern(k), self.intern(v)))
            .collect();
        // Canonical in-key label order is by *string*, so the same
        // labels in any argument order (or interning history) resolve
        // to the same metric.
        interned.sort_by(|a, b| {
            (&self.strings[a.0 as usize], &self.strings[a.1 as usize])
                .cmp(&(&self.strings[b.0 as usize], &self.strings[b.1 as usize]))
        });
        MetricKey {
            subsystem: self.intern(subsystem),
            name: self.intern(name),
            labels: interned,
        }
    }

    fn register(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
        data: MetricData,
    ) -> Result<MetricHandle, MetricKindMismatch> {
        let key = self.key(subsystem, name, labels);
        if let Some(&h) = self.index.get(&key) {
            let existing = &self.metrics[h.0 as usize].1;
            if existing.kind_label() != data.kind_label() {
                return Err(MetricKindMismatch {
                    subsystem: subsystem.to_string(),
                    name: name.to_string(),
                    existing: existing.kind_label(),
                    requested: data.kind_label(),
                });
            }
            return Ok(h);
        }
        let h = MetricHandle(self.metrics.len() as u32);
        self.metrics.push((key.clone(), data));
        self.index.insert(key, h);
        Ok(h)
    }

    /// Register (or look up) a counter, reporting a kind collision as
    /// an error instead of panicking.
    pub fn try_counter(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Result<MetricHandle, MetricKindMismatch> {
        self.register(subsystem, name, labels, MetricData::Counter(0))
    }

    /// Register (or look up) a gauge, reporting a kind collision as an
    /// error instead of panicking.
    pub fn try_gauge(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Result<MetricHandle, MetricKindMismatch> {
        self.register(
            subsystem,
            name,
            labels,
            MetricData::Gauge {
                at: SimTime::ZERO,
                value: 0.0,
            },
        )
    }

    /// Register (or look up) a histogram, reporting a kind collision as
    /// an error instead of panicking.
    pub fn try_histogram(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Result<MetricHandle, MetricKindMismatch> {
        self.register(
            subsystem,
            name,
            labels,
            MetricData::Histogram(LogHistogram::new()),
        )
    }

    /// Register (or look up) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the identity is already registered as another kind;
    /// use [`MetricsRegistry::try_counter`] to handle that as an error.
    pub fn counter(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> MetricHandle {
        self.try_counter(subsystem, name, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the identity is already registered as another kind;
    /// use [`MetricsRegistry::try_gauge`] to handle that as an error.
    pub fn gauge(&mut self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> MetricHandle {
        self.try_gauge(subsystem, name, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register (or look up) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if the identity is already registered as another kind;
    /// use [`MetricsRegistry::try_histogram`] to handle that as an
    /// error.
    pub fn histogram(
        &mut self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> MetricHandle {
        self.try_histogram(subsystem, name, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add to a counter.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not a counter.
    #[inline]
    pub fn add(&mut self, h: MetricHandle, n: u64) {
        match &mut self.metrics[h.0 as usize].1 {
            MetricData::Counter(total) => *total += n,
            other => panic!("add() on a {}", other.kind_label()),
        }
    }

    /// Set a gauge observation; the latest `(at, bits)` pair wins, so
    /// out-of-order sets are harmless.
    #[inline]
    pub fn set_gauge(&mut self, h: MetricHandle, at: SimTime, value: f64) {
        match &mut self.metrics[h.0 as usize].1 {
            MetricData::Gauge {
                at: cur_at,
                value: cur,
            } => {
                if (at, value.to_bits()) > (*cur_at, cur.to_bits()) {
                    *cur_at = at;
                    *cur = value;
                }
            }
            other => panic!("set_gauge() on a {}", other.kind_label()),
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&mut self, h: MetricHandle, value: u64) {
        match &mut self.metrics[h.0 as usize].1 {
            MetricData::Histogram(hist) => hist.record(value),
            other => panic!("observe() on a {}", other.kind_label()),
        }
    }

    /// Record a duration sample in microseconds.
    #[inline]
    pub fn observe_duration(&mut self, h: MetricHandle, d: SimDuration) {
        self.observe(h, d.as_micros());
    }

    /// Slow-path counter add for cold call sites (fault arming, day
    /// ticks): interns the identity on every call.
    pub fn incr(&mut self, subsystem: &str, name: &str, labels: &[(&str, &str)], n: u64) {
        let h = self.counter(subsystem, name, labels);
        self.add(h, n);
    }

    /// Direct read of a counter handle (test/report support).
    pub fn counter_value(&self, h: MetricHandle) -> u64 {
        match &self.metrics[h.0 as usize].1 {
            MetricData::Counter(n) => *n,
            other => panic!("counter_value() on a {}", other.kind_label()),
        }
    }

    /// Export the registry as a normalized snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            entries: self
                .metrics
                .iter()
                .map(|(key, data)| {
                    let mut labels: Vec<(String, String)> = key
                        .labels
                        .iter()
                        .map(|&(k, v)| {
                            (
                                self.strings[k as usize].clone(),
                                self.strings[v as usize].clone(),
                            )
                        })
                        .collect();
                    labels.sort();
                    MetricEntry {
                        subsystem: self.strings[key.subsystem as usize].clone(),
                        name: self.strings[key.name as usize].clone(),
                        labels,
                        value: match data {
                            MetricData::Counter(n) => MetricValue::Counter(*n),
                            MetricData::Gauge { at, value } => MetricValue::Gauge {
                                at_us: at.as_micros(),
                                value: *value,
                            },
                            MetricData::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                                count: h.count,
                                sum: h.sum,
                                min: h.min,
                                max: h.max,
                                buckets: h.sparse_buckets(),
                            }),
                        },
                    }
                })
                .collect(),
        };
        snap.normalize();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..LOG_BUCKETS {
            let edge = bucket_upper_edge(b);
            assert_eq!(bucket_index(edge), b, "upper edge of bucket {b}");
        }
    }

    #[test]
    fn histogram_records_and_conserves() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let bucket_total: u64 = h.buckets.iter().sum();
        assert_eq!(bucket_total, h.count());
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut all = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for v in 0..100u64 {
            all.record(v * 37);
            if v % 2 == 0 {
                left.record(v * 37);
            } else {
                right.record(v * 37);
            }
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn histogram_quantile_is_bucket_edge() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), Some(1000), "capped at the true max");
        let p50 = h.quantile(0.5).unwrap();
        assert!((500..=1023).contains(&p50), "p50 edge {p50}");
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn registry_handles_are_stable_and_typed() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("faas", "requests", &[("az", "us-east-2a")]);
        let c2 = r.counter("faas", "requests", &[("az", "us-east-2a")]);
        assert_eq!(c, c2, "same identity, same handle");
        r.add(c, 3);
        r.add(c2, 2);
        assert_eq!(r.counter_value(c), 5);
        // Label order does not create a second metric.
        let m1 = r.counter("x", "y", &[("a", "1"), ("b", "2")]);
        let m2 = r.counter("x", "y", &[("b", "2"), ("a", "1")]);
        assert_eq!(m1, m2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_collision() {
        let mut r = MetricsRegistry::new();
        r.counter("test", "kind_probe", &[]);
        // sky-lint: allow(D009, deliberate kind collision: this test pins the panicking wrapper's behaviour)
        r.histogram("test", "kind_probe", &[]);
    }

    #[test]
    fn try_register_reports_kind_mismatch_as_error() {
        let mut r = MetricsRegistry::new();
        let c = r.try_counter("test", "kind_probe", &[]).unwrap();
        assert_eq!(r.try_counter("test", "kind_probe", &[]).unwrap(), c);
        // sky-lint: allow(D009, deliberate kind collision: this test pins the error payload)
        let err = r.try_histogram("test", "kind_probe", &[]).unwrap_err();
        assert_eq!(err.subsystem, "test");
        assert_eq!(err.name, "kind_probe");
        assert_eq!(err.existing, "counter");
        assert_eq!(err.requested, "histogram");
        assert!(err
            .to_string()
            .contains("re-registered as a different kind"));
        // The failed registration must not have disturbed the registry.
        r.add(c, 2);
        assert_eq!(r.counter_value(c), 2);
    }

    #[test]
    fn gauge_keeps_latest() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("faas", "hosts", &[]);
        r.set_gauge(g, SimTime::from_micros(10), 5.0);
        r.set_gauge(g, SimTime::from_micros(5), 99.0); // stale: ignored
        let snap = r.snapshot();
        match &snap.entries[0].value {
            MetricValue::Gauge { at_us, value } => {
                assert_eq!(*at_us, 10);
                assert_eq!(*value, 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_merge_is_identity_on_empty() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("a", "b", &[]);
        r.add(c, 7);
        let snap = r.snapshot();
        let mut merged = MetricsSnapshot::new();
        merged.merge(&snap);
        assert_eq!(merged, snap);
        let mut merged2 = snap.clone();
        merged2.merge(&MetricsSnapshot::new());
        assert_eq!(merged2, snap);
    }

    #[test]
    fn with_label_tags_every_entry() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("a", "b", &[("z", "1")]);
        r.add(c, 1);
        let tagged = r.snapshot().with_label("policy", "baseline");
        assert_eq!(
            tagged.entries[0].labels,
            vec![
                ("policy".to_string(), "baseline".to_string()),
                ("z".to_string(), "1".to_string())
            ]
        );
        assert_eq!(
            tagged.counter("a", "b", &[("policy", "baseline"), ("z", "1")]),
            Some(1)
        );
    }

    #[test]
    fn prometheus_text_shape() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("faas", "cold_starts", &[("az", "us-east-2a")]);
        r.add(c, 4);
        let h = r.histogram("faas", "e2e_us", &[("az", "us-east-2a")]);
        r.observe(h, 3);
        r.observe(h, 1000);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE sky_faas_cold_starts_total counter"));
        assert!(text.contains("sky_faas_cold_starts_total{az=\"us-east-2a\"} 4"));
        assert!(text.contains("sky_faas_e2e_us_bucket{az=\"us-east-2a\",le=\"3\"} 1"));
        assert!(text.contains("sky_faas_e2e_us_bucket{az=\"us-east-2a\",le=\"+Inf\"} 2"));
        assert!(text.contains("sky_faas_e2e_us_sum{az=\"us-east-2a\"} 1003"));
        assert!(text.contains("sky_faas_e2e_us_count{az=\"us-east-2a\"} 2"));
    }
}
