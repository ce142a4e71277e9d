//! FNV-1a digest of simulated outcomes. Host timings never enter it, so
//! equal digests mean bit-identical simulated results.

use sky_core::sim::MetricValue;
use sky_core::sim::MetricsSnapshot;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hash.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a string, length-prefixed so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Fold every counter of `subsystem` that grew between two
    /// snapshots, keyed by name and labels.
    pub fn counter_deltas(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        subsystem: &str,
    ) {
        for e in after.subsystem(subsystem) {
            let MetricValue::Counter(now) = e.value else {
                continue;
            };
            let labels: Vec<(&str, &str)> = e
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let was = before.counter(subsystem, &e.name, &labels).unwrap_or(0);
            if now != was {
                self.str(&e.name);
                for (k, v) in &labels {
                    self.str(k);
                    self.str(v);
                }
                self.u64(now - was);
            }
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
