//! Hierarchical counter/histogram metrics registry.
//!
//! Names are dot-separated paths (`srf.idx.inlane.grants`,
//! `mem.cache.hits`), so related metrics sort and render together. The
//! registry is a snapshot/reporting structure: the hot recording path uses
//! fixed-slot counters (see [`crate::sink::Recorder`]) and builds a
//! registry on demand.

use std::collections::BTreeMap;
use std::fmt;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(v + 1)) == i`, i.e.
/// `[2^i - 1, 2^(i+1) - 1)`; bucket 0 holds zeros. Exact count, sum, min
/// and max are kept alongside, so means are exact even though the shape is
/// approximate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let b = (64 - (v + 1).leading_zeros() - 1).min(31) as usize;
        self.buckets[b] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| ((1u64 << i) - 1, c))
            .collect()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} min={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.max
        )
    }
}

/// A named collection of counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set counter `name` to `value` (creating it).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Insert a pre-built histogram under `name` (skipped when empty).
    pub fn put_histogram(&mut self, name: &str, h: Histogram) {
        if h.count() > 0 {
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram stored under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Render as an aligned plain-text table (counters, then histograms),
    /// dropping zero counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            if *v > 0 {
                out.push_str(&format!("{k:<width$}  {v}\n"));
            }
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k:<width$}  {h}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 7, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 113);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        // Buckets: [0,1) holds the two zeros; [1,3) holds 1,2; [3,7) holds
        // 3; [7,15) holds 7; [63,127) holds 100.
        assert_eq!(h.buckets(), vec![(0, 2), (1, 2), (3, 1), (7, 1), (63, 1)]);
    }

    #[test]
    fn registry_roundtrip_and_render() {
        let mut r = MetricsRegistry::new();
        r.set("srf.seq.grants", 3);
        r.set("srf.seq.grants", 5);
        r.set("srf.idx.inlane.words", 0);
        let mut h = Histogram::default();
        h.observe(64);
        r.put_histogram("mem.transfer.words", h);
        r.put_histogram("mem.empty", Histogram::default());
        assert_eq!(r.counter("srf.seq.grants"), 5);
        assert_eq!(r.counter("missing"), 0);
        let text = r.render();
        assert!(text.contains("srf.seq.grants"));
        assert!(!text.contains("inlane.words"), "zero counters dropped");
        assert!(text.contains("mem.transfer.words"));
        assert!(
            r.histogram("mem.empty").is_none(),
            "empty histograms skipped"
        );
    }
}
