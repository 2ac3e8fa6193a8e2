//! SRAM access-time model.
//!
//! Section 4 argues the indexed designs leave the *sequential* access path
//! untouched ("there is no adverse impact in terms of performance and
//! power for applications that do not require indexed SRF accesses"): the
//! 4-word block access still bypasses the extra 8:1 column mux. The
//! indexed path adds one mux stage and per-sub-array predecode, which is
//! why Table 3 gives indexed accesses one extra pipeline stage (4 cycles
//! in-lane vs. 3 sequential).
//!
//! This module sizes those paths with a simple Horowitz-style delay sum —
//! decode, wordline, bitline, sense, column mux, output — in 0.13 µm
//! constants, and checks the pipeline-stage arithmetic against Table 3.

use crate::geometry::{SrfGeometry, SrfVariant};

/// Delay constants in nanoseconds for a 0.13 µm process.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayParams {
    /// Predecode + row decode logic (fixed gate chain).
    pub decode_ns: f64,
    /// Wordline RC per row driven (scales with columns).
    pub wordline_per_col_ns: f64,
    /// Bitline discharge per row on the line (scales with rows).
    pub bitline_per_row_ns: f64,
    /// Sense amplifier resolution.
    pub sense_ns: f64,
    /// One column-mux level.
    pub colmux_level_ns: f64,
    /// Global bitline / output drive.
    pub output_ns: f64,
    /// Extra address distribution to a per-sub-array decoder (indexed
    /// variants route addresses further).
    pub addr_route_ns: f64,
}

impl Default for DelayParams {
    fn default() -> Self {
        DelayParams {
            decode_ns: 0.20,
            wordline_per_col_ns: 0.0009,
            bitline_per_row_ns: 0.0016,
            sense_ns: 0.15,
            colmux_level_ns: 0.06,
            output_ns: 0.12,
            addr_route_ns: 0.12,
        }
    }
}

/// The timing model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingModel {
    /// Delay constants.
    pub params: DelayParams,
}

impl TimingModel {
    /// Build a model with explicit constants.
    pub fn new(params: DelayParams) -> Self {
        TimingModel { params }
    }

    fn array_ns(&self, geom: &SrfGeometry) -> f64 {
        let p = &self.params;
        p.decode_ns
            + p.wordline_per_col_ns * geom.cols as f64
            + p.bitline_per_row_ns * geom.rows as f64
            + p.sense_ns
    }

    /// Access time of the wide sequential block path, in ns. Identical on
    /// every variant: the extra indexed structures are bypassed.
    pub fn sequential_access_ns(&self, geom: &SrfGeometry, _variant: SrfVariant) -> f64 {
        let p = &self.params;
        let seq_levels = (geom.seq_mux_degree() as f64).log2().max(1.0);
        self.array_ns(geom) + seq_levels * p.colmux_level_ns + p.output_ns
    }

    /// Access time of the single-word indexed path, in ns.
    ///
    /// # Panics
    ///
    /// Panics when called for [`SrfVariant::Sequential`], which has no
    /// indexed path.
    pub fn indexed_access_ns(&self, geom: &SrfGeometry, variant: SrfVariant) -> f64 {
        assert!(
            variant != SrfVariant::Sequential,
            "sequential SRFs have no indexed path"
        );
        let p = &self.params;
        let idx_levels = (geom.indexed_mux_degree() as f64).log2().max(1.0);
        self.array_ns(geom) + idx_levels * p.colmux_level_ns + p.output_ns + p.addr_route_ns
    }

    /// Pipeline stages at a clock of `ghz` GHz for each path (the Table 3
    /// latency arithmetic: sequential 3 cycles, in-lane indexed 4).
    pub fn pipeline_stages(&self, geom: &SrfGeometry, variant: SrfVariant, ghz: f64) -> (u32, u32) {
        let period = 1.0 / ghz;
        // One stage each for address transport and data return, plus the
        // array access itself.
        let seq = (self.sequential_access_ns(geom, variant) / period).ceil() as u32 + 2;
        let idx = if variant == SrfVariant::Sequential {
            0
        } else {
            (self.indexed_access_ns(geom, variant) / period).ceil() as u32 + 2
        };
        (seq, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::{ConfigName, MachineConfig, CLOCK_GHZ, INLANE_LATENCY};

    fn model() -> (TimingModel, SrfGeometry) {
        (TimingModel::default(), SrfGeometry::paper_default())
    }

    #[test]
    fn sequential_path_is_variant_independent() {
        let (m, g) = model();
        let base = m.sequential_access_ns(&g, SrfVariant::Sequential);
        for v in [
            SrfVariant::Inlane1,
            SrfVariant::Inlane4,
            SrfVariant::CrossLane,
        ] {
            assert_eq!(m.sequential_access_ns(&g, v), base);
        }
    }

    #[test]
    fn indexed_path_is_slower_but_same_array() {
        let (m, g) = model();
        let seq = m.sequential_access_ns(&g, SrfVariant::Inlane4);
        let idx = m.indexed_access_ns(&g, SrfVariant::Inlane4);
        assert!(idx > seq, "extra mux level + address routing");
        assert!(idx < 1.5 * seq, "but the array dominates");
    }

    #[test]
    fn table3_pipeline_stages() {
        let (m, g) = model();
        let (seq, idx) = m.pipeline_stages(&g, SrfVariant::Inlane4, CLOCK_GHZ);
        let preset = MachineConfig::preset(ConfigName::Isrf4);
        assert_eq!(
            seq, preset.srf.seq_latency,
            "Table 3: sequential SRF latency"
        );
        assert_eq!(idx, INLANE_LATENCY, "Table 3: in-lane indexed latency");
    }

    #[test]
    fn access_times_are_sub_nanosecond_at_130nm() {
        let (m, g) = model();
        let t = m.sequential_access_ns(&g, SrfVariant::Sequential);
        assert!(t > 0.4 && t < 1.0, "{t} ns");
    }

    #[test]
    #[should_panic(expected = "no indexed path")]
    fn sequential_variant_has_no_indexed_path() {
        let (m, g) = model();
        m.indexed_access_ns(&g, SrfVariant::Sequential);
    }
}
