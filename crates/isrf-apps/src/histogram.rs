//! Read-write data structures in the SRF — the paper's Section 7 future
//! work, realized: "read-write data structures allow even more flexibility
//! for application-specific tasks".
//!
//! Each cluster keeps a private histogram in its SRF bank and updates it
//! with an in-lane indexed **read-modify-write** per key: load the bin,
//! increment, store it back through an indexed write stream bound to the
//! *same* region.
//!
//! Unlike streams (read-only or write-only for a kernel's duration),
//! read-write structures expose a genuine hazard: an update is only
//! visible to reads serviced *after* its write drains through the address
//! FIFO. Software must therefore guarantee a minimum distance between
//! updates to the same address (here: keys are presented in permuted
//! blocks, so equal keys are `buckets` iterations apart — far beyond the
//! FIFO + latency window). the `hazard_window_loses_updates` test demonstrates
//! what happens when that discipline is violated — the motivation for the
//! hardware interlocks the paper leaves to future work.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{machine, schedule_for};

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramParams {
    /// Number of bins per cluster (a power of two).
    pub buckets: u32,
    /// Keys processed per cluster.
    pub keys_per_lane: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HistogramParams {
    fn default() -> Self {
        HistogramParams {
            buckets: 256,
            keys_per_lane: 1024,
            seed: 0x5eed_0007,
        }
    }
}

/// The read-modify-write kernel: `bins[key] += 1` per iteration.
pub fn build_kernel() -> Kernel {
    let mut b = KernelBuilder::new("histogram");
    let keys = b.stream("keys", StreamKind::SeqIn);
    let bins_r = b.stream("bins_r", StreamKind::IdxInRead);
    let bins_w = b.stream("bins_w", StreamKind::IdxInWrite);
    let k = b.seq_read(keys);
    let v = b.idx_load(bins_r, k);
    let one = b.constant(1);
    let v1 = b.add(v, one);
    b.idx_write(bins_w, k, v1);
    b.build().expect("histogram kernel is well-formed")
}

const KEY_BASE: u32 = 0;
const OUT_BASE: u32 = 0x10_0000;

/// Generate hazard-free keys: each lane repeats one random permutation of
/// `0..buckets`, so equal keys are *exactly* `buckets` iterations apart —
/// far beyond the FIFO + latency window (independently shuffled blocks
/// would allow a key to sit last in one block and first in the next).
pub fn safe_keys(params: &HistogramParams) -> Vec<Word> {
    assert!(params.keys_per_lane.is_multiple_of(params.buckets));
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut out = vec![0u32; (params.keys_per_lane * 8) as usize];
    for lane in 0..8u32 {
        let mut block: Vec<u32> = (0..params.buckets).collect();
        block.shuffle(&mut rng);
        for i in 0..params.keys_per_lane {
            // Stream record r -> lane r % 8; lane's i-th key is record
            // i*8 + lane.
            out[(i * 8 + lane) as usize] = block[(i % params.buckets) as usize];
        }
    }
    out
}

/// The per-lane bins a finished run stored to memory: global record `r`
/// holds lane `r % 8`'s bin `r / 8`.
pub fn lane_bins(m: &Machine, buckets: u32) -> Vec<Vec<u32>> {
    let mut lanes = vec![vec![0u32; buckets as usize]; 8];
    for r in 0..buckets * 8 {
        lanes[(r % 8) as usize][(r / 8) as usize] = m.mem().memory().read(OUT_BASE + r);
    }
    lanes
}

/// Set up the machine and build the histogram program over the given key
/// stream (record `r` goes to lane `r % 8`) without running it. The check
/// holds every bin to the exact count of its key, which only hazard-free
/// keys ([`safe_keys`]) reach.
///
/// # Panics
///
/// Panics if `cfg` has no indexed SRF.
pub fn prepare(
    cfg: &MachineConfig,
    params: &HistogramParams,
    keys: &[Word],
) -> crate::common::Prepared {
    assert!(
        cfg.srf.indexed.is_some(),
        "read-write SRF structures need an indexed SRF"
    );
    let mut m = machine(cfg);
    m.mem_mut().memory_mut().write_block(KEY_BASE, keys);
    let kernel = Arc::new(build_kernel());
    let sched = schedule_for(&m, &kernel);

    let n = params.keys_per_lane * 8;
    let key_stream = m.alloc_stream(1, n);
    // One region, bound both as the read and the write view.
    let bins = m.alloc_stream(1, params.buckets * 8);
    m.write_stream(&bins, &vec![0; (params.buckets * 8) as usize]);
    let bins_view = StreamBinding::whole(bins.range, 1, params.buckets * 8);

    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(KEY_BASE, n), key_stream, false, &[]);
    let k = p.kernel(
        Arc::clone(&kernel),
        sched,
        vec![key_stream, bins_view, bins_view],
        params.keys_per_lane as u64,
        &[l],
    );
    p.store(
        bins,
        AddrPattern::contiguous(OUT_BASE, params.buckets * 8),
        false,
        &[k],
    );
    let (buckets, keys) = (params.buckets, keys.to_vec());
    crate::common::Prepared::new(m, p, vec![(OUT_BASE, buckets * 8)], move |m| {
        let mut expect = vec![vec![0u32; buckets as usize]; 8];
        for (r, &key) in keys.iter().enumerate() {
            expect[r % 8][key as usize] += 1;
        }
        for (l, (bins, want)) in lane_bins(m, buckets).iter().zip(&expect).enumerate() {
            for (bin, (&count, &e)) in bins.iter().zip(want).enumerate() {
                assert_eq!(count, e, "lane {l} bin {bin}");
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &HistogramParams) -> RunStats {
        prepare(&cfg.into(), params, &safe_keys(params)).run_checked()
    }

    fn small() -> HistogramParams {
        HistogramParams {
            buckets: 64,
            keys_per_lane: 256,
            seed: 9,
        }
    }

    #[test]
    fn kernel_builds_and_schedules() {
        let m = machine(&ConfigName::Isrf4.into());
        let s = schedule_for(&m, &build_kernel());
        assert!(s.ii >= 1);
    }

    #[test]
    fn exact_counts_with_safe_keys() {
        run(ConfigName::Isrf4, &small());
    }

    #[test]
    fn exact_counts_on_isrf1_too() {
        run(ConfigName::Isrf1, &small());
    }

    #[test]
    #[should_panic(expected = "indexed SRF")]
    fn rejects_sequential_machines() {
        run(ConfigName::Base, &small());
    }

    /// The hazard the paper's future work must solve: updates to the same
    /// address inside the FIFO + latency window read stale bins and lose
    /// counts. This pins the *model's* behaviour (it is the real
    /// hardware's behaviour absent interlocks).
    #[test]
    fn hazard_window_loses_updates() {
        let params = small();
        // Every lane hammers bin 0 on every iteration: maximal conflict.
        let keys = vec![0u32; (params.keys_per_lane * 8) as usize];
        let mut pr = prepare(&ConfigName::Isrf4.into(), &params, &keys);
        pr.machine.run(&pr.program);
        for bins in &lane_bins(&pr.machine, params.buckets) {
            assert!(
                bins[0] < params.keys_per_lane,
                "back-to-back RMW to one address must lose updates \
                 (got {} of {})",
                bins[0],
                params.keys_per_lane
            );
            assert!(bins[0] > 0, "some updates still land");
        }
    }
}
