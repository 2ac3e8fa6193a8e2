//! The Sort benchmark — Section 5.2: sorting 4096 32-bit keys.
//!
//! Data-dependent merging is where a sequential SRF hurts: consuming two
//! runs at data-dependent rates needs conditional streams, with their
//! cross-lane communication and bookkeeping on every element. With an
//! indexed SRF, "the conditional inputs are formulated as conditional
//! address computations": a two-pointer merge whose next read address is a
//! `select` of the two run cursors, all cluster-local.
//!
//! * **ISRF**: each cluster merge-sorts its bank-resident keys with
//!   `log2(n)` two-pointer merge passes over in-lane indexed reads. The
//!   merge pointers form a loop-carried dependence *through the indexed
//!   access*, which is exactly why the Sort kernels' schedule length
//!   tracks the address/data separation in Figure 14.
//! * **Base/Cache**: without indexed access the kernels must use
//!   position-based (data-independent) access patterns, so the baseline
//!   runs a bitonic sorting network over strided stream windows —
//!   asymptotically more comparisons (O(n log² n) compare-exchanges), the
//!   algorithmic overhead conditional/indexed access exists to avoid.
//!
//! Both versions leave each bank's keys fully sorted (8 sorted runs of
//! n/8); the final 8-way combine is configuration-independent and omitted,
//! as noted in EXPERIMENTS.md. Output is validated for sortedness and
//! multiset equality with the input.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, Operand, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, schedule_for, Plan, Prepared};

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortParams {
    /// Keys per lane (total = 8x this); power of two. The paper sorts
    /// 4096 keys = 512 per lane.
    pub keys_per_lane: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SortParams {
    fn default() -> Self {
        SortParams {
            keys_per_lane: 512,
            seed: 0x5eed_0004,
        }
    }
}

const IN_BASE: u32 = 0;
const OUT_BASE: u32 = 0x40_0000;

/// Pair-interleave factor for a merge pass: early passes have many
/// independent run-pairs per lane and interleave up to 4 of them, pushing
/// the pointer recurrence to a loop-carried distance of 4; late passes
/// degenerate to the fully serial distance-1 case.
pub fn merge_interleave(run: u32, keys_per_lane: u32) -> u32 {
    (keys_per_lane / (2 * run)).clamp(1, 4)
}

/// ISRF merge pass kernel: one two-pointer merge step with run length
/// `run` over `keys_per_lane` lane-local keys, reading via conditional
/// address computation (in-lane indexed) and writing merged elements with
/// in-lane indexed writes. `interleave` independent pairs are processed
/// round-robin, so the pointer recurrence has that loop-carried distance.
pub fn build_merge_kernel(run: u32, keys_per_lane: u32) -> Kernel {
    let il = merge_interleave(run, keys_per_lane);
    let mut b = KernelBuilder::new(format!("sort_merge_{run}"));
    let data = b.stream("data", StreamKind::IdxInRead);
    let out = b.stream("out", StreamKind::IdxInWrite);

    // i -> group g of `il` pairs; within the group, output slot o of
    // pair p (p varies fastest).
    let i = b.iter_id();
    let group_words = 2 * run * il;
    let gsh = b.constant(group_words.trailing_zeros());
    let gmask = b.constant(group_words - 1);
    let psh = b.constant(il.trailing_zeros());
    let pmask = b.constant(il - 1);
    let g = b.shr(i, gsh);
    let ii = b.and(i, gmask);
    let p_local = b.and(ii, pmask);
    let o = b.shr(ii, psh);
    let gp = b.shl(g, psh);
    let pair = b.or(gp, p_local);
    let lsh = b.constant((2 * run).trailing_zeros());
    let pair_base = b.shl(pair, lsh);
    let cl = b.constant(run);
    let end_a = b.add(pair_base, cl);
    let c2l = b.constant(2 * run);
    let end_b = b.add(pair_base, c2l);
    let zero = b.constant(0);
    let reset = b.eq(o, zero);

    // Loop-carried cursors at distance `il` (patched below). Exhausted
    // cursors sit one past their run end; the binding pads the region by a
    // word so the (masked-out) load stays legal. Keys are < 2^31, so
    // signed comparisons are exact and save flag inversions.
    let pa_hold = b.mov(zero);
    let pb_hold = b.mov(zero);
    let pa = b.select(reset, pair_base, pa_hold);
    let pb = b.select(reset, end_a, pb_hold);
    let a = b.idx_load(data, pa);
    let bb = b.idx_load(data, pb);
    let a_valid = b.lt(pa, end_a);
    let b_done = b.le(end_b, pb);
    let a_le_b = b.le(a, bb);
    let either = b.or(b_done, a_le_b);
    let take_a = b.and(a_valid, either);
    let v = b.select(take_a, a, bb);
    let pa_next = b.add(pa, take_a);
    let one = b.constant(1);
    let not_take = b.xor(take_a, one);
    let pb_next = b.add(pb, not_take);
    let waddr = b.add(pair_base, o);
    b.idx_write(out, waddr, v);

    b.set_operand(pa_hold, 0, Operand::carried(pa_next, il, 0));
    b.set_operand(pb_hold, 0, Operand::carried(pb_next, il, 0));
    b.build().expect("merge kernel is well-formed")
}

/// Base conditional-stream merge kernel: the same two-pointer merge, but
/// candidates arrive through per-lane conditional stream reads (\[16\]).
/// Every refill crosses the inter-cluster network, the candidate/occupancy
/// bookkeeping adds ALU work, and the interleaved-pair trick is
/// unavailable (outputs must leave through the sequential stream in
/// order), so the pointer recurrence runs at distance 1 — the "cross-lane
/// communication on every iteration" the paper attributes to the baseline.
pub fn build_cond_merge_kernel(run: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("sort_cond_merge_{run}"));
    let sa = b.stream("A", StreamKind::CondLaneIn);
    let sb = b.stream("B", StreamKind::CondLaneIn);
    let out = b.stream("out", StreamKind::SeqOut);

    let i = b.iter_id();
    let mask = b.constant(2 * run - 1);
    let o = b.and(i, mask);
    let zero = b.constant(0);
    let reset = b.eq(o, zero);
    let runc = b.constant(run);

    // Carried state (patched below): candidate values, consumed counts,
    // and the precomputed "refill next iteration" flags.
    let a_prev = b.mov(zero);
    let b_prev = b.mov(zero);
    let na_prev = b.mov(zero);
    let nb_prev = b.mov(zero);
    let need_a_carry = b.mov(zero);
    let need_b_carry = b.mov(zero);

    let na = b.select(reset, zero, na_prev);
    let nb = b.select(reset, zero, nb_prev);
    let need_a = b.or(reset, need_a_carry);
    let need_b = b.or(reset, need_b_carry);
    let pa = b.cond_lane_read(sa, need_a);
    let pb = b.cond_lane_read(sb, need_b);
    let av = b.select(need_a, pa, a_prev);
    let bv = b.select(need_b, pb, b_prev);

    let a_valid = b.lt(na, runc);
    let b_done = b.le(runc, nb);
    let a_le_b = b.le(av, bv);
    let either = b.or(b_done, a_le_b);
    let take_a = b.and(a_valid, either);
    let v = b.select(take_a, av, bv);
    let na_next = b.add(na, take_a);
    let one = b.constant(1);
    let not_take = b.xor(take_a, one);
    let nb_next = b.add(nb, not_take);
    // Refill only while the run still has unpopped elements.
    let more_a = b.lt(na_next, runc);
    let need_next_a = b.and(take_a, more_a);
    let more_b = b.lt(nb_next, runc);
    let need_next_b = b.and(not_take, more_b);
    b.seq_write(out, v);

    b.set_operand(a_prev, 0, Operand::carried(av, 1, 0));
    b.set_operand(b_prev, 0, Operand::carried(bv, 1, 0));
    b.set_operand(na_prev, 0, Operand::carried(na_next, 1, 0));
    b.set_operand(nb_prev, 0, Operand::carried(nb_next, 1, 0));
    b.set_operand(need_a_carry, 0, Operand::carried(need_next_a, 1, 0));
    b.set_operand(need_b_carry, 0, Operand::carried(need_next_b, 1, 0));
    b.build().expect("conditional merge kernel is well-formed")
}

/// Base bitonic compare-exchange kernel for level `k`, distance `d` (both
/// lane-local): strided windows pair elements `d` apart; ascending blocks
/// follow bit `k` of the element index.
pub fn build_bitonic_kernel(k: u32, d: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("sort_ce_{k}_{d}"));
    let ina = b.stream("inA", StreamKind::SeqIn);
    let inb = b.stream("inB", StreamKind::SeqIn);
    let outa = b.stream("outA", StreamKind::SeqOut);
    let outb = b.stream("outB", StreamKind::SeqOut);
    // Lane-local index of this iteration's A element: t = (i/d)*2d + i%d.
    let i = b.iter_id();
    let dm1 = b.constant(d.wrapping_sub(1));
    let logd = b.constant(d.trailing_zeros());
    let logd1 = b.constant(d.trailing_zeros() + 1);
    let im = b.and(i, dm1);
    let id = b.shr(i, logd);
    let hi = b.shl(id, logd1);
    let t = b.or(hi, im);
    // Ascending iff bit k of t is clear.
    let ck = b.constant(k);
    let bit = b.shr(t, ck);
    let one = b.constant(1);
    let dirbit = b.and(bit, one);
    let zero = b.constant(0);
    let asc = b.eq(dirbit, zero);
    let a = b.seq_read(ina);
    let bb = b.seq_read(inb);
    let lo = b.min(a, bb);
    let hi_v = b.max(a, bb);
    let oa = b.select(asc, lo, hi_v);
    let ob = b.select(asc, hi_v, lo);
    b.seq_write(outa, oa);
    b.seq_write(outb, ob);
    b.build().expect("bitonic kernel is well-formed")
}

/// The load stage: the seeded keys at `IN_BASE`.
fn load_keys(m: &mut isrf_sim::Machine, params: &SortParams) {
    let n = params.keys_per_lane * 8;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    // Keys below 2^31 so signed min/max in the bitonic kernel is exact.
    let keys: Vec<Word> = (0..n).map(|_| rng.gen_range(0..0x7fff_ffff)).collect();
    m.mem_mut().memory_mut().write_block(IN_BASE, &keys);
}

/// The host check: every lane's run is sorted and the output is a
/// permutation of the input.
fn verify(m: &isrf_sim::Machine, keys_per_lane: u32) {
    let n = keys_per_lane * 8;
    // The input keys survive untouched at IN_BASE.
    let keys: Vec<Word> = (0..n).map(|i| m.mem().memory().read(IN_BASE + i)).collect();
    let out: Vec<Word> = (0..n)
        .map(|i| m.mem().memory().read(OUT_BASE + i))
        .collect();
    // Lane l's run is elements l, l+8, ...: each must be sorted.
    for l in 0..8u32 {
        let lane: Vec<Word> = (0..keys_per_lane)
            .map(|k| out[(k * 8 + l) as usize])
            .collect();
        assert!(
            lane.windows(2).all(|w| w[0] <= w[1]),
            "lane {l} is not sorted"
        );
    }
    let mut a = keys.to_vec();
    let mut b = out;
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "output is not a permutation of the input");
}

fn planned(m: isrf_sim::Machine, p: StreamProgram, params: &SortParams) -> Plan {
    let (params, keys_per_lane) = (*params, params.keys_per_lane);
    let outputs = vec![(OUT_BASE, keys_per_lane * 8)];
    let load = move |m: &mut isrf_sim::Machine| load_keys(m, &params);
    Plan::new(m, p, outputs, load, move |m| verify(m, keys_per_lane))
}

/// Plan the ISRF version: log2(n) two-pointer merge passes per lane.
fn plan_isrf(cfg: &MachineConfig, params: &SortParams) -> Plan {
    let mut m = machine(cfg);
    let n = params.keys_per_lane * 8;
    // One extra word per lane pads the regions for exhausted-cursor loads.
    let x = m.alloc_stream(1, n + 8).slice(0, n);
    let y = m.alloc_stream(1, n + 8).slice(0, n);

    let mut p = StreamProgram::new();
    let load = p.load(AddrPattern::contiguous(IN_BASE, n), x, false, &[]);
    let mut cur = x;
    let mut other = y;
    let mut last = load;
    let mut run = 1;
    while run < params.keys_per_lane {
        let k = Arc::new(build_merge_kernel(run, params.keys_per_lane));
        let s = schedule_for(&m, &k);
        // In-lane indexed views of the whole local array, read and write.
        // The read view is padded by one word per lane: an exhausted merge
        // cursor sits one past its run, and its (ignored) load must be
        // in range.
        let view = StreamBinding::whole(cur.range, 1, n + 8);
        let wview = StreamBinding::whole(other.range, 1, n);
        last = p.kernel(
            Arc::clone(&k),
            s,
            vec![view, wview],
            params.keys_per_lane as u64,
            &[last],
        );
        std::mem::swap(&mut cur, &mut other);
        run *= 2;
    }
    p.store(cur, AddrPattern::contiguous(OUT_BASE, n), false, &[last]);
    planned(m, p, params)
}

/// Plan the Base/Cache version: conditional-stream merge passes.
fn plan_base(cfg: &MachineConfig, params: &SortParams) -> Plan {
    let mut m = machine(cfg);
    let n = params.keys_per_lane * 8;
    let x = m.alloc_stream(1, n);
    let y = m.alloc_stream(1, n);

    let mut p = StreamProgram::new();
    let load = p.load(AddrPattern::contiguous(IN_BASE, n), x, false, &[]);
    let mut cur = x;
    let mut other = y;
    let mut last = load;
    let mut run = 1;
    while run < params.keys_per_lane {
        let k = Arc::new(build_cond_merge_kernel(run));
        let s = schedule_for(&m, &k);
        // The A substream covers each lane's left runs, B the right runs:
        // stream records alternate run-sized blocks, which (in lane-record
        // space) are windows of 8*run records with stride 16*run.
        let sd = 8 * run;
        let runs = n / (2 * sd);
        let a_in = StreamBinding::windowed(cur.range, 1, 0, sd, 2 * sd, runs);
        let b_in = StreamBinding::windowed(cur.range, 1, sd, sd, 2 * sd, runs);
        last = p.kernel(
            Arc::clone(&k),
            s,
            vec![a_in, b_in, other],
            params.keys_per_lane as u64,
            &[last],
        );
        std::mem::swap(&mut cur, &mut other);
        run *= 2;
    }
    p.store(cur, AddrPattern::contiguous(OUT_BASE, n), false, &[last]);
    planned(m, p, params)
}

/// Ablation: the baseline recast as a bitonic sorting network over strided
/// stream windows (data-independent accesses; more comparison stages).
pub fn prepare_base_bitonic(cfg: &MachineConfig, params: &SortParams) -> Prepared {
    let mut m = machine(cfg);
    let n = params.keys_per_lane * 8;
    let x = m.alloc_stream(1, n);
    let y = m.alloc_stream(1, n);

    let mut p = StreamProgram::new();
    let load = p.load(AddrPattern::contiguous(IN_BASE, n), x, false, &[]);
    let mut cur = x;
    let mut other = y;
    let mut last = load;
    let levels = params.keys_per_lane.trailing_zeros();
    for k in 1..=levels {
        for j in (0..k).rev() {
            let d = 1u32 << j; // lane-local distance; stream distance 8d
            let kern = Arc::new(build_bitonic_kernel(k, d));
            let s = schedule_for(&m, &kern);
            let sd = 8 * d;
            let runs = n / (2 * sd);
            let a_in = StreamBinding::windowed(cur.range, 1, 0, sd, 2 * sd, runs);
            let b_in = StreamBinding::windowed(cur.range, 1, sd, sd, 2 * sd, runs);
            let a_out = StreamBinding::windowed(other.range, 1, 0, sd, 2 * sd, runs);
            let b_out = StreamBinding::windowed(other.range, 1, sd, sd, 2 * sd, runs);
            last = p.kernel(
                Arc::clone(&kern),
                s,
                vec![a_in, b_in, a_out, b_out],
                (params.keys_per_lane / 2) as u64,
                &[last],
            );
            std::mem::swap(&mut cur, &mut other);
        }
    }
    p.store(cur, AddrPattern::contiguous(OUT_BASE, n), false, &[last]);
    planned(m, p, params).load()
}

/// Build the measured program and its machine's SRF allocation; the load
/// lays out the keys. The check holds the output to be sorted per lane
/// and a permutation of the input.
///
/// # Panics
///
/// Panics if `params.keys_per_lane` is not a power of two ≥ 2.
pub fn plan(cfg: &MachineConfig, params: &SortParams) -> Plan {
    assert!(
        params.keys_per_lane.is_power_of_two() && params.keys_per_lane >= 2,
        "keys_per_lane must be a power of two"
    );
    if cfg.srf.indexed.is_some() {
        plan_isrf(cfg, params)
    } else {
        plan_base(cfg, params)
    }
}

/// The Sort1 kernel used by the parameter studies (Figures 13–15): a
/// mid-sort merge pass (two run-pairs still interleave, so the pointer
/// recurrence is damped but visible).
pub fn sort1_kernel() -> Kernel {
    build_merge_kernel(128, 512)
}

/// The Sort2 kernel used by the parameter studies: a late merge pass with
/// long runs.
pub fn sort2_kernel() -> Kernel {
    build_merge_kernel(256, 512)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;
    use isrf_kernel::sched::{schedule, SchedParams};

    fn run(cfg: ConfigName, params: &SortParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    fn small() -> SortParams {
        SortParams {
            keys_per_lane: 64,
            seed: 21,
        }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_merge_kernel(8, 512));
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_bitonic_kernel(3, 4));
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &small());
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &small());
    }

    #[test]
    fn isrf_wins_via_shorter_kernel_time() {
        let params = small();
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        let speedup = isrf.speedup_over(&base);
        assert!(
            speedup > 1.1,
            "speedup {speedup:.2} (paper: ~1.35x from conditional-access efficiency)"
        );
        // No memory-traffic advantage (Figure 11: Sort ratio = 1.0).
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!((0.9..=1.1).contains(&ratio), "traffic ratio {ratio:.3}");
    }

    #[test]
    fn merge_kernel_ii_tracks_separation() {
        // The Figure 14 property: the merge pointers' recurrence runs
        // through the indexed access, so II grows with the separation.
        // Sort2 (serial late pass) shows it most strongly.
        let k = sort2_kernel();
        let base = SchedParams::from_machine(machine(&ConfigName::Isrf4.into()).config());
        let mut iis = vec![];
        for sep in [2u32, 6, 10] {
            let p = base.clone().with_separations(sep, 20);
            iis.push(schedule(&k, &p).unwrap().ii);
        }
        assert!(iis[1] > iis[0] && iis[2] > iis[1], "IIs {iis:?}");
    }
}
