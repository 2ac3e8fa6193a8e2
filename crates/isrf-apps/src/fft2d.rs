//! The 2D FFT benchmark — Section 5.2.
//!
//! A 64×64 complex array (it fits in the SRF). The first-dimension
//! transform runs "across all lanes" as six radix-2 DIF butterfly-stage
//! kernels over sequential/strided streams (distances ≥ 8 pair elements
//! through strided half-streams; distances < 8 pair *lanes* through
//! inter-cluster communication — both classic stream-FFT techniques).
//!
//! The second dimension is where the configurations differ (Figure 3):
//!
//! * **Base/Cache** rotate the array through memory: store the SRF-resident
//!   array, gather it back transposed (and bit-reversal-corrected), and run
//!   the same six sequential stage kernels again. On `Cache` the reorder
//!   gather hits in the cache, saving DRAM traffic — but the explicit
//!   reorder pass remains.
//! * **ISRF** keeps the array in place: with the row-major, record-
//!   interleaved layout every column lives entirely in bank `c mod 8`, so
//!   each cluster transforms its own columns with in-lane indexed reads and
//!   writes; twiddles come from a tiny in-lane table.
//!
//! Results are verified against a naive O(n²)-per-dimension DFT.

use std::f32::consts::PI;
use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::{from_f32, Word};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, schedule_for, Plan};

/// Transform size per dimension.
pub const N: u32 = 64;
const HALF: u32 = N / 2; // 32
const ELEMS: u32 = N * N; // 4096 complex records

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fft2dParams {
    /// Number of back-to-back 2D FFTs (frames of a stream).
    pub reps: u32,
    /// RNG seed for the input array.
    pub seed: u64,
}

impl Default for Fft2dParams {
    fn default() -> Self {
        Fft2dParams {
            reps: 2,
            seed: 0x5eed_0002,
        }
    }
}

// ---------- host-side complex helpers & reference ----------

/// `W_64^e = exp(-2πi e / 64)`.
fn twiddle(e: i32) -> (f32, f32) {
    let ang = -2.0 * PI * (e as f32) / (N as f32);
    (ang.cos(), ang.sin())
}

fn bitrev6(mut x: u32) -> u32 {
    let mut r = 0;
    for _ in 0..6 {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

/// Naive 2D DFT of a row-major complex array.
pub fn reference_dft2d(input: &[(f32, f32)]) -> Vec<(f32, f32)> {
    assert_eq!(input.len(), ELEMS as usize);
    let n = N as usize;
    // Transform rows, then columns, in f64 for a clean reference.
    let mut mid = vec![(0.0f64, 0.0f64); input.len()];
    for r in 0..n {
        for k in 0..n {
            let mut acc = (0.0f64, 0.0f64);
            for c in 0..n {
                let (xr, xi) = input[r * n + c];
                let ang = -2.0 * std::f64::consts::PI * (k * c % n) as f64 / n as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                acc.0 += xr as f64 * wr - xi as f64 * wi;
                acc.1 += xr as f64 * wi + xi as f64 * wr;
            }
            mid[r * n + k] = acc;
        }
    }
    let mut out = vec![(0.0f32, 0.0f32); input.len()];
    for k2 in 0..n {
        for k in 0..n {
            let mut acc = (0.0f64, 0.0f64);
            for r in 0..n {
                let (xr, xi) = mid[r * n + k];
                let ang = -2.0 * std::f64::consts::PI * (k2 * r % n) as f64 / n as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                acc.0 += xr * wr - xi * wi;
                acc.1 += xr * wi + xi * wr;
            }
            out[k2 * n + k] = (acc.0 as f32, acc.1 as f32);
        }
    }
    out
}

/// Host mirror of one in-place DIF stage along the fast axis (used by unit
/// tests to pin down the stage algebra independent of the simulator).
pub fn host_dif_stage(x: &mut [(f32, f32)], d: u32) {
    let n = x.len() as u32;
    let scale = HALF / d;
    let mut b = 0;
    while b < n {
        for j in 0..d {
            let lo = (b + j) as usize;
            let hi = (b + j + d) as usize;
            let (ar, ai) = x[lo];
            let (br, bi) = x[hi];
            let (wr, wi) = twiddle((j * scale) as i32);
            let (dr, di) = (ar - br, ai - bi);
            x[lo] = (ar + br, ai + bi);
            x[hi] = (dr * wr - di * wi, dr * wi + di * wr);
        }
        b += 2 * d;
    }
}

// ---------- kernels ----------

/// Butterfly stage for distance `d >= 8`: strided half-streams + a
/// sequential twiddle stream.
pub fn build_bf_high_kernel(d: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("fft_bf{d}"));
    let ina = b.stream("inA", StreamKind::SeqIn);
    let inb = b.stream("inB", StreamKind::SeqIn);
    let tw = b.stream("tw", StreamKind::SeqIn);
    let outa = b.stream("outA", StreamKind::SeqOut);
    let outb = b.stream("outB", StreamKind::SeqOut);
    let ar = b.seq_read(ina);
    let ai = b.seq_read(ina);
    let br = b.seq_read(inb);
    let bi = b.seq_read(inb);
    let wr = b.seq_read(tw);
    let wi = b.seq_read(tw);
    let sr = b.fadd(ar, br);
    let si = b.fadd(ai, bi);
    let dr = b.fsub(ar, br);
    let di = b.fsub(ai, bi);
    let p0 = b.fmul(dr, wr);
    let p1 = b.fmul(di, wi);
    let pr = b.fsub(p0, p1);
    let p2 = b.fmul(dr, wi);
    let p3 = b.fmul(di, wr);
    let pi = b.fadd(p2, p3);
    b.seq_write(outa, sr);
    b.seq_write(outa, si);
    b.seq_write(outb, pr);
    b.seq_write(outb, pi);
    b.build().expect("bf_high kernel is well-formed")
}

/// Scratchpad addresses of the per-lane twiddles of the low stages:
/// `d = 4 -> 0, d = 2 -> 2, d = 1 -> 4` (re at the address, im at +1).
fn low_stage_scratch_addr(d: u32) -> u32 {
    match d {
        4 => 0,
        2 => 2,
        1 => 4,
        _ => unreachable!("low stages have d < 8"),
    }
}

/// Butterfly stage for distance `d < 8`: partners sit `d` lanes apart, so
/// the exchange uses the inter-cluster network; each lane is statically a
/// "lower" (sum) or "upper" (difference × twiddle) position, with its
/// twiddle preloaded in the scratchpad.
pub fn build_bf_low_kernel(d: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("fft_bf{d}"));
    let input = b.stream("in", StreamKind::SeqIn);
    let out = b.stream("out", StreamKind::SeqOut);
    let ar = b.seq_read(input);
    let ai = b.seq_read(input);
    // Butterfly partner sits d lanes away in either direction: lane XOR d.
    let pr = b.comm_xor(d, ar);
    let pi = b.comm_xor(d, ai);
    // is_lower = (lane mod 2d) < d.
    let lane = b.lane_id();
    let mask = b.constant(2 * d - 1);
    let pos = b.and(lane, mask);
    let dconst = b.constant(d);
    let is_lower = b.lt(pos, dconst);
    // Lower output: a + partner.
    let sr = b.fadd(ar, pr);
    let si = b.fadd(ai, pi);
    // Upper output: (partner - a) * w(lane).
    let dr = b.fsub(pr, ar);
    let di = b.fsub(pi, ai);
    let addr_re = b.constant(low_stage_scratch_addr(d));
    let addr_im = b.constant(low_stage_scratch_addr(d) + 1);
    let wr = b.scratch_read(addr_re);
    let wi = b.scratch_read(addr_im);
    let q0 = b.fmul(dr, wr);
    let q1 = b.fmul(di, wi);
    let qr = b.fsub(q0, q1);
    let q2 = b.fmul(dr, wi);
    let q3 = b.fmul(di, wr);
    let qi = b.fadd(q2, q3);
    let or = b.select(is_lower, sr, qr);
    let oi = b.select(is_lower, si, qi);
    b.seq_write(out, or);
    b.seq_write(out, oi);
    b.build().expect("bf_low kernel is well-formed")
}

/// Setup kernel: read 6 per-lane constants (the low-stage twiddles) from a
/// stream and park them in the scratchpad.
pub fn build_scratch_init_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fft_scratch_init");
    let input = b.stream("consts", StreamKind::SeqIn);
    for a in 0..6u32 {
        let v = b.seq_read(input);
        let addr = b.constant(a);
        b.scratch_write(addr, v);
    }
    b.build().expect("scratch init kernel is well-formed")
}

/// The per-lane constant stream for [`build_scratch_init_kernel`]: for
/// each lane, the three low-stage upper twiddles (re, im).
pub fn low_stage_lane_constants(lanes: u32) -> Vec<Word> {
    let mut v = Vec::new();
    for lane in 0..lanes {
        for d in [4u32, 2, 1] {
            let posm = lane % (2 * d);
            let (wr, wi) = if posm >= d {
                twiddle(((posm - d) * (HALF / d)) as i32)
            } else {
                (1.0, 0.0) // unused on lower lanes
            };
            v.push(from_f32(wr));
            v.push(from_f32(wi));
        }
    }
    v
}

/// Second-dimension butterfly stage via in-lane indexed access (ISRF
/// configs): each cluster transforms its 8 resident columns, reading
/// element pairs and the twiddle table with indexed loads and writing
/// results with indexed stores.
pub fn build_bf_idx_kernel(d: u32) -> Kernel {
    let log_d = d.trailing_zeros();
    let mut b = KernelBuilder::new(format!("fft_idx_bf{d}"));
    let data = b.stream("data", StreamKind::IdxInRead); // record = complex
    let twt = b.stream("twt", StreamKind::IdxInRead); // 32-entry table
    let outw = b.stream("out", StreamKind::IdxInWrite); // word-granular
                                                        // iteration i -> column q = i / 32, butterfly j = i % 32.
    let i = b.iter_id();
    let c31 = b.constant(31);
    let c5 = b.constant(5);
    let j = b.and(i, c31);
    let q = b.shr(i, c5);
    // r_a = (j >> log_d) << (log_d + 1) | (j & (d-1)); r_b = r_a + d.
    let cld = b.constant(log_d);
    let cld1 = b.constant(log_d + 1);
    let dm1 = b.constant(d.wrapping_sub(1));
    let jd = b.shr(j, cld);
    let jm = b.and(j, dm1);
    let hi_part = b.shl(jd, cld1);
    let ra = b.or(hi_part, jm);
    let cd = b.constant(d);
    let rb = b.add(ra, cd);
    // Lane-local record index of (row, column q) is 8*row + q.
    let c3 = b.constant(3);
    let ra8 = b.shl(ra, c3);
    let rb8 = b.shl(rb, c3);
    let rec_a = b.or(ra8, q);
    let rec_b = b.or(rb8, q);
    // Twiddle exponent: (j & (d-1)) * (32 / d) = jm << (5 - log_d).
    let sh = b.constant(5 - log_d);
    let e = b.shl(jm, sh);
    let av = b.idx_load_record(data, rec_a, 2);
    let bv = b.idx_load_record(data, rec_b, 2);
    let wv = b.idx_load_record(twt, e, 2);
    let (ar, ai, br, bi, wr, wi) = (av[0], av[1], bv[0], bv[1], wv[0], wv[1]);
    let sr = b.fadd(ar, br);
    let si = b.fadd(ai, bi);
    let dr = b.fsub(ar, br);
    let di = b.fsub(ai, bi);
    let p0 = b.fmul(dr, wr);
    let p1 = b.fmul(di, wi);
    let pr = b.fsub(p0, p1);
    let p2 = b.fmul(dr, wi);
    let p3 = b.fmul(di, wr);
    let pi = b.fadd(p2, p3);
    // Word-granular indexed writes: record k occupies words 2k, 2k+1.
    let one = b.constant(1);
    let wa0 = b.shl(rec_a, one);
    let wa1 = b.or(wa0, one);
    let wb0 = b.shl(rec_b, one);
    let wb1 = b.or(wb0, one);
    b.idx_write(outw, wa0, sr);
    b.idx_write(outw, wa1, si);
    b.idx_write(outw, wb0, pr);
    b.idx_write(outw, wb1, pi);
    b.build().expect("bf_idx kernel is well-formed")
}

// ---------- memory layout & patterns ----------

const IN_BASE: u32 = 0;
const SCRATCH_BASE: u32 = 0x8_0000;
const OUT_BASE: u32 = 0x10_0000;
const CONST_BASE: u32 = 0x18_0000;

/// The list that moves stream record `i*64 + j`, two words, from or to
/// record `at(i, j)` of the array at `base`; a plan builds each once.
fn reorder(base: u32, at: impl Fn(u32, u32) -> u32) -> AddrPattern {
    let word = |w: u32| base + 2 * at(w / 2 / N, w / 2 % N) + w % 2;
    AddrPattern::Indexed((0..ELEMS * 2).map(word).collect())
}

/// Gather pattern for the Base reorder: new record `k*64 + r` reads stored
/// record `r*64 + bitrev(k)`.
fn transpose_gather_pattern(store_base: u32) -> AddrPattern {
    reorder(store_base, |k, r| r * N + bitrev6(k))
}

/// Gather for the Base output reorder: after pass 2 the stored record
/// `k*64 + r` holds G(bitrev(r), k); natural-order record `a*64 + k` is
/// therefore fetched from stored record `k*64 + bitrev(a)`.
fn base_unshuffle_gather(store_base: u32) -> AddrPattern {
    reorder(store_base, |a, k| k * N + bitrev6(a))
}

/// Final scatter for ISRF: stream record `r*64 + c` holds
/// G(bitrev(r), bitrev(c)).
fn isrf_output_scatter(out_base: u32) -> AddrPattern {
    reorder(out_base, |r, c| bitrev6(r) * N + bitrev6(c))
}

/// One period of a high stage's twiddle stream: record `j` is
/// `W^(j * 32/d)` for `j` in `0..d` (the kernels re-read it periodically).
fn high_stage_twiddles(d: u32) -> Vec<Word> {
    let scale = HALF / d;
    let mut v = Vec::with_capacity(2 * d as usize);
    for j in 0..d {
        let (wr, wi) = twiddle((j * scale) as i32);
        v.push(from_f32(wr));
        v.push(from_f32(wi));
    }
    v
}

/// In-lane twiddle table (32 entries, replicated per lane): lane-local
/// record `e` is `W^e`.
fn idx_twiddle_table_words(lanes: u32) -> Vec<Word> {
    let mut v = Vec::new();
    for e in 0..HALF {
        for _ in 0..lanes {
            let (wr, wi) = twiddle(e as i32);
            v.push(from_f32(wr));
            v.push(from_f32(wi));
        }
    }
    v
}

// ---------- the benchmark ----------

struct Setup {
    x: StreamBinding,
    y: StreamBinding,
    tw_high: Vec<StreamBinding>,
    tw_table: Option<StreamBinding>,
    /// The un-measured program that loads the twiddles and primes the
    /// scratchpads; the load runs it.
    program: StreamProgram,
}

/// Allocate the data and twiddle streams and build the setup program,
/// marking what it fills.
fn plan_setup(m: &mut Machine, indexed: bool) -> Setup {
    let lanes = m.config().lanes as u32;
    let x = m.alloc_stream(2, ELEMS);
    let y = m.alloc_stream(2, ELEMS);
    // One twiddle period per stage; the stage kernels re-read it with a
    // periodic (stride-0) window.
    let tw_high: Vec<StreamBinding> = [HALF, 16, 8]
        .iter()
        .map(|&d| m.alloc_stream(2, d))
        .collect();
    let tw_table = indexed.then(|| m.alloc_stream(2, HALF * lanes));
    let lane_consts = m.alloc_stream(6, lanes);

    let init = Arc::new(build_scratch_init_kernel());
    let init_sched = schedule_for(m, &init);
    let mut p = StreamProgram::new();
    for (i, (tw, d)) in tw_high.iter().zip([HALF, 16, 8]).enumerate() {
        p.load(
            AddrPattern::contiguous(CONST_BASE + (i as u32) * ELEMS, d * 2),
            *tw,
            false,
            &[],
        );
    }
    let lc = p.load(
        AddrPattern::contiguous(CONST_BASE + 3 * ELEMS, 6 * lanes),
        lane_consts,
        false,
        &[],
    );
    if let Some(t) = tw_table {
        // The memory image is already lane-replicated (entry e repeated
        // once per lane), so a contiguous load produces lane-local record
        // e == table entry e in every bank.
        p.load(
            AddrPattern::contiguous(CONST_BASE + 4 * ELEMS, HALF * lanes * 2),
            t,
            false,
            &[],
        );
    }
    p.kernel(Arc::clone(&init), init_sched, vec![lane_consts], 1, &[lc]);
    debug_assert_eq!(
        isrf_verify::Verifier::new().verify(m.config(), &m.verify_env(), &p),
        Ok(())
    );
    m.note_program_fills(&p);
    Setup {
        x,
        y,
        tw_high,
        tw_table,
        program: p,
    }
}

/// The load stage: input, twiddles and scratch constants in memory, then
/// the setup program, excluded from measurement.
fn load_and_set_up(m: &mut Machine, params: &Fft2dParams, setup: &StreamProgram) {
    let lanes = m.config().lanes as u32;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let input: Vec<Word> = (0..ELEMS * 2)
        .map(|_| from_f32(rng.gen_range(-1.0f32..1.0)))
        .collect();
    m.mem_mut().memory_mut().write_block(IN_BASE, &input);
    for (i, d) in [HALF, 16, 8].iter().enumerate() {
        m.mem_mut()
            .memory_mut()
            .write_block(CONST_BASE + (i as u32) * ELEMS, &high_stage_twiddles(*d));
    }
    m.mem_mut()
        .memory_mut()
        .write_block(CONST_BASE + 3 * ELEMS, &low_stage_lane_constants(lanes));
    m.mem_mut()
        .memory_mut()
        .write_block(CONST_BASE + 4 * ELEMS, &idx_twiddle_table_words(lanes));
    m.run(setup);
    m.reset_stats();
}

/// The plan of either version: `m` holds the setup's allocation, `p` is
/// the measured program; the load lays out memory and runs `setup`.
fn planned(m: Machine, p: StreamProgram, params: &Fft2dParams, setup: StreamProgram) -> Plan {
    let params = *params;
    let load = move |m: &mut Machine| load_and_set_up(m, &params, &setup);
    Plan::new(m, p, vec![(OUT_BASE, ELEMS * 2)], load, verify)
}

/// Append one pass of six sequential butterfly stages over `x`/`y`,
/// returning (final region holding the data, last kernel op).
#[allow(clippy::too_many_arguments)]
fn push_sequential_pass(
    p: &mut StreamProgram,
    su: &Setup,
    kernels: &SeqKernels,
    mut cur: StreamBinding,
    mut other: StreamBinding,
    dep: isrf_sim::ProgOpId,
) -> (StreamBinding, isrf_sim::ProgOpId) {
    let mut last = dep;
    for (si, d) in [HALF, 16, 8].iter().enumerate() {
        let d = *d;
        let runs = ELEMS / (2 * d);
        let a_in = StreamBinding::windowed(cur.range, 2, 0, d, 2 * d, runs);
        let b_in = StreamBinding::windowed(cur.range, 2, d, d, 2 * d, runs);
        let a_out = StreamBinding::windowed(other.range, 2, 0, d, 2 * d, runs);
        let b_out = StreamBinding::windowed(other.range, 2, d, d, 2 * d, runs);
        let tw_in = StreamBinding::windowed(su.tw_high[si].range, 2, 0, d, 0, runs);
        last = p.kernel(
            Arc::clone(&kernels.high[si].0),
            kernels.high[si].1.clone(),
            vec![a_in, b_in, tw_in, a_out, b_out],
            (ELEMS / 2 / 8) as u64,
            &[last],
        );
        std::mem::swap(&mut cur, &mut other);
    }
    for si in 0..3 {
        last = p.kernel(
            Arc::clone(&kernels.low[si].0),
            kernels.low[si].1.clone(),
            vec![cur, other],
            (ELEMS / 8) as u64,
            &[last],
        );
        std::mem::swap(&mut cur, &mut other);
    }
    (cur, last)
}

struct SeqKernels {
    high: Vec<(Arc<Kernel>, Arc<isrf_kernel::Schedule>)>,
    low: Vec<(Arc<Kernel>, Arc<isrf_kernel::Schedule>)>,
}

fn seq_kernels(m: &Machine) -> SeqKernels {
    let high = [HALF, 16, 8]
        .iter()
        .map(|&d| {
            let k = Arc::new(build_bf_high_kernel(d));
            let s = schedule_for(m, &k);
            (k, s)
        })
        .collect();
    let low = [4u32, 2, 1]
        .iter()
        .map(|&d| {
            let k = Arc::new(build_bf_low_kernel(d));
            let s = schedule_for(m, &k);
            (k, s)
        })
        .collect();
    SeqKernels { high, low }
}

/// The host check: the reference DFT of the input array, which survives
/// untouched at `IN_BASE`.
fn verify(m: &Machine) {
    let input: Vec<(f32, f32)> = (0..ELEMS as usize)
        .map(|e| {
            (
                f32::from_bits(m.mem().memory().read(IN_BASE + 2 * e as u32)),
                f32::from_bits(m.mem().memory().read(IN_BASE + 2 * e as u32 + 1)),
            )
        })
        .collect();
    let expect = reference_dft2d(&input);
    let scale = expect
        .iter()
        .map(|c| c.0.abs().max(c.1.abs()))
        .fold(1.0f32, f32::max);
    for (e, &(er, ei)) in expect.iter().enumerate() {
        let gr = f32::from_bits(m.mem().memory().read(OUT_BASE + 2 * e as u32));
        let gi = f32::from_bits(m.mem().memory().read(OUT_BASE + 2 * e as u32 + 1));
        let tol = 2e-3 * scale;
        assert!(
            (gr - er).abs() < tol && (gi - ei).abs() < tol,
            "element {e}: got ({gr}, {gi}), want ({er}, {ei}) (tol {tol})"
        );
    }
}

/// Plan the Base/Cache version (reorder through memory between
/// dimensions).
fn plan_base(cfg: &MachineConfig, params: &Fft2dParams) -> Plan {
    let mut m = machine(cfg);
    let cacheable = cfg.cache.is_some();
    let su = plan_setup(&mut m, false);
    let kernels = seq_kernels(&m);
    let (transpose, unshuffle) = (
        transpose_gather_pattern(SCRATCH_BASE),
        base_unshuffle_gather(SCRATCH_BASE),
    );

    let mut p = StreamProgram::new();
    let mut last_rep: Option<isrf_sim::ProgOpId> = None;
    for _ in 0..params.reps {
        let mut deps = Vec::new();
        if let Some(d) = last_rep {
            deps.push(d);
        }
        let load = p.load(
            AddrPattern::contiguous(IN_BASE, ELEMS * 2),
            su.x,
            false,
            &deps,
        );
        let (pos1, k1) = push_sequential_pass(&mut p, &su, &kernels, su.x, su.y, load);
        // Reorder #1 through memory: store + transposed/bit-reversal-
        // corrected gather (Figure 3a).
        let st = p.store(
            pos1,
            AddrPattern::contiguous(SCRATCH_BASE, ELEMS * 2),
            cacheable,
            &[k1],
        );
        let (dst, other) = if pos1 == su.x {
            (su.x, su.y)
        } else {
            (su.y, su.x)
        };
        let gt = p.load(transpose.clone(), dst, cacheable, &[st]);
        let (pos2, k2) = push_sequential_pass(&mut p, &su, &kernels, dst, other, gt);
        // Reorder #2: rotate back to natural row-major coefficient order,
        // again through memory.
        let st2 = p.store(
            pos2,
            AddrPattern::contiguous(SCRATCH_BASE, ELEMS * 2),
            cacheable,
            &[k2],
        );
        let dst2 = if pos2 == su.x { su.y } else { su.x };
        let gt2 = p.load(unshuffle.clone(), dst2, cacheable, &[st2]);
        let fin = p.store(
            dst2,
            AddrPattern::contiguous(OUT_BASE, ELEMS * 2),
            false,
            &[gt2],
        );
        last_rep = Some(fin);
    }
    planned(m, p, params, su.program)
}

/// Plan the ISRF version (second dimension in place via indexed access).
fn plan_isrf(cfg: &MachineConfig, params: &Fft2dParams) -> Plan {
    let mut m = machine(cfg);
    let su = plan_setup(&mut m, true);
    let kernels = seq_kernels(&m);
    let idx_kernels: Vec<(Arc<Kernel>, Arc<isrf_kernel::Schedule>)> = [HALF, 16, 8, 4, 2, 1]
        .iter()
        .map(|&d| {
            let k = Arc::new(build_bf_idx_kernel(d));
            let s = schedule_for(&m, &k);
            (k, s)
        })
        .collect();
    let twt = su.tw_table.expect("indexed setup allocates the table");
    let scatter = isrf_output_scatter(OUT_BASE);

    let mut p = StreamProgram::new();
    let mut last_rep: Option<isrf_sim::ProgOpId> = None;
    for _ in 0..params.reps {
        let mut deps = Vec::new();
        if let Some(d) = last_rep {
            deps.push(d);
        }
        let load = p.load(
            AddrPattern::contiguous(IN_BASE, ELEMS * 2),
            su.x,
            false,
            &deps,
        );
        let (pos1, k1) = push_sequential_pass(&mut p, &su, &kernels, su.x, su.y, load);
        // Second dimension: in-lane indexed stages, no memory reorder.
        let mut cur = pos1;
        let mut other = if pos1 == su.x { su.y } else { su.x };
        let mut last = k1;
        for (si, _) in [HALF, 16, 8, 4, 2, 1].iter().enumerate() {
            // Indexed write stream is word-granular over the output region.
            let out_words = StreamBinding::whole(other.range, 1, ELEMS * 2);
            last = p.kernel(
                Arc::clone(&idx_kernels[si].0),
                idx_kernels[si].1.clone(),
                vec![cur, twt, out_words],
                256, // 8 columns x 32 butterflies per cluster
                &[last],
            );
            std::mem::swap(&mut cur, &mut other);
        }
        let fin = p.store(cur, scatter.clone(), false, &[last]);
        last_rep = Some(fin);
    }
    planned(m, p, params, su.program)
}

/// Build the measured program, the un-measured setup program and their
/// machine's SRF allocation; the load lays out input and twiddles and runs
/// the setup. The check compares the result with the reference DFT.
pub fn plan(cfg: &MachineConfig, params: &Fft2dParams) -> Plan {
    if cfg.srf.indexed.is_some() {
        plan_isrf(cfg, params)
    } else {
        plan_base(cfg, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &Fft2dParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    #[test]
    fn host_dif_stages_match_reference_1d() {
        // Run the six DIF stages on one row; compare to a naive DFT with
        // bit-reversed output order.
        let mut rng = SmallRng::seed_from_u64(7);
        let x: Vec<(f32, f32)> = (0..N as usize)
            .map(|_| (rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)))
            .collect();
        let mut y = x.clone();
        for d in [32u32, 16, 8, 4, 2, 1] {
            host_dif_stage(&mut y, d);
        }
        for k in 0..N {
            let mut acc = (0.0f64, 0.0f64);
            for c in 0..N {
                let (xr, xi) = x[c as usize];
                let ang = -2.0 * std::f64::consts::PI * ((k * c) % N) as f64 / N as f64;
                acc.0 += xr as f64 * ang.cos() - xi as f64 * ang.sin();
                acc.1 += xr as f64 * ang.sin() + xi as f64 * ang.cos();
            }
            let got = y[bitrev6(k) as usize];
            assert!(
                (got.0 as f64 - acc.0).abs() < 1e-3 && (got.1 as f64 - acc.1).abs() < 1e-3,
                "k={k}: got {got:?}, want {acc:?}"
            );
        }
    }

    #[test]
    fn bitrev_is_an_involution() {
        for x in 0..N {
            assert_eq!(bitrev6(bitrev6(x)), x);
        }
        assert_eq!(bitrev6(1), 32);
        assert_eq!(bitrev6(0b000011), 0b110000);
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        for d in [32u32, 16, 8] {
            let k = build_bf_high_kernel(d);
            schedule_for(&m, &k);
        }
        for d in [4u32, 2, 1] {
            let k = build_bf_low_kernel(d);
            schedule_for(&m, &k);
        }
        for d in [32u32, 16, 8, 4, 2, 1] {
            let k = build_bf_idx_kernel(d);
            schedule_for(&m, &k);
        }
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &Fft2dParams { reps: 1, seed: 3 });
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &Fft2dParams { reps: 1, seed: 3 });
    }

    #[test]
    fn cache_functional() {
        run(ConfigName::Cache, &Fft2dParams { reps: 1, seed: 3 });
    }

    #[test]
    fn isrf1_functional_and_slower_than_isrf4() {
        let p = Fft2dParams { reps: 1, seed: 3 };
        let one = run(ConfigName::Isrf1, &p);
        let four = run(ConfigName::Isrf4, &p);
        // The indexed FFT stages use several indexed streams, so ISRF1's
        // single indexed word per cycle per lane costs SRF stalls.
        assert!(one.cycles >= four.cycles);
        assert!(one.breakdown.srf_stall > four.breakdown.srf_stall);
    }

    #[test]
    fn isrf_beats_base_with_less_traffic() {
        let params = Fft2dParams { reps: 2, seed: 5 };
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        let speedup = isrf.speedup_over(&base);
        assert!(speedup > 1.3, "speedup {speedup:.2} (paper: 2.24x)");
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.6, "traffic ratio {ratio:.3} (paper: ~0.33)");
    }
}
