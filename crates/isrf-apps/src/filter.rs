//! The Filter benchmark — Section 5.2: a 5×5 convolution over a 2D image.
//!
//! Both versions load the image in lane-blocked strips (each cluster owns
//! a few rows plus a 4-row halo), so off-chip traffic is identical —
//! Figure 11 shows no bandwidth gain for Filter. The difference is inside
//! the kernel loop:
//!
//! * **Base/Cache**: sequential access can't revisit rows, so the kernel
//!   streams its block once, copying pixels into a cluster-scratchpad ring
//!   and reading all 25 neighborhood values back from the scratchpad.
//!   The single scratchpad port and the ring-address arithmetic lengthen
//!   the loop (the paper's "complex state management").
//! * **ISRF**: the kernel simply reads the 25 neighbors from the SRF with
//!   in-lane indexed accesses spread over four indexed streams — Filter is
//!   one of the two benchmarks that exercise multiple indexed streams,
//!   which is why it distinguishes ISRF1 from ISRF4 (Figure 12).
//!
//! Image streams have no temporal locality through memory, so loads are
//! marked non-cacheable (the paper's cache policy) and `Cache` behaves
//! exactly like `Base`. Results are verified against a direct convolution.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::{as_f32, from_f32, Word};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind, ValueId};
use isrf_sim::{Machine, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{lane_block_load, lane_block_store, machine, schedule_for, Plan};

/// Image width in pixels (fixed; rows are configurable).
pub const COLS: u32 = 256;
/// Output rows each lane computes per strip.
const B: u32 = 4;
/// Input rows per lane block (output rows + 4-row halo).
const BLOCK_ROWS: u32 = B + 4;
/// Output rows per strip (8 lanes × B).
const STRIP_ROWS: u32 = 8 * B;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterParams {
    /// Image height; must be a multiple of 32. The paper uses 256.
    pub rows: u32,
    /// RNG seed for the image.
    pub seed: u64,
}

impl Default for FilterParams {
    fn default() -> Self {
        FilterParams {
            rows: 64,
            seed: 0x5eed_0003,
        }
    }
}

/// The 5×5 filter taps (a separable \[1,2,3,2,1\] blur, normalized).
pub fn taps() -> [[f32; 5]; 5] {
    let v = [1.0f32, 2.0, 3.0, 2.0, 1.0];
    let norm: f32 = 81.0;
    let mut w = [[0.0; 5]; 5];
    for (i, wi) in w.iter_mut().enumerate() {
        for (j, wij) in wi.iter_mut().enumerate() {
            *wij = v[i] * v[j] / norm;
        }
    }
    w
}

const IN_BASE: u32 = 0;
const OUT_BASE: u32 = 0x40_0000;

/// Reference: `out(row, x)` for `x >= 4` is the filter centered at
/// `(row, x-2)` with rows clamped to the image and columns windowed
/// `[x-4, x]`.
pub fn reference(img: &[f32], rows: u32) -> Vec<f32> {
    let w = taps();
    let mut out = vec![0.0f32; (rows * COLS) as usize];
    for r in 0..rows {
        for x in 4..COLS {
            let mut acc = 0.0f32;
            for (dy, wrow) in w.iter().enumerate() {
                let rr = (r as i32 + dy as i32 - 2).clamp(0, rows as i32 - 1) as u32;
                for (dx, &wv) in wrow.iter().enumerate() {
                    let cc = x - 4 + dx as u32;
                    acc += wv * img[(rr * COLS + cc) as usize];
                }
            }
            out[(r * COLS + x) as usize] = acc;
        }
    }
    out
}

/// Accumulate the 25 multiply-adds over value ids `v[dy][dx]`.
fn mac25(b: &mut KernelBuilder, v: &[[ValueId; 5]; 5]) -> ValueId {
    let w = taps();
    let mut acc: Option<ValueId> = None;
    for (dy, row) in v.iter().enumerate() {
        for (dx, &val) in row.iter().enumerate() {
            let c = b.constant_f(w[dy][dx]);
            let m = b.fmul(val, c);
            acc = Some(match acc {
                None => m,
                Some(a) => b.fadd(a, m),
            });
        }
    }
    acc.expect("25 taps")
}

/// Base kernel: stream the block once, mirror it into the scratchpad, and
/// read neighborhoods back through the single scratchpad port.
pub fn build_base_kernel() -> Kernel {
    let mut b = KernelBuilder::new("filter_base");
    let input = b.stream("in", StreamKind::SeqIn);
    let out = b.stream("out", StreamKind::SeqOut);
    // Iteration i -> input pixel (ly = i >> 8, x = i & 255).
    let i = b.iter_id();
    let c8 = b.constant(8);
    let cff = b.constant(0xff);
    let ly = b.shr(i, c8);
    let x = b.and(i, cff);
    let p = b.seq_read(input);
    // Park the new pixel: scratch[ly*256 + x] (the block fits whole).
    let row_off = b.shl(ly, c8);
    let waddr = b.or(row_off, x);
    b.scratch_write(waddr, p);
    // Read the 25-neighborhood of centre (ly-2, x-2): rows ly-4..ly,
    // cols x-4..x (garbage during the 4-row prime, discarded by the store).
    let mut vals = [[ValueId(0); 5]; 5];
    for dy in 0..5u32 {
        let cdy = b.constant((4 - dy) << 8);
        let rbase = b.sub(row_off, cdy);
        for dx in 0..5u32 {
            let ck = b.constant(4 - dx);
            let col = b.sub(x, ck);
            let addr = b.add(rbase, col);
            vals[dy as usize][dx as usize] = b.scratch_read(addr);
        }
    }
    let acc = mac25(&mut b, &vals);
    b.seq_write(out, acc);
    b.build().expect("filter base kernel is well-formed")
}

/// ISRF kernel: read the 25 neighbors straight from the SRF block with
/// in-lane indexed accesses over four streams.
pub fn build_isrf_kernel() -> Kernel {
    let mut b = KernelBuilder::new("filter_isrf");
    let imgs: Vec<_> = (0..4)
        .map(|k| b.stream(format!("img{k}"), StreamKind::IdxInRead))
        .collect();
    let out = b.stream("out", StreamKind::SeqOut);
    // Iteration i -> output pixel (ly = i >> 8, x = i & 255); the filter
    // centre is (ly + 2, x - 2), i.e. block rows ly..ly+5, cols x-4..x.
    let i = b.iter_id();
    let c8 = b.constant(8);
    let cff = b.constant(0xff);
    let ly = b.shr(i, c8);
    let x = b.and(i, cff);
    let row0 = b.shl(ly, c8);
    let zero = b.constant(0);
    let mut vals = [[ValueId(0); 5]; 5];
    for dy in 0..5u32 {
        let cdy = b.constant(dy << 8);
        let rbase = b.add(row0, cdy);
        for dx in 0..5u32 {
            let ck = b.constant(4 - dx);
            let cs = b.sub(x, ck);
            // Clamp the don't-care columns of the skew region (x < 4) so
            // the address stays in range.
            let col = b.max(cs, zero);
            let addr = b.add(rbase, col);
            let stream = imgs[((dy * 5 + dx) % 4) as usize];
            vals[dy as usize][dx as usize] = b.idx_load(stream, addr);
        }
    }
    let acc = mac25(&mut b, &vals);
    b.seq_write(out, acc);
    b.build().expect("filter ISRF kernel is well-formed")
}

/// The load stage: the seeded image at `IN_BASE`.
fn load_image(m: &mut Machine, params: &FilterParams) {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let words: Vec<Word> = (0..params.rows * COLS)
        .map(|_| from_f32(rng.gen_range(0.0f32..1.0)))
        .collect();
    m.mem_mut().memory_mut().write_block(IN_BASE, &words);
}

fn verify(m: &Machine, rows: u32) {
    // The input image survives untouched at IN_BASE; read it back rather
    // than threading it through the prepare/run split.
    let img: Vec<f32> = (0..rows * COLS)
        .map(|i| as_f32(m.mem().memory().read(IN_BASE + i)))
        .collect();
    let expect = reference(&img, rows);
    for r in 0..rows {
        for x in 4..COLS {
            let got = as_f32(m.mem().memory().read(OUT_BASE + r * COLS + x));
            let want = expect[(r * COLS + x) as usize];
            assert!(
                (got - want).abs() < 1e-3,
                "pixel ({r}, {x}): got {got}, want {want}"
            );
        }
    }
}

/// Build the measured program and its machine's SRF allocation; the load
/// lays out the image. The check compares the image with a direct
/// convolution.
///
/// # Panics
///
/// Panics if `params.rows` is not a positive multiple of the strip height.
pub fn plan(cfg: &MachineConfig, params: &FilterParams) -> Plan {
    assert!(
        params.rows.is_multiple_of(STRIP_ROWS) && params.rows >= STRIP_ROWS,
        "rows must be a multiple of {STRIP_ROWS}"
    );
    let indexed = cfg.srf.indexed.is_some();
    let mut m = if indexed {
        machine(cfg)
    } else {
        // The baseline parks a whole lane-block in the scratchpad; give it
        // the capacity (this only ever helps the baseline).
        let mut c = cfg.clone();
        c.scratchpad_words = (BLOCK_ROWS * COLS) as usize;
        machine(&c)
    };

    let kernel = Arc::new(if indexed {
        build_isrf_kernel()
    } else {
        build_base_kernel()
    });
    let sched = schedule_for(&m, &kernel);

    // SRF streams: input block region and output row records.
    let input = m.alloc_stream(BLOCK_ROWS * COLS, 8);
    let out_rows = if indexed { B } else { BLOCK_ROWS };
    let output = m.alloc_stream(COLS, 8 * out_rows);

    let mut p = StreamProgram::new();
    let mut prev: Option<isrf_sim::ProgOpId> = None;
    for strip in 0..params.rows / STRIP_ROWS {
        let row0 = strip * STRIP_ROWS;
        let mut deps: Vec<isrf_sim::ProgOpId> = Vec::new();
        if let Some(pk) = prev {
            deps.push(pk);
        }
        let pattern = lane_block_load(IN_BASE, COLS, B, 2, row0, params.rows);
        let load = p.load(pattern, input, false, &deps);
        let bindings = if indexed {
            // Four in-lane indexed views of the block + the output.
            let view = isrf_sim::StreamBinding::whole(input.range, 1, BLOCK_ROWS * COLS * 8);
            vec![view, view, view, view, output]
        } else {
            vec![input, output]
        };
        let iters = if indexed { B * COLS } else { BLOCK_ROWS * COLS } as u64;
        let k = p.kernel(Arc::clone(&kernel), sched.clone(), bindings, iters, &[load]);
        // Store only the valid rows: for Base the first 4 per lane are the
        // scratch-priming skew, for ISRF everything is valid.
        let window = output.slice(if indexed { 0 } else { 4 * 8 }, B * 8);
        let pattern = lane_block_store(OUT_BASE, COLS, B, row0);
        let st = p.store(window, pattern, false, &[k]);
        prev = Some(st);
    }
    let (params, rows) = (*params, params.rows);
    let load = move |m: &mut Machine| load_image(m, &params);
    Plan::new(m, p, vec![(OUT_BASE, rows * COLS)], load, move |m| {
        verify(m, rows)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &FilterParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    fn small() -> FilterParams {
        FilterParams { rows: 32, seed: 11 }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_isrf_kernel());
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_base_kernel());
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &small());
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &small());
    }

    #[test]
    fn isrf_shortens_kernel_loop_with_equal_traffic() {
        let params = small();
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        let speedup = isrf.speedup_over(&base);
        assert!(
            speedup > 1.02 && speedup < 2.0,
            "speedup {speedup:.2} (paper: ~1.2x from loop-body reduction)"
        );
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(
            (0.85..=1.15).contains(&ratio),
            "traffic ratio {ratio:.3} (paper: ~1.0)"
        );
        assert!(
            isrf.breakdown.kernel_loop < base.breakdown.kernel_loop,
            "ISRF loop {} vs base {}",
            isrf.breakdown.kernel_loop,
            base.breakdown.kernel_loop
        );
    }

    #[test]
    fn isrf1_stalls_more_than_isrf4() {
        // Filter uses multiple indexed streams, so ISRF1's single indexed
        // word per cycle per lane is a real bottleneck (Figure 12).
        let params = small();
        let isrf1 = run(ConfigName::Isrf1, &params);
        let isrf4 = run(ConfigName::Isrf4, &params);
        assert!(
            isrf1.breakdown.srf_stall > isrf4.breakdown.srf_stall,
            "ISRF1 stalls {} vs ISRF4 {}",
            isrf1.breakdown.srf_stall,
            isrf4.breakdown.srf_stall
        );
        assert!(isrf4.cycles <= isrf1.cycles);
    }
}
