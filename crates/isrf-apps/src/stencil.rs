//! 2D stencil suite (5-point and 9-point) — the workload the SARIS line
//! of work accelerates with indirect stream registers (see PAPERS.md).
//!
//! A radius-1 stencil over a `rows × 64` grid with clamped boundaries,
//! run as a two-pass pipeline: pass 1 applies the 5-point star to the
//! input grid, pass 2 applies the 9-point box to pass 1's output. Both
//! variants process the grid in 32-row strips:
//!
//! * **Base/Cache**: one sequential input stream *per tap* — the memory
//!   system streams a shifted, boundary-clamped copy of the grid for
//!   every neighbor offset, so the kernel is a pure weighted sum but
//!   every interior word crosses the memory system 5 (or 9) times.
//! * **ISRF**: each lane keeps a block of `B` output rows plus a one-row
//!   halo resident in its SRF bank across the whole strip, and the
//!   kernel reaches all taps with **in-lane** indexed reads (four
//!   indexed streams, like Filter) — each word is loaded once per pass,
//!   and the halo rows are reused in-lane across strip iterations.
//!
//! Tap order and weights are fixed, the kernel accumulates in that exact
//! order, and the host reference mirrors it, so results are compared
//! **bit-for-bit**. The grid generator is deterministic in the seed.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::{as_f32, from_f32, Word};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_kernel::sched::Schedule;
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, ProgOpId, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{lane_block_load, lane_block_store, machine, schedule_for, Plan, Prepared};

/// Grid width in words (fixed; rows are configurable).
pub const COLS: u32 = 64;
/// Output rows each lane computes per strip.
const B: u32 = 4;
/// Input rows per lane block (output rows + one-row halo on each side).
const BLOCK_ROWS: u32 = B + 2;
/// Grid rows per strip (8 lanes × B).
pub const STRIP_ROWS: u32 = 8 * B;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilParams {
    /// Grid height; a positive multiple of 32.
    pub rows: u32,
    /// RNG seed for the grid.
    pub seed: u64,
}

impl Default for StencilParams {
    fn default() -> Self {
        StencilParams {
            rows: 64,
            seed: 0x5eed_0021,
        }
    }
}

const IN_BASE: u32 = 0;
const MID_BASE: u32 = 0x20_0000; // 5-point output, 9-point input
const OUT_BASE: u32 = 0x40_0000; // 9-point output

/// The tap set `(dy, dx, weight)` in the fixed accumulation order both
/// the kernels and the host reference use.
///
/// # Panics
///
/// Panics unless `points` is 5 or 9.
pub fn taps(points: u32) -> Vec<(i32, i32, f32)> {
    match points {
        5 => vec![
            (-1, 0, 0.125),
            (0, -1, 0.125),
            (0, 0, 0.5),
            (0, 1, 0.125),
            (1, 0, 0.125),
        ],
        9 => (-1..=1)
            .flat_map(|dy: i32| {
                (-1..=1).map(move |dx: i32| {
                    let w = match dy.abs() + dx.abs() {
                        0 => 0.25,
                        1 => 0.125,
                        _ => 0.0625,
                    };
                    (dy, dx, w)
                })
            })
            .collect(),
        other => panic!("stencil suite has 5- and 9-point kernels, not {other}"),
    }
}

/// Host reference for one pass, mirroring the kernel's accumulation
/// order bit-for-bit (boundary rows and columns clamped to the grid).
pub fn reference(grid: &[f32], rows: u32, points: u32) -> Vec<f32> {
    let t = taps(points);
    let mut out = vec![0.0f32; (rows * COLS) as usize];
    for r in 0..rows as i32 {
        for c in 0..COLS as i32 {
            let mut acc: Option<f32> = None;
            for &(dy, dx, w) in &t {
                let rr = (r + dy).clamp(0, rows as i32 - 1);
                let cc = (c + dx).clamp(0, COLS as i32 - 1);
                let m = grid[(rr as u32 * COLS + cc as u32) as usize] * w;
                acc = Some(match acc {
                    None => m,
                    Some(a) => a + m,
                });
            }
            out[(r as u32 * COLS + c as u32) as usize] = acc.expect("taps");
        }
    }
    out
}

/// ISRF kernel: iteration `i` emits output pixel `(ly = i >> 6,
/// x = i & 63)` of the lane's block, reading all taps from the resident
/// block (rows `ly .. ly+3`, the centre being halo-offset row `ly + 1`)
/// with in-lane indexed accesses over four streams. Columns are clamped
/// in-kernel; rows are clamped by the host load pattern.
pub fn build_isrf_kernel(points: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("stencil{points}_isrf"));
    let imgs: Vec<_> = (0..4)
        .map(|k| b.stream(format!("img{k}"), StreamKind::IdxInRead))
        .collect();
    let out = b.stream("out", StreamKind::SeqOut);

    let i = b.iter_id();
    let c6 = b.constant(6);
    let c63 = b.constant(63);
    let c1 = b.constant(1);
    let zero = b.constant(0);
    let ly = b.shr(i, c6);
    let x = b.and(i, c63);
    let row0 = b.shl(ly, c6);
    // Clamped columns for dx = -1, 0, +1.
    let xm = b.sub(x, c1);
    let xp = b.add(x, c1);
    let cols = [b.max(xm, zero), x, b.min(xp, c63)];
    // Block-row offsets for dy = -1, 0, +1 (centre is block row ly + 1).
    let rbases: Vec<_> = (0..3u32)
        .map(|k| {
            let c = b.constant(k * COLS);
            b.add(row0, c)
        })
        .collect();

    let mut acc = None;
    for (t, &(dy, dx, w)) in taps(points).iter().enumerate() {
        let addr = b.add(rbases[(dy + 1) as usize], cols[(dx + 1) as usize]);
        let v = b.idx_load(imgs[t % 4], addr);
        let c = b.constant_f(w);
        let m = b.fmul(v, c);
        acc = Some(match acc {
            None => m,
            Some(a) => b.fadd(a, m),
        });
    }
    b.seq_write(out, acc.expect("taps"));
    b.build().expect("stencil ISRF kernel is well-formed")
}

/// Base kernel: one pre-shifted sequential stream per tap; the kernel is
/// the bare weighted sum.
pub fn build_base_kernel(points: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("stencil{points}_base"));
    let t = taps(points);
    let ins: Vec<_> = (0..t.len())
        .map(|k| b.stream(format!("t{k}"), StreamKind::SeqIn))
        .collect();
    let out = b.stream("out", StreamKind::SeqOut);
    let mut acc = None;
    for (k, &(_, _, w)) in t.iter().enumerate() {
        let v = b.seq_read(ins[k]);
        let c = b.constant_f(w);
        let m = b.fmul(v, c);
        acc = Some(match acc {
            None => m,
            Some(a) => b.fadd(a, m),
        });
    }
    b.seq_write(out, acc.expect("taps"));
    b.build().expect("stencil base kernel is well-formed")
}

/// Base load pattern for one tap: record `r` is strip row `row0 + r`
/// shifted by `(dy, dx)` and clamped to the grid.
fn shifted_load_pattern(base: u32, row0: u32, rows: u32, dy: i32, dx: i32) -> AddrPattern {
    let at = |i: u32| {
        let row = ((row0 + i / COLS) as i32 + dy).clamp(0, rows as i32 - 1) as u32;
        let col = ((i % COLS) as i32 + dx).clamp(0, COLS as i32 - 1) as u32;
        base + row * COLS + col
    };
    AddrPattern::Indexed((0..STRIP_ROWS * COLS).map(at).collect())
}

/// The SRF stream pool, shared by both passes (the suite's passes are
/// fully serialized by dependencies, so reuse is hazard-free).
struct Streams {
    /// Base: one sequential stream per tap (9 covers both passes).
    ins: Vec<StreamBinding>,
    /// ISRF: the per-lane resident block.
    block: Option<StreamBinding>,
    /// Output rows (row records for Base, `l + 8*j` records for ISRF).
    out: StreamBinding,
}

fn alloc_streams(m: &mut Machine, indexed: bool) -> Streams {
    if indexed {
        Streams {
            ins: Vec::new(),
            block: Some(m.alloc_stream(BLOCK_ROWS * COLS, 8)),
            out: m.alloc_stream(COLS, STRIP_ROWS),
        }
    } else {
        Streams {
            ins: (0..9).map(|_| m.alloc_stream(COLS, STRIP_ROWS)).collect(),
            block: None,
            out: m.alloc_stream(COLS, STRIP_ROWS),
        }
    }
}

/// Emit one full pass (`in_base` → `out_base`) into `p`; returns the
/// pass's store ops (the barrier for a dependent pass).
#[allow(clippy::too_many_arguments)]
fn emit_pass(
    p: &mut StreamProgram,
    indexed: bool,
    rows: u32,
    points: u32,
    kernel: &Arc<Kernel>,
    sched: &Arc<Schedule>,
    streams: &Streams,
    in_base: u32,
    out_base: u32,
    deps: &[ProgOpId],
) -> Vec<ProgOpId> {
    let t = taps(points);
    let mut stores = Vec::new();
    let mut prev: Option<ProgOpId> = None;
    for strip in 0..rows / STRIP_ROWS {
        let row0 = strip * STRIP_ROWS;
        let mut ldeps: Vec<ProgOpId> = deps.to_vec();
        if let Some(pk) = prev {
            ldeps.push(pk);
        }
        let (loads, bindings, iters) = if indexed {
            let block = streams.block.expect("indexed pool has a block");
            let load = p.load(
                lane_block_load(in_base, COLS, B, 1, row0, rows),
                block,
                false,
                &ldeps,
            );
            // Four in-lane indexed views of the block + the output.
            let view = StreamBinding::whole(block.range, 1, BLOCK_ROWS * COLS * 8);
            (
                vec![load],
                vec![view, view, view, view, streams.out],
                (B * COLS) as u64,
            )
        } else {
            let mut loads = Vec::with_capacity(t.len());
            let mut bindings = Vec::with_capacity(t.len() + 1);
            for (k, &(dy, dx, _)) in t.iter().enumerate() {
                loads.push(p.load(
                    shifted_load_pattern(in_base, row0, rows, dy, dx),
                    streams.ins[k],
                    false,
                    &ldeps,
                ));
                bindings.push(streams.ins[k]);
            }
            bindings.push(streams.out);
            (loads, bindings, (STRIP_ROWS * COLS / 8) as u64)
        };
        let k = p.kernel(
            Arc::clone(kernel),
            Arc::clone(sched),
            bindings,
            iters,
            &loads,
        );
        let pattern = if indexed {
            lane_block_store(out_base, COLS, B, row0)
        } else {
            AddrPattern::contiguous(out_base + row0 * COLS, STRIP_ROWS * COLS)
        };
        let st = p.store(streams.out, pattern, false, &[k]);
        stores.push(st);
        prev = Some(st);
    }
    stores
}

/// The load stage: the seeded grid at `IN_BASE`.
fn load_grid(m: &mut Machine, params: &StencilParams) {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let words: Vec<Word> = (0..params.rows * COLS)
        .map(|_| from_f32(rng.gen_range(0.0f32..1.0)))
        .collect();
    m.mem_mut().memory_mut().write_block(IN_BASE, &words);
}

/// Build `passes` — `(points, input base, output base)`, each depending
/// on the one before — and their machine's SRF allocation; the load lays
/// out the grid. The check holds every pass's output bit-for-bit to the
/// mirrored host reference of its input grid as memory holds it after the
/// run.
fn plan_passes(cfg: &MachineConfig, params: &StencilParams, passes: Vec<(u32, u32, u32)>) -> Plan {
    assert!(
        params.rows.is_multiple_of(STRIP_ROWS) && params.rows >= STRIP_ROWS,
        "rows must be a positive multiple of {STRIP_ROWS}"
    );
    let indexed = cfg.srf.indexed.is_some();
    let mut m = machine(cfg);
    let kernels: Vec<_> = passes
        .iter()
        .map(|&(points, ..)| {
            let k = Arc::new(if indexed {
                build_isrf_kernel(points)
            } else {
                build_base_kernel(points)
            });
            let s = schedule_for(&m, &k);
            (k, s)
        })
        .collect();
    let streams = alloc_streams(&mut m, indexed);

    let rows = params.rows;
    let mut p = StreamProgram::new();
    let mut barrier = Vec::new();
    for (&(points, in_base, out_base), (k, s)) in passes.iter().zip(&kernels) {
        barrier = emit_pass(
            &mut p, indexed, rows, points, k, s, &streams, in_base, out_base, &barrier,
        );
    }
    let words = (rows * COLS) as usize;
    let outputs = passes.iter().map(|&(.., out)| (out, rows * COLS)).collect();
    let params = *params;
    let load = move |m: &mut Machine| load_grid(m, &params);
    Plan::new(m, p, outputs, load, move |m| {
        for &(points, in_base, out_base) in &passes {
            let grid: Vec<f32> = m
                .mem()
                .memory()
                .read_block(in_base, words)
                .into_iter()
                .map(as_f32)
                .collect();
            for (i, &e) in reference(&grid, rows, points).iter().enumerate() {
                let got = m.mem().memory().read(out_base + i as u32);
                assert_eq!(
                    got,
                    from_f32(e),
                    "word {i} at {out_base:#x}: got {:?}, want {e:?} (bit-exact mirror)",
                    as_f32(got)
                );
            }
        }
    })
}

/// Plan the full two-pass suite (5-point on the input grid, 9-point on
/// its output); both pass outputs are checked.
///
/// # Panics
///
/// Panics if `params.rows` is not a positive multiple of 32.
pub fn plan(cfg: &MachineConfig, params: &StencilParams) -> Plan {
    plan_passes(
        cfg,
        params,
        vec![(5, IN_BASE, MID_BASE), (9, MID_BASE, OUT_BASE)],
    )
}

/// Set up a single pass (5- or 9-point, input grid → `OUT_BASE`) — the
/// smallest traceable unit, used by the golden trace test.
///
/// # Panics
///
/// Panics if `params.rows` is not a positive multiple of 32 or `points`
/// is not 5 or 9.
pub fn prepare_pass(cfg: &MachineConfig, params: &StencilParams, points: u32) -> Prepared {
    plan_passes(cfg, params, vec![(points, IN_BASE, OUT_BASE)]).load()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &StencilParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    fn small() -> StencilParams {
        StencilParams { rows: 32, seed: 13 }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_isrf_kernel(5));
        schedule_for(&m, &build_isrf_kernel(9));
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_base_kernel(5));
        schedule_for(&m, &build_base_kernel(9));
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
    fn cache_functional() {
        run(ConfigName::Cache, &small());
    }

    #[test]
    fn single_pass_matches_reference() {
        for points in [5, 9] {
            prepare_pass(&ConfigName::Isrf4.into(), &small(), points).run_checked();
        }
    }

    #[test]
    fn isrf_cuts_traffic_by_tap_reuse() {
        // Base streams a shifted grid copy per tap; ISRF loads each word
        // once per pass (plus the halo). 14 taps of traffic vs ~2 passes.
        let params = small();
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.5, "traffic ratio {ratio:.3}");
        assert!(isrf.srf.inlane_words > 0, "taps are in-lane indexed reads");
        assert_eq!(isrf.srf.crosslane_words, 0);
    }
}
