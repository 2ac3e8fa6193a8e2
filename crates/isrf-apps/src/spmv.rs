//! Sparse matrix-vector product (SpMV) over CSR — the sparse-dense
//! workload the Sparse-SSR line of work targets with indirect stream
//! registers (see PAPERS.md).
//!
//! `y = A * x` with `A` in compressed-sparse-row form. Rows are processed
//! in strips of `strip_rows` (one row per lane per kernel iteration); the
//! host pads every row to a common entry count `pad` (a multiple of 4) so
//! the kernel loop is regular, and prepares per-strip gather metadata:
//!
//! * **Base/Cache**: the memory system gathers `x[col]` for every stored
//!   entry individually (the replicated gather); an `x` entry referenced
//!   by several rows of the strip is fetched — and parked in the SRF —
//!   once *per reference*.
//! * **ISRF**: only the strip's *unique* referenced `x` entries are
//!   gathered into a condensed array; the kernel reaches them through the
//!   **cross-lane** index network, driven by a host-prepared pointer
//!   stream into the condensed array (row entries live in whichever bank
//!   holds the unique record, not the row's lane).
//!
//! Padding entries carry a 0.0 matrix value, so empty and short rows are
//! handled with no control flow. Base and Cache gather `x[0]` for a pad;
//! an indexed SRF re-reads the row's last `x` entry, or an empty row's
//! sentinel record 0, `x[0]` (`gather::condense`). Either way a
//! pad adds a zero to an accumulator that is never −0.0 (it starts at
//! +0.0 and no `x` entry is −0.0), which leaves it unchanged bit for bit.
//! The host reference mirrors the padded accumulation order exactly, so
//! results are compared **bit-for-bit**.
//!
//! The generator is deterministic in the parameter struct: banded random
//! matrices with controllable density (`avg_nnz`), locality
//! (`bandwidth`), and a controllable fraction of entirely empty rows.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::{from_f32, Word};
use isrf_core::Memo;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, memoized, Plan, Prepared};
use crate::gather::{condense, load_pointers, Condensed, Gather, Layout, Strips};

/// Benchmark sizing and matrix-shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvParams {
    /// Matrix dimension (square, `rows` = `cols`); must be a multiple of
    /// `strip_rows`.
    pub rows: u32,
    /// Average stored entries per non-empty row (density knob).
    pub avg_nnz: u32,
    /// Column half-bandwidth: row `i` references columns within
    /// `i ± bandwidth` (modulo `rows`) — the locality the condensed
    /// gather exploits.
    pub bandwidth: u32,
    /// Percentage (0–100) of rows left entirely empty.
    pub empty_pct: u32,
    /// Rows per strip; a multiple of 8 dividing `rows`.
    pub strip_rows: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpmvParams {
    fn default() -> Self {
        SpmvParams {
            rows: 512,
            avg_nnz: 8,
            bandwidth: 48,
            empty_pct: 10,
            strip_rows: 64,
            seed: 0x5eed_0020,
        }
    }
}

/// A CSR matrix with f32 values. `row_ptr` has `rows + 1` entries;
/// row `i`'s stored entries are `col_idx[row_ptr[i]..row_ptr[i+1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row count.
    pub rows: u32,
    /// Column count (the length of `x`).
    pub cols: u32,
    /// Row start offsets, `rows + 1` entries.
    pub row_ptr: Vec<u32>,
    /// Column index per stored entry.
    pub col_idx: Vec<u32>,
    /// Value per stored entry.
    pub vals: Vec<f32>,
}

impl Csr {
    /// Stored entries in row `i`.
    pub fn row(&self, i: u32) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[i as usize] as usize;
        let hi = self.row_ptr[i as usize + 1] as usize;
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The largest row length.
    pub fn max_nnz(&self) -> u32 {
        (0..self.rows)
            .map(|i| self.row(i).0.len() as u32)
            .max()
            .unwrap_or(0)
    }
}

/// Deterministic banded sparse matrix + dense vector for `params`.
///
/// Column indices are drawn from the band `i ± bandwidth` (mod `rows`),
/// deduplicated and sorted per row; values and `x` entries are bounded
/// away from zero so every product is informative.
pub fn generate(params: &SpmvParams) -> (Csr, Vec<f32>) {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let n = params.rows;
    let mut row_ptr = Vec::with_capacity(n as usize + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        if rng.gen_range(0u32..100) >= params.empty_pct {
            let want = rng.gen_range(1..=2 * params.avg_nnz.max(1) - 1);
            let mut cols: Vec<u32> = (0..want)
                .map(|_| {
                    let off = rng.gen_range(-(params.bandwidth as i32)..=params.bandwidth as i32);
                    (i as i32 + off).rem_euclid(n as i32) as u32
                })
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col_idx.push(c);
                vals.push(rng.gen_range(0.1f32..1.0));
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    let x = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let csr = Csr {
        rows: n,
        cols: n,
        row_ptr,
        col_idx,
        vals,
    };
    (csr, x)
}

type GenKey = (u64, u32, u32, u32, u32, u32);

fn gen_key(p: &SpmvParams) -> GenKey {
    (
        p.seed,
        p.rows,
        p.avg_nnz,
        p.bandwidth,
        p.empty_pct,
        p.strip_rows,
    )
}

/// Matrices kept: every workload and tool makes one per profile, this
/// crate's unit tests four.
const MATRIX_BUDGET: u64 = 16;

/// A matrix and its `x`, with the matrix padded and condensed per strip
/// for the gather: what every configuration of a parameter point shares.
struct Matrix {
    data: Arc<(Csr, Vec<f32>)>,
    strip_rows: u32,
    pad: u32,
    strips: Vec<Condensed>,
}

impl Matrix {
    /// Check `(csr, x)` as [`prepare_csr`] documents, then condense it.
    fn new(data: Arc<(Csr, Vec<f32>)>, strip_rows: u32) -> Matrix {
        let (csr, x) = (&data.0, &data.1);
        assert!(strip_rows.is_multiple_of(8) && strip_rows > 0);
        assert!(csr.rows.is_multiple_of(strip_rows) && csr.rows > 0);
        assert_eq!(x.len() as u32, csr.cols);
        assert!(
            csr.col_idx.iter().all(|&c| c < csr.cols),
            "column out of range"
        );
        assert!(
            x.iter().all(|v| v.is_finite()),
            "x holds a non-finite entry"
        );
        let pad = pad_of(csr);
        let strips = condense_strips(csr, strip_rows, pad);
        Matrix {
            data,
            strip_rows,
            pad,
            strips,
        }
    }
}

/// [`generate`] and [`condense_strips`], memoized: every configuration
/// (and the host reference) of a parameter point shares one matrix.
fn matrix_cached(params: &SpmvParams) -> Arc<Matrix> {
    static MATRICES: Memo<GenKey, Matrix> = Memo::new(MATRIX_BUDGET);
    memoized(&MATRICES, gen_key(params), || {
        Matrix::new(Arc::new(generate(params)), params.strip_rows)
    })
}

/// Common padded row length for `csr`: the longest row, rounded up to a
/// multiple of 4 (so cross-lane accesses split into full address-FIFO
/// groups), at least 4.
pub fn pad_of(csr: &Csr) -> u32 {
    csr.max_nnz().next_multiple_of(4).max(4)
}

const X_BASE: u32 = 0; // the dense vector
const VAL_BASE: u32 = 0x10_0000; // padded matrix values, strip-major
const PTR_BASE: u32 = 0x30_0000; // padded condensed pointers, strip-major
const Y_BASE: u32 = 0x40_0000; // the result vector

/// Row `i`'s `pad` slots as `(column, value)`: its stored entries, then
/// `(0, 0.0)` padding.
fn padded(csr: &Csr, i: u32, pad: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
    let (cols, vals) = csr.row(i);
    (0..pad as usize).map(move |k| cols.get(k).map_or((0, 0.0), |&c| (c, vals[k])))
}

/// Host-prepared gather metadata per strip of `strip_rows` rows padded to
/// `pad`. Record 0 is always x[0]: the sentinel an empty row's padding
/// multiplies by 0.0, valid even for an all-empty strip.
pub(crate) fn condense_strips(csr: &Csr, strip_rows: u32, pad: u32) -> Vec<Condensed> {
    (0..csr.rows / strip_rows)
        .map(|s| {
            let rows = s * strip_rows..(s + 1) * strip_rows;
            condense(rows.map(|i| csr.row(i).0), pad, Some(0))
        })
        .collect()
}

/// Host reference mirroring the padded accumulation order bit-for-bit:
/// `acc = acc + v * xv` over all `pad` slots per row, padding slots
/// contributing `0.0 * x[0]`.
pub fn reference(csr: &Csr, x: &[f32], pad: u32) -> Vec<f32> {
    (0..csr.rows)
        .map(|i| {
            let mut acc = 0.0f32;
            for (col, v) in padded(csr, i, pad) {
                acc += v * x[col as usize];
            }
            acc
        })
        .collect()
}

/// Build the per-strip kernel: one row per lane per iteration, `pad`
/// multiply-accumulate slots. With `indexed`, `x` values come from
/// cross-lane indexed reads of the condensed array (spread over
/// `pad / 4` streams so each stays within the address FIFO); otherwise
/// they arrive pre-gathered on a sequential stream.
pub fn build_kernel(pad: u32, indexed: bool) -> Kernel {
    assert!(pad.is_multiple_of(4) && pad >= 4);
    let mut b = KernelBuilder::new(format!(
        "spmv_p{pad}_{}",
        if indexed { "isrf" } else { "base" }
    ));
    let ptr = b.stream("ptr", StreamKind::SeqIn);
    let vals = b.stream("vals", StreamKind::SeqIn);
    let xs = Gather::new(pad, 1, indexed).declare(&mut b, "x", ptr);
    let y = b.stream("y", StreamKind::SeqOut);

    let zero = b.constant_f(0.0);
    let mut acc = zero;
    for k in 0..pad {
        let xv = xs.read(&mut b, k)[0];
        let v = b.seq_read(vals);
        let prod = b.fmul(v, xv);
        acc = b.fadd(acc, prod);
    }
    b.seq_write(y, acc);
    b.build().expect("SpMV kernel is well-formed")
}

/// Set up the machine and build the measured program for an explicit
/// matrix and vector `(csr, x)` (the proptest entry point — [`plan`]
/// feeds the deterministic generator through the same plan). The check
/// compares `y` bit-for-bit with the padded host reference.
///
/// # Panics
///
/// Panics if `strip_rows` is not a positive multiple of 8 dividing
/// `csr.rows`, `x.len() != csr.cols`, a column index is not below
/// `csr.cols`, or an `x` entry is not finite (a pad multiplies one by
/// 0.0).
pub fn prepare_csr(cfg: &MachineConfig, data: Arc<(Csr, Vec<f32>)>, strip_rows: u32) -> Prepared {
    plan_matrix(cfg, Arc::new(Matrix::new(data, strip_rows))).load()
}

/// The load stage: `x` and the padded matrix values in memory, then the
/// strips' pointers.
fn load_matrix(m: &mut Machine, mx: &Matrix, gather: Gather, layout: Layout) {
    let (csr, x) = (&mx.data.0, &mx.data.1);
    let val_words: Vec<Word> = (0..csr.rows)
        .flat_map(|i| padded(csr, i, mx.pad).map(|(_, v)| from_f32(v)))
        .collect();
    let x_words: Vec<Word> = x.iter().map(|&v| from_f32(v)).collect();
    let mem = m.mem_mut().memory_mut();
    mem.write_block(X_BASE, &x_words);
    mem.write_block(VAL_BASE, &val_words);
    load_pointers(m, gather, layout, &mx.strips);
}

/// One sweep of `mx`'s strips on `cfg`; the load lays out the matrix.
fn plan_matrix(cfg: &MachineConfig, mx: Arc<Matrix>) -> Plan {
    let (indexed, pad, strip_rows) = (cfg.srf.indexed.is_some(), mx.pad, mx.strip_rows);
    let mut m = machine(cfg);
    let kernel = Arc::new(build_kernel(pad, indexed));
    let layout = Layout {
        strip: strip_rows,
        seq: [pad, pad, 1], // pointer, matrix-value and y records
        ptr_base: PTR_BASE,
        cap: None,
    };
    let gather = Gather::new(pad, 1, indexed);
    let mut strips = Strips::new(&mut m, kernel, gather, layout, &mx.strips);
    let mut p = StreamProgram::new();
    let span = strip_rows * pad;
    strips.sweep(
        &mut p,
        &[],
        X_BASE,
        |s, ptrs| [ptrs, AddrPattern::contiguous(VAL_BASE + s * span, span)],
        |s| AddrPattern::contiguous(Y_BASE + s * strip_rows, strip_rows),
    );
    let rows = mx.data.0.rows;
    let loaded = Arc::clone(&mx);
    let load = move |m: &mut Machine| load_matrix(m, &loaded, gather, layout);
    Plan::new(m, p, vec![(Y_BASE, rows)], load, move |m| {
        let (csr, x) = (&mx.data.0, &mx.data.1);
        for (i, &e) in reference(csr, x, mx.pad).iter().enumerate() {
            let got = m.mem().memory().read(Y_BASE + i as u32);
            assert_eq!(
                got,
                from_f32(e),
                "row {i}: got {:?}, want {e:?} (bit-exact mirror)",
                isrf_core::word::as_f32(got)
            );
        }
    })
}

/// Build the measured program and its machine's SRF allocation for the
/// generated matrix; the load lays out the matrix. Checked as
/// [`prepare_csr`] checks.
pub fn plan(cfg: &MachineConfig, params: &SpmvParams) -> Plan {
    plan_matrix(cfg, matrix_cached(params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::schedule_for;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &SpmvParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    fn small() -> SpmvParams {
        SpmvParams {
            rows: 256,
            avg_nnz: 6,
            bandwidth: 32,
            empty_pct: 15,
            strip_rows: 32,
            seed: 21,
        }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_kernel(8, true));
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_kernel(8, false));
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
    fn isrf1_functional() {
        run(ConfigName::Isrf1, &small());
    }

    #[test]
    fn empty_rows_produce_exact_zero() {
        let params = SpmvParams {
            empty_pct: 100,
            ..small()
        };
        let mut pr = plan(&ConfigName::Isrf4.into(), &params).load();
        pr.run_checked();
        for i in 0..params.rows {
            assert_eq!(pr.machine.mem().memory().read(Y_BASE + i), 0);
        }
    }

    #[test]
    fn isrf_reduces_traffic_via_deduplication() {
        // A denser band makes x entries shared across strip rows, so the
        // condensed gather moves fewer words than the replicated one.
        let params = SpmvParams {
            avg_nnz: 10,
            bandwidth: 16,
            empty_pct: 0,
            ..small()
        };
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.9, "traffic ratio {ratio:.3}");
        assert!(isrf.srf.crosslane_words > 0, "gathers are cross-lane");
        assert_eq!(isrf.srf.inlane_words, 0);
    }

    #[test]
    fn single_column_matrix_works() {
        // Every stored entry in column 0: the pathological all-conflict
        // gather (every lane hits bank 0).
        let n = 64u32;
        let csr = Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: vec![0; n as usize],
            vals: (0..n).map(|i| 0.5 + i as f32 / 100.0).collect(),
        };
        let x: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 / 50.0).collect();
        prepare_csr(&ConfigName::Isrf4.into(), Arc::new((csr, x)), 8).run_checked();
    }

    /// The padding is exact because every `x` entry a pad may read is a
    /// finite word that is not −0.0 (module docs): the generator draws
    /// them from [−1, 1).
    #[test]
    fn x_holds_no_negative_zero_and_no_non_finite_word() {
        use crate::registry::{spmv_params, Profile};
        for params in [
            small(),
            spmv_params(Profile::Small),
            spmv_params(Profile::Paper),
        ] {
            let (_, x) = generate(&params);
            assert!(x
                .iter()
                .all(|v| v.is_finite() && from_f32(*v) != from_f32(-0.0)));
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn a_non_finite_x_is_refused() {
        let (csr, mut x) = generate(&small());
        x[3] = f32::INFINITY;
        prepare_csr(&ConfigName::Base.into(), Arc::new((csr, x)), 32);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn a_column_past_x_is_refused() {
        let (mut csr, x) = generate(&small());
        csr.col_idx[0] = u32::MAX;
        prepare_csr(&ConfigName::Base.into(), Arc::new((csr, x)), 32);
    }
}
