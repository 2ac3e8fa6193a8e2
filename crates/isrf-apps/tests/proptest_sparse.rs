//! Sparse-workload property tests: random CSR matrices — varying
//! density, empty rows, single-column, pathological bandwidth — run
//! through the SpMV app and diffed word-for-word against the bit-exact
//! host reference; plus snapshot/resume at a random mid-run cycle, which
//! must reproduce the uninterrupted run exactly.

use std::sync::Arc;

use isrf_apps::spmv::{prepare_csr, Csr};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::word::Word;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STRIP_ROWS: u32 = 16;

/// A shrinkable recipe for a sparse matrix: the per-row fill comes from
/// proptest (so shrinking peels away rows and entries), the numeric
/// content from a seeded RNG.
#[derive(Debug, Clone)]
struct MatrixRecipe {
    /// 1–3 strips of 16 rows.
    strips: u32,
    /// 0 = banded, 1 = single-column, 2 = uniform (bandwidth = whole
    /// matrix, the pathological worst case for the condensed gather).
    shape: u8,
    /// Band half-width for the banded shape.
    bw: u32,
    /// Stored entries per row, `row_nnz[i] % 10` (0 = empty row);
    /// cycled if shorter than the matrix.
    row_nnz: Vec<u8>,
    /// Seed for column positions and values.
    seed: u64,
}

fn recipes() -> impl Strategy<Value = MatrixRecipe> {
    (
        1u32..=3,
        0u8..3,
        1u32..=8,
        prop::collection::vec(any::<u8>(), 1..48),
        any::<u64>(),
    )
        .prop_map(|(strips, shape, bw, row_nnz, seed)| MatrixRecipe {
            strips,
            shape,
            bw,
            row_nnz,
            seed,
        })
}

fn build(r: &MatrixRecipe) -> Arc<(Csr, Vec<f32>)> {
    let n = r.strips * STRIP_ROWS;
    let mut rng = SmallRng::seed_from_u64(r.seed);
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for i in 0..n {
        let nnz = r.row_nnz[i as usize % r.row_nnz.len()] % 10;
        let mut cols: Vec<u32> = (0..nnz)
            .map(|_| match r.shape {
                0 => {
                    let off = rng.gen_range(-(r.bw as i32)..=r.bw as i32);
                    (i as i32 + off).rem_euclid(n as i32) as u32
                }
                1 => 0,
                _ => rng.gen_range(0..n),
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            col_idx.push(c);
            vals.push(rng.gen_range(0.1f32..1.0));
        }
        row_ptr.push(col_idx.len() as u32);
    }
    let x = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Arc::new((
        Csr {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            vals,
        },
        x,
    ))
}

fn read_output(pr: &isrf_apps::common::Prepared) -> Vec<Word> {
    let (base, words) = pr.outputs[0];
    pr.machine.mem().memory().read_block(base, words as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random CSR × {Base, Isrf4}: the simulated `y = A * x` equals the
    /// host reference in every bit (the check `prepare_csr` attaches).
    #[test]
    fn spmv_matches_reference(r in recipes()) {
        let data = build(&r);
        for cfg in [ConfigName::Base, ConfigName::Isrf4] {
            prepare_csr(&cfg.into(), Arc::clone(&data), STRIP_ROWS).run_checked();
        }
    }

    /// Pausing at a random mid-run cycle, serializing, restoring into a
    /// fresh machine, and resuming reproduces the uninterrupted run:
    /// identical stats and identical output words.
    #[test]
    fn spmv_snapshot_resume_is_invisible(r in recipes(), at in 1u64..4000) {
        let cfg = MachineConfig::preset(ConfigName::Isrf4);
        let prepare = || prepare_csr(&cfg, build(&r), STRIP_ROWS);
        let mut straight = prepare();
        let stats_s = straight.run_checked();
        let out_s = read_output(&straight);

        let mut pr = prepare();
        let (stats_p, out_p) = match pr.machine.run_for(&pr.program, at) {
            Some(stats) => (stats, read_output(&pr)),
            None => {
                let snapshot = pr.machine.save_state(&pr.program);
                let mut fresh = prepare();
                fresh
                    .machine
                    .restore_state(&fresh.program, &snapshot)
                    .expect("snapshot restores into the same recipe");
                let stats = fresh
                    .machine
                    .run_for(&fresh.program, u64::MAX)
                    .expect("resumed run completes");
                (stats, read_output(&fresh))
            }
        };
        prop_assert_eq!(stats_s, stats_p, "stats differ at {}", at);
        prop_assert_eq!(&out_s, &out_p, "output differs at {}", at);
    }
}
