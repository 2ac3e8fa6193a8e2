//! Integration tests pinning the paper's headline claims. The simulated
//! numbers are read from `tests/golden/points.digest`, which
//! `tests/differential.rs` writes; nothing here simulates.

use isrf::apps::igraph;
use isrf::core::config::ConfigName;
use isrf::sram::{AreaModel, EnergyModel, SrfGeometry, SrfVariant};
use isrf_check::{points_digest, Columns};

/// Off-chip bytes, read and written.
fn offchip(point: Columns) -> u64 {
    point.u64("rd") + point.u64("wr")
}

/// Section 1: "indexed SRF access provides speedups of 1.03x to 4.1x and
/// memory bandwidth reductions of up to 95%" (at the reduced Small size).
#[test]
fn headline_speedups_and_traffic() {
    let digest = points_digest();
    let [base, isrf] = [ConfigName::Base, ConfigName::Isrf4]
        .map(|cfg| Columns::find(&digest, &format!("rijndael {cfg} Small")));
    let speedup = base.u64("cycles") as f64 / isrf.u64("cycles") as f64;
    assert!(
        speedup > 3.0 && speedup < 8.0,
        "Rijndael speedup {speedup:.2} (paper: 4.11x)"
    );
    let cut = 1.0 - offchip(isrf) as f64 / offchip(base) as f64;
    assert!(cut > 0.85, "traffic cut {:.1}% (paper: ~95%)", cut * 100.0);
}

/// Where ISRF4 takes more cycles than the configuration named: `(point,
/// profile, configuration)`. The digest pins the cycles; this list only
/// shrinks (ROADMAP item 12 explains or fixes each entry).
const SLOWER_THAN: [(&str, &str, &str); 8] = [
    ("igraph", "Small", "Cache"),
    ("spmv", "Small", "Cache"),
    ("bfs", "Small", "Cache"),
    ("IG_SCL", "Small", "Base"),
    ("IG_SCL", "Small", "Cache"),
    ("spmv", "Paper", "Cache"),
    ("bfs", "Paper", "Cache"),
    ("IG_SCL", "Paper", "Cache"),
];

/// Section 5.3: ISRF4 outperforms the Cache configuration for all
/// benchmarks despite the cache's much higher area cost — and so, here,
/// Base. Checked on every app and IG dataset at both profiles: a new
/// exception fails, and so does an entry of [`SLOWER_THAN`] that stopped
/// being one.
#[test]
fn isrf4_beats_cache_and_base_on_every_point() {
    let digest = points_digest();
    let cycles = |app: &str, cfg: &str, profile: &str| {
        Columns::find(&digest, &format!("{app} {cfg} {profile}")).u64("cycles")
    };
    let mut slower = Vec::new();
    let mut points = 0;
    for line in Columns::all(&digest) {
        let &[app, "ISRF4", profile] = line.point().collect::<Vec<_>>().as_slice() else {
            continue;
        };
        points += 1;
        for other in ["Base", "Cache"] {
            if line.u64("cycles") > cycles(app, other, profile) {
                slower.push((app, profile, other));
            }
        }
    }
    assert_eq!(points, 22, "eight apps and three more IG datasets, twice");
    for found in &slower {
        assert!(
            SLOWER_THAN.contains(found),
            "ISRF4 is slower than {2} on {0} at {1}: a new exception",
            found.0,
            found.1,
            found.2
        );
    }
    for listed in &SLOWER_THAN {
        assert!(
            slower.contains(listed),
            "ISRF4 is no longer slower than {2} on {0} at {1}: delete the entry",
            listed.0,
            listed.1,
            listed.2
        );
    }
    // "The cache does not provide the conditional and complex SRF accesses
    // ... and consequently does not provide any speedup for these
    // benchmarks": Cache == Base for Sort.
    for profile in ["Small", "Paper"] {
        assert_eq!(
            cycles("sort", "Cache", profile),
            cycles("sort", "Base", profile),
            "Cache gives Sort nothing at {profile}"
        );
    }
}

/// Section 4.6: 11%/18%/22% SRF area overheads = 1.5%-3% of the die.
#[test]
fn area_overheads_in_paper_bands() {
    let model = AreaModel::default();
    let geom = SrfGeometry::paper_default();
    let o1 = model.overhead_vs_sequential(&geom, SrfVariant::Inlane1);
    let o4 = model.overhead_vs_sequential(&geom, SrfVariant::Inlane4);
    let ox = model.overhead_vs_sequential(&geom, SrfVariant::CrossLane);
    assert!((0.09..=0.13).contains(&o1));
    assert!((0.16..=0.20).contains(&o4));
    assert!((0.20..=0.24).contains(&ox));
    assert!(o1 < o4 && o4 < ox);
    let die = model.die_overhead(&geom, SrfVariant::CrossLane);
    assert!((0.015..=0.033).contains(&die));
}

/// Section 4.5: ~0.1 nJ per indexed access, an order of magnitude below
/// the ~5 nJ DRAM access — the energy argument for trading DRAM traffic
/// for SRF traffic.
#[test]
fn energy_ordering() {
    let m = EnergyModel::default();
    let g = SrfGeometry::paper_default();
    assert!(m.indexed_word_nj(&g) < 0.15);
    assert!(m.dram_access_nj() / m.indexed_word_nj(&g) > 10.0);
    assert!(m.indexed_over_seq(&g) > 2.0, "indexed costs ~4x sequential");
}

/// Table 4 / Section 5.3: eliminating replication roughly doubles the IG
/// strip size in the same SRF budget, and all ISRF accesses are
/// cross-lane, on every IG dataset at both profiles.
#[test]
fn ig_strips_and_crosslane() {
    for ds in &igraph::DATASETS {
        assert!(ds.isrf_strip_nodes >= 2 * ds.base_strip_nodes);
    }
    let digest = points_digest();
    for app in ["igraph", "IG_SCL", "IG_DMS", "IG_DCS"] {
        for profile in ["Small", "Paper"] {
            let s = Columns::find(&digest, &format!("{app} ISRF4 {profile}"));
            assert!(s.u64("xl") > 0, "{app} at {profile}: no cross-lane words");
            assert_eq!(s.u64("inl"), 0, "{app} at {profile}: in-lane words");
        }
    }
}
