//! The simulator's own work per point, as `tests/golden/points.digest`
//! pins it: `heads` (FIFO heads the indexed arbiter examined) beside `idx`
//! (the `IdxAccess` and `IdxReject` events a recording tracer hears, one
//! per lane and head), `visits`, `words` and `ops`. `tests/differential.rs`
//! writes and checks every value; this test reads the committed lines,
//! simulates nothing, and holds what the counts say about the arbiter
//! whatever the values: a lane-uniform stream is examined once per row
//! (filter, fft2d, stencil: one head for every lane's event), and a
//! cross-lane head behind a closed bank or a full data ring is not examined
//! at all, so every examined cross-lane head issues a word.

use isrf_check::{points_digest, Columns};
use isrf_core::config::{ConfigName, MachineConfig};

/// Apps whose indexed streams are lane-uniform: one shared cursor per row.
const LANE_UNIFORM: [&str; 3] = ["fft2d", "filter", "stencil"];

#[test]
fn heads_examined_per_point_are_pinned() {
    let digest = points_digest();
    let lines: Vec<Columns> = Columns::all(&digest)
        .filter(|c| c.point().count() == 3)
        .collect();
    assert!(!lines.is_empty(), "points.digest has no point lines");
    for line in lines {
        let point: Vec<&str> = line.point().collect();
        let (app, name) = (point[0], point.join(" "));
        let cfg: ConfigName = point[1].parse().expect("a config name");
        // Every point pins the four counts of its host work.
        let heads = line.u64("heads");
        for column in ["visits", "words", "ops"] {
            line.u64(column);
        }
        if !matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4) {
            assert_eq!(heads, 0, "{name}: no indexed arbiter, yet heads examined");
            assert_eq!(line.get("idx"), "-", "{name}: indexed events counted");
            continue;
        }
        let (idx, xl) = (line.u64("idx"), line.u64("xl"));
        assert!(heads > 0, "{name}: the indexed arbiter examined no head");
        assert!(
            heads <= idx,
            "{name}: {heads} heads examined, {idx} events heard"
        );
        if LANE_UNIFORM.contains(&app) {
            let lanes = MachineConfig::preset(cfg).lanes as u64;
            assert_eq!(
                idx,
                lanes * heads,
                "{name}: a lane-uniform stream examined more than once a row"
            );
        }
        if xl > 0 {
            assert_eq!(
                heads, xl,
                "{name}: a cross-lane head was examined without issuing"
            );
        }
    }
}
