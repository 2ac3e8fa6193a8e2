//! The indexed arbiter's work, pinned: FIFO heads `service_indexed`
//! examines per point, counted in debug builds only (`HEADS_EXAMINED`; the
//! build users run does not count). A time drifts with the machine; this
//! cannot, so it holds what the shared cursors and the masks bought. Beside
//! each count stands what a recording tracer hears — one `IdxAccess` or
//! `IdxReject` per lane and head, which is what the per-lane arbiter
//! examined: a lane-uniform stream is now examined once per row (filter,
//! fft2d, stencil: an eighth), and a cross-lane head behind a closed bank
//! or a full data ring not at all (bfs, spmv: every examined head issues).
#![cfg(debug_assertions)]

use std::sync::atomic::Ordering;

use isrf::apps::{prepare_app, Profile, APPS};
use isrf::core::config::ConfigName;
use isrf::sim::indexed::HEADS_EXAMINED;
use isrf::trace::Tracer;

/// Heads examined by an untraced run of `app` on `cfg`, and the indexed
/// accesses and rejections a traced run of it reports.
fn heads(app: &str, cfg: ConfigName, profile: Profile) -> (u64, u64) {
    let mut pr = prepare_app(app, cfg, profile);
    let before = HEADS_EXAMINED.load(Ordering::Relaxed);
    pr.machine.run(&pr.program);
    let examined = HEADS_EXAMINED.load(Ordering::Relaxed) - before;
    let mut pr = prepare_app(app, cfg, profile);
    pr.machine.set_tracer(Tracer::recording(0));
    pr.machine.run(&pr.program);
    let rec = pr.machine.take_tracer().into_recorder().expect("recording");
    let c = rec.counters();
    let events = c.idx_inlane + c.idx_crosslane + c.idx_reject.iter().sum::<u64>();
    (examined, events)
}

type Row = (&'static str, [(u64, u64); 2]);

/// `(app, [ISRF1, ISRF4])`, each `(examined, events)`.
const SMALL: [Row; 8] = [
    ("fft2d", [(15_360, 122_880), (15_360, 122_880)]),
    ("rijndael", [(10_240, 10_240), (24_352, 24_352)]),
    ("sort", [(8_880, 9_216), (8_880, 9_216)]),
    ("filter", [(25_600, 204_800), (47_296, 378_368)]),
    ("igraph", [(9_216, 17_203), (9_216, 17_203)]),
    ("spmv", [(4_096, 33_995), (4_096, 33_995)]),
    ("stencil", [(7_168, 57_344), (19_074, 152_592)]),
    ("bfs", [(32_768, 233_301), (32_768, 233_301)]),
];

const PAPER: [Row; 8] = [
    ("fft2d", [(30_720, 245_760), (30_720, 245_760)]),
    ("rijndael", [(163_840, 163_840), (393_384, 393_384)]),
    ("sort", [(110_046, 110_592), (110_046, 110_592)]),
    ("filter", [(204_800, 1_638_400), (378_368, 3_026_944)]),
    ("igraph", [(36_864, 69_018), (36_864, 69_018)]),
    ("spmv", [(32_768, 279_769), (32_768, 279_769)]),
    ("stencil", [(28_672, 229_376), (76_296, 610_368)]),
    ("bfs", [(589_824, 3_685_152), (589_824, 3_685_152)]),
];

/// One test, so nothing else in this process counts heads meanwhile.
#[test]
fn heads_examined_per_point_are_pinned() {
    for (profile, want) in [(Profile::Small, SMALL), (Profile::Paper, PAPER)] {
        let got = APPS.map(|app| {
            let row = [ConfigName::Isrf1, ConfigName::Isrf4].map(|cfg| heads(app, cfg, profile));
            (app, row)
        });
        assert_eq!(got, want, "{profile:?}: (examined, events) per point moved");
    }
}
