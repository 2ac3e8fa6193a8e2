//! The memory channel's work, pinned: transfers the service walk visits
//! and words it serves, per Paper point, read off each machine's own
//! `MemorySystem` (counted in debug builds only; the build users run does
//! not count). A time drifts with the machine; this cannot. Words served
//! are every word every transfer moves. A visit that serves nothing finds
//! its transfer blocked while another can still be served. The blocked
//! transfer is either cacheable and without cache credit, or must open a
//! burst with DRAM credit out while another rides one. bfs, spmv and
//! stencil on Base gather runs of one address. A lone rider is served in
//! place, so they pay only for the visits on the way to it; before that
//! they went round (bfs/Base 1 993 117 visits). Two riders still
//! alternate, as rijndael's ISRF tables do.
#![cfg(debug_assertions)]

use isrf::apps::{prepare_app, Profile, APPS};
use isrf::core::config::ConfigName;

/// `(app, (visits, words))` on one configuration.
type Column = [(&'static str, (u64, u64)); 8];

fn work(cfg: ConfigName) -> Column {
    APPS.map(|app| {
        let mut pr = prepare_app(app, cfg, Profile::Paper);
        pr.machine.run(&pr.program);
        let w = pr.machine.mem().work();
        (app, (w.visits, w.words))
    })
}

#[test]
fn base() {
    let want = [
        ("fft2d", (98_464, 98_464)),
        ("rijndael", (172_032, 172_032)),
        ("sort", (8_192, 8_192)),
        ("filter", (196_608, 196_608)),
        ("igraph", (73_728, 73_728)),
        ("spmv", (103_990, 100_352)),
        ("stencil", (267_405, 262_144)),
        ("bfs", (1_314_009, 1_277_952)),
    ];
    assert_eq!(work(ConfigName::Base), want);
}

#[test]
fn cache() {
    let want = [
        ("fft2d", (98_464, 98_464)),
        ("rijndael", (172_032, 172_032)),
        ("sort", (8_192, 8_192)),
        ("filter", (196_608, 196_608)),
        ("igraph", (73_728, 73_728)),
        ("spmv", (100_370, 100_352)),
        ("stencil", (267_405, 262_144)),
        ("bfs", (1_277_952, 1_277_952)),
    ];
    assert_eq!(work(ConfigName::Cache), want);
}

/// ISRF1 and ISRF4 move the same transfers: the SRF's indexing does not
/// reach the channel.
#[test]
fn isrf1_and_isrf4() {
    let want = [
        ("fft2d", (33_440, 33_440)),
        ("rijndael", (29_023, 18_432)),
        ("sort", (8_192, 8_192)),
        ("filter", (196_608, 196_608)),
        ("igraph", (47_050, 47_050)),
        ("spmv", (71_866, 71_866)),
        ("stencil", (81_920, 81_920)),
        ("bfs", (782_664, 782_664)),
    ];
    assert_eq!(work(ConfigName::Isrf1), want);
    assert_eq!(work(ConfigName::Isrf4), want);
}
