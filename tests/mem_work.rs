//! The memory channel's work, per configuration: what the `visits` and
//! `words` columns of `tests/golden/points.digest` must satisfy. The
//! columns are measured and pinned by `tests/differential.rs`; these tests
//! read the committed lines and simulate nothing, so a regeneration that
//! breaks a rule below fails here.
//!
//! A visit serves at most one word. A visit that serves none finds its
//! transfer blocked while another can still be served: cacheable and
//! without cache credit, or opening a burst with DRAM credit out while
//! another rides one. bfs, spmv and stencil on Base gather runs of one
//! address; a lone rider is served in place, so they pay only for the
//! visits on the way to it. Two riders alternate, as rijndael's ISRF
//! tables do.

use isrf_apps::{Profile, APPS};
use isrf_check::{points_digest, Columns};
use isrf_core::config::ConfigName;

/// `((app, profile), (visits, words))` per app and IG dataset and profile
/// on one configuration.
type Column = Vec<((&'static str, Profile), (u64, u64))>;

/// `cfg`'s column, read from the digest; each point is checked to serve a
/// word and to visit at least once per word.
fn column(cfg: ConfigName) -> Column {
    let digest = points_digest();
    let mut col = Vec::new();
    for profile in [Profile::Small, Profile::Paper] {
        for &app in APPS.iter().chain(&["IG_SCL", "IG_DMS", "IG_DCS"]) {
            let key = format!("{app} {cfg} {profile:?}");
            let line = Columns::find(&digest, &key);
            let (visits, words) = (line.u64("visits"), line.u64("words"));
            assert!(words > 0, "{key}: no word served");
            assert!(visits >= words, "{key}: {words} words in {visits} visits");
            col.push(((app, profile), (visits, words)));
        }
    }
    col
}

#[test]
fn base() {
    column(ConfigName::Base);
}

/// The cache changes which visits serve a word, not which words the
/// transfers move.
#[test]
fn cache() {
    let words = |cfg| {
        column(cfg)
            .into_iter()
            .map(|(p, (_, w))| (p, w))
            .collect::<Vec<_>>()
    };
    assert_eq!(words(ConfigName::Cache), words(ConfigName::Base));
}

/// ISRF1 and ISRF4 move the same transfers: the SRF's indexing does not
/// reach the channel.
#[test]
fn isrf1_and_isrf4() {
    assert_eq!(column(ConfigName::Isrf1), column(ConfigName::Isrf4));
}
