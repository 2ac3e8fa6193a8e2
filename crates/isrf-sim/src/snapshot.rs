//! Machine snapshot format and structural diffing (DESIGN.md §12).
//!
//! [`crate::Machine::save_state`] serializes the complete dynamic
//! architectural state into the frame defined by [`isrf_core::snap`]:
//!
//! ```text
//! "ISRFSNAP" | version u32 | payload | fnv1a-64 hash
//! ```
//!
//! The payload is a named-section list (count, then per section its name,
//! length, and bytes):
//!
//! | section   | contents |
//! |-----------|----------|
//! | `meta`    | config + program fingerprints, a reserved zero byte, a byte that is always 1 (it carried a run-loop option that is gone; ignored on read), cycle counter, SRF-port debt, cumulative stats |
//! | `scratch` | per-lane scratchpad words |
//! | `filled`  | per-bank SRF intervals known to hold data |
//! | `pending` | the live-transfer slab (op index + pending load fills) |
//! | `srf`     | allocator high-water mark + every bank word |
//! | `mem`     | nested sections from `isrf_mem`: `sys` (credits, in-flight slab, ready heap, traffic), `data` (touched memory chunks), `cache` (tag/valid/dirty/LRU arrays, when configured) |
//! | `run`     | the paused sequencer loop: dependence state, kernel cursor, and the stream half of the in-flight `KernelRun` (stream buffers, address FIFOs, arbitration state) |
//! | `kctx`    | in-flight iteration contexts of the `KernelRun` (tag 0, then the tape's context ring); empty when no kernel is mid-flight |
//!
//! Every field is little-endian and fixed-width (`f64` by IEEE-754 bit
//! pattern), so re-serializing a decoded snapshot is byte-identical and
//! snapshots of identical architectural state compare equal as raw bytes.
//! That property is what [`diff_snapshots`] — and the first-divergence
//! bisector built on it in `isrf-check` — relies on.

use isrf_core::snap::{self, SnapError};

/// One structural difference between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Slash-separated path of section names from the payload root, e.g.
    /// `"srf"` or `"mem/data/c0"`.
    pub path: String,
    /// What differs at that path.
    pub detail: String,
}

impl std::fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Cap on reported differences: past this the diff is noise, not signal.
const MAX_DIFFS: usize = 64;

/// Structurally compare two snapshot frames, recursing through nested
/// named sections and reporting, for each differing leaf, the first
/// differing byte and its word index.
///
/// Returns an empty vector when the snapshots are byte-identical. At most
/// 64 differences are reported.
///
/// # Errors
///
/// Any [`SnapError`] from either frame (corruption, version mismatch).
pub fn diff_snapshots(a: &[u8], b: &[u8]) -> Result<Vec<SnapshotDiff>, SnapError> {
    let pa = snap::unframe(a)?;
    let pb = snap::unframe(b)?;
    let mut out = Vec::new();
    diff_section_bytes("", pa, pb, &mut out);
    Ok(out)
}

/// Recurse into `a` vs `b` at section path `path`.
fn diff_section_bytes(path: &str, a: &[u8], b: &[u8], out: &mut Vec<SnapshotDiff>) {
    if out.len() >= MAX_DIFFS || a == b {
        return;
    }
    // Recurse when BOTH sides parse as section lists with the same names
    // in the same order; otherwise report the leaf-level byte difference.
    if let (Some(sa), Some(sb)) = (snap::try_read_sections(a), snap::try_read_sections(b)) {
        let names_match = sa.len() == sb.len() && sa.iter().zip(&sb).all(|(x, y)| x.name == y.name);
        if names_match {
            for (x, y) in sa.iter().zip(&sb) {
                let sub = if path.is_empty() {
                    x.name.clone()
                } else {
                    format!("{path}/{}", x.name)
                };
                diff_section_bytes(&sub, &x.bytes, &y.bytes, out);
            }
            return;
        }
        out.push(SnapshotDiff {
            path: display_path(path),
            detail: format!(
                "section structure differs: [{}] vs [{}]",
                sa.iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                sb.iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        });
        return;
    }
    let detail = match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(off) => format!(
            "first differing byte at offset {off} (word {}): {:#04x} vs {:#04x} ({} vs {} bytes)",
            off / 4,
            a[off],
            b[off],
            a.len(),
            b.len()
        ),
        None => format!("length differs: {} vs {} bytes", a.len(), b.len()),
    };
    out.push(SnapshotDiff {
        path: display_path(path),
        detail,
    });
}

fn display_path(path: &str) -> String {
    if path.is_empty() {
        "(payload)".to_string()
    } else {
        path.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::snap::{write_sections, Enc};

    fn framed(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut e = Enc::new();
        write_sections(&mut e, sections);
        snap::frame(&e.into_bytes())
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let s = framed(&[("a", vec![1, 2, 3]), ("b", vec![4])]);
        assert!(diff_snapshots(&s, &s).unwrap().is_empty());
    }

    #[test]
    fn leaf_difference_is_localized() {
        let a = framed(&[("srf", vec![0; 16]), ("mem", vec![7; 8])]);
        let mut srf2 = vec![0; 16];
        srf2[9] = 5;
        let b = framed(&[("srf", srf2), ("mem", vec![7; 8])]);
        let diffs = diff_snapshots(&a, &b).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "srf");
        assert!(diffs[0].detail.contains("offset 9"));
        assert!(diffs[0].detail.contains("word 2"));
    }

    #[test]
    fn nested_sections_recurse() {
        let mut inner_a = Enc::new();
        write_sections(&mut inner_a, &[("c0", vec![1, 2]), ("c1", vec![3, 4])]);
        let mut inner_b = Enc::new();
        write_sections(&mut inner_b, &[("c0", vec![1, 2]), ("c1", vec![3, 9])]);
        let a = framed(&[("mem", inner_a.into_bytes())]);
        let b = framed(&[("mem", inner_b.into_bytes())]);
        let diffs = diff_snapshots(&a, &b).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "mem/c1");
    }

    #[test]
    fn corrupt_frame_errors() {
        let s = framed(&[("a", vec![1])]);
        let mut bad = s.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert!(diff_snapshots(&s, &bad).is_err());
    }
}
