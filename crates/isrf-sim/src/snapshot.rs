//! Machine snapshot codec and structural diffing (DESIGN.md §12).
//!
//! [`Machine::save_state`] serializes the complete dynamic architectural
//! state into the frame defined by [`isrf_core::snap`], and
//! [`Machine::restore_state`] reads it back:
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
//!
//! A decoded length never sizes an allocation unchecked: lists go through
//! [`Dec::words`] / [`Dec::usizes`], which refuse a length the remaining
//! bytes cannot hold, and every other count is checked against the machine
//! or the program first.

use isrf_core::snap::{self, Dec, Enc, SnapError};
use isrf_core::stats::{MemTraffic, RunStats};

use crate::machine::{Machine, PendingTransfer, RunState};
use crate::program::StreamProgram;
use crate::srf::SrfRange;
use crate::stream::StreamBinding;

impl Machine {
    /// Serialize the machine's complete dynamic architectural state —
    /// including a program paused by [`Machine::step`] — into the
    /// versioned, content-hashed snapshot frame (DESIGN.md §12).
    ///
    /// The snapshot captures everything the simulation reads: cycle
    /// counter, statistics, SRF banks, lane scratchpads, the memory system
    /// (contents, cache arrays, in-flight transfers), the pending-transfer
    /// slab, and the paused sequencer loop (stream buffers, address FIFOs,
    /// kernel cursors, iteration contexts). Derived caches (compiled
    /// tapes, tracers, verifiers) are not stored; they are reconstructed
    /// deterministically on restore. `program` must be the program the
    /// paused run executes; restoring requires the same program and
    /// machine configuration (validated by fingerprint).
    ///
    /// Two snapshots of identical architectural state are byte-identical,
    /// and `snapshot → restore → run` matches an uninterrupted run in
    /// stats, traces, and memory. A machine parked by
    /// [`crate::SimError::Deadlock`] snapshots like any paused one, and the
    /// restored machine's next `step` reports the same deadlock.
    pub fn save_state(&self, program: &StreamProgram) -> Vec<u8> {
        let mut meta = Enc::new();
        meta.u64(snap::fnv1a(format!("{:?}", self.cfg).as_bytes()));
        meta.u64(snap::fnv1a(format!("{program:?}").as_bytes()));
        // Reserved byte of the `meta` layout: always 0, and restore
        // rejects anything else. The flag after it carried a run-loop
        // option that no longer exists: written `true`, ignored on read.
        meta.u8(0);
        meta.bool(true);
        meta.u64(self.now);
        meta.f64(self.mem_port_words);
        self.stats.encode_state(&mut meta);

        let mut scratch = Enc::new();
        scratch.usize(self.scratch.len());
        for lane in &self.scratch {
            scratch.words(lane);
        }

        let mut filled = Enc::new();
        filled.usize(self.filled.len());
        for &(lo, hi) in &self.filled {
            filled.u32(lo);
            filled.u32(hi);
        }

        let mut pending = Enc::new();
        pending.usize(self.pending.len());
        for slot in &self.pending {
            pending.bool(slot.is_some());
            if let Some(pt) = slot {
                pending.usize(pt.op);
                pending.bool(pt.fill.is_some());
                if let Some((b, data)) = &pt.fill {
                    encode_binding(b, &mut pending);
                    pending.words(data);
                }
            }
        }

        let mut srf = Enc::new();
        self.srf.encode_state(&mut srf);

        let mut run = Enc::new();
        let mut kctx = Enc::new();
        run.bool(self.active.is_some());
        if let Some(rs) = &self.active {
            rs.start_stats.encode_state(&mut run);
            rs.mem_start.encode_state(&mut run);
            run.usize(rs.done.len());
            rs.done.iter().for_each(|&d| run.bool(d));
            rs.pending_deps.iter().for_each(|&p| run.u32(p));
            run.usizes(&rs.ready_mem);
            run.usize(rs.next_kernel);
            run.u32(rs.kernel_dispatch_left);
            run.usize(rs.completed);
            run.usize(rs.live_transfers);
            run.bool(rs.kernel_run.is_some());
            if let Some((ki, kr)) = &rs.kernel_run {
                run.usize(*ki);
                kr.encode_state(&mut run);
                // Iteration contexts are the `kctx` section.
                kr.encode_ctx(&mut kctx);
            }
        }

        let mut payload = Enc::new();
        snap::write_sections(
            &mut payload,
            &[
                ("meta", meta.into_bytes()),
                ("scratch", scratch.into_bytes()),
                ("filled", filled.into_bytes()),
                ("pending", pending.into_bytes()),
                ("srf", srf.into_bytes()),
                ("mem", self.mem.encode_state()),
                ("run", run.into_bytes()),
                ("kctx", kctx.into_bytes()),
            ],
        );
        snap::frame(&payload.into_bytes())
    }

    /// Restore the machine to a snapshot taken by [`Machine::save_state`].
    ///
    /// The machine must be built from the same configuration and `program`
    /// must be (structurally) the same program as at capture — both are
    /// validated by fingerprint before anything is overwritten. Tracer,
    /// verifier, and the tape memo are left untouched, so a
    /// restored machine can trace or verify independently of the one that
    /// captured the snapshot.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]: frame corruption, version mismatch, or a
    /// structurally valid snapshot that does not fit this machine or
    /// program. On error after the fingerprint checks the machine state is
    /// unspecified; restore again (or rebuild the machine) before use.
    pub fn restore_state(
        &mut self,
        program: &StreamProgram,
        bytes: &[u8],
    ) -> Result<(), SnapError> {
        let mismatch = |what: String| Err(SnapError::Mismatch(what));
        let payload = snap::unframe(bytes)?;
        let sections = snap::read_sections(payload)?;
        let get = |name: &str| -> Result<&[u8], SnapError> {
            sections
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.bytes.as_slice())
                .ok_or_else(|| SnapError::Mismatch(format!("snapshot lacks section \"{name}\"")))
        };

        let mut meta = Dec::new(get("meta")?);
        if meta.u64()? != snap::fnv1a(format!("{:?}", self.cfg).as_bytes()) {
            return mismatch("snapshot was taken on a different machine configuration".into());
        }
        if meta.u64()? != snap::fnv1a(format!("{program:?}").as_bytes()) {
            return mismatch("snapshot was taken running a different program".into());
        }
        let reserved = meta.u8()?;
        if reserved != 0 {
            return mismatch(format!("reserved meta byte is {reserved}, not 0"));
        }
        meta.bool()?;
        self.now = meta.u64()?;
        self.mem_port_words = meta.f64()?;
        self.stats = RunStats::decode_state(&mut meta)?;
        meta.finish()?;

        let mut sc = Dec::new(get("scratch")?);
        let lanes = sc.usize()?;
        if lanes != self.scratch.len() {
            return mismatch(format!(
                "scratchpad lane count {lanes} != {}",
                self.scratch.len()
            ));
        }
        for lane in &mut self.scratch {
            let words = sc.words()?;
            if words.len() != lane.len() {
                return mismatch(format!(
                    "scratchpad holds {} words, expected {}",
                    words.len(),
                    lane.len()
                ));
            }
            *lane = words;
        }
        sc.finish()?;

        let mut fl = Dec::new(get("filled")?);
        self.filled.clear();
        for _ in 0..fl.usize()? {
            self.filled.push((fl.u32()?, fl.u32()?));
        }
        fl.finish()?;

        let mut pd = Dec::new(get("pending")?);
        self.pending.clear();
        for _ in 0..pd.usize()? {
            let slot = if pd.bool()? {
                let op = pd.usize()?;
                let fill = if pd.bool()? {
                    Some((decode_binding(&mut pd)?, pd.words()?))
                } else {
                    None
                };
                Some(PendingTransfer { op, fill })
            } else {
                None
            };
            self.pending.push(slot);
        }
        pd.finish()?;

        let mut sr = Dec::new(get("srf")?);
        self.srf.decode_state(&mut sr)?;
        sr.finish()?;

        self.mem.decode_state(get("mem")?)?;

        let mut rn = Dec::new(get("run")?);
        self.active = if rn.bool()? {
            let start_stats = RunStats::decode_state(&mut rn)?;
            let mem_start = MemTraffic::decode_state(&mut rn)?;
            let n_ops = rn.usize()?;
            if n_ops != program.len() {
                return mismatch(format!(
                    "paused run covers {n_ops} ops, program has {}",
                    program.len()
                ));
            }
            // Fields are evaluated top to bottom: wire order.
            let mut rs = RunState {
                start_stats,
                mem_start,
                done: (0..n_ops).map(|_| rn.bool()).collect::<Result<_, _>>()?,
                pending_deps: (0..n_ops).map(|_| rn.u32()).collect::<Result<_, _>>()?,
                ready_mem: rn.usizes()?,
                next_kernel: rn.usize()?,
                kernel_dispatch_left: rn.u32()?,
                completed: rn.usize()?,
                live_transfers: rn.usize()?,
                kernel_run: None,
            };
            if rn.bool()? {
                let ki = rn.usize()?;
                let Some(mut kr) = self.kernel_run(program, ki) else {
                    return mismatch(format!(
                        "paused run points at op {ki}, which is not a kernel of the program"
                    ));
                };
                kr.decode_state(&mut rn)?;
                let mut kc = Dec::new(get("kctx")?);
                kr.decode_ctx(&mut kc)?;
                kc.finish()?;
                rs.kernel_run = Some((ki, kr));
            }
            Some(rs)
        } else {
            None
        };
        rn.finish()
    }
}

/// Write a [`StreamBinding`] into a snapshot encoder (seven `u32` fields).
fn encode_binding(b: &StreamBinding, e: &mut Enc) {
    e.u32(b.range.base);
    e.u32(b.range.words_per_bank);
    e.u32(b.record_words);
    e.u32(b.records);
    e.u32(b.start_record);
    e.u32(b.run_records);
    e.u32(b.stride_records);
}

/// Read a [`StreamBinding`] written by [`encode_binding`].
fn decode_binding(d: &mut Dec) -> Result<StreamBinding, SnapError> {
    Ok(StreamBinding {
        range: SrfRange {
            base: d.u32()?,
            words_per_bank: d.u32()?,
        },
        record_words: d.u32()?,
        records: d.u32()?,
        start_record: d.u32()?,
        run_records: d.u32()?,
        stride_records: d.u32()?,
    })
}

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
