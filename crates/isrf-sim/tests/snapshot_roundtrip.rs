//! Machine-level snapshot round-trip: pause a run at cycle granularity,
//! serialize, restore into a fresh machine, and require the resumed run to
//! be byte-identical — stats, trace events, output memory — to an
//! uninterrupted one. Also pins the format itself: serialize →
//! deserialize → re-serialize is byte-identical, and mismatched frames are
//! rejected with typed errors.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{self, Enc, SnapError};
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::{TraceEvent, Tracer};

const OUT_BASE: u32 = 8192;
const OUT_WORDS: u32 = 64;

/// The paper's table-lookup app, small enough to run in tests but long
/// enough (loads, kernel with an indexed stream, store) that a mid-run
/// pause lands inside interesting machine state.
fn build_point() -> (Machine, StreamProgram) {
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let mut machine = Machine::new(cfg.clone()).unwrap();

    let mut b = KernelBuilder::new("lookup");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_lut = b.stream("LUT", StreamKind::IdxInRead);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let v = b.idx_load(s_lut, a);
    let c = b.add(a, v);
    b.seq_write(s_out, c);
    let kernel = Arc::new(b.build().unwrap());
    let sched = schedule(&kernel, &SchedParams::from_machine(machine.config())).unwrap();

    let lut = machine.alloc_stream(1, 256 * 8);
    let input = machine.alloc_stream(1, OUT_WORDS);
    let output = machine.alloc_stream(1, OUT_WORDS);
    for i in 0..256u32 {
        for lane in 0..8 {
            machine.mem_mut().memory_mut().write(i * 8 + lane, 1000 + i);
        }
    }
    for i in 0..OUT_WORDS {
        machine.mem_mut().memory_mut().write(4096 + i, i % 256);
    }

    let mut p = StreamProgram::new();
    let l1 = p.load(AddrPattern::contiguous(0, 256 * 8), lut, false, &[]);
    let l2 = p.load(AddrPattern::contiguous(4096, OUT_WORDS), input, false, &[]);
    let k = p.kernel(
        Arc::clone(&kernel),
        sched,
        vec![input, lut, output],
        8,
        &[l1, l2],
    );
    p.store(
        output,
        AddrPattern::contiguous(OUT_BASE, OUT_WORDS),
        false,
        &[k],
    );
    (machine, p)
}

struct Observed {
    stats: RunStats,
    events: Vec<(u64, TraceEvent)>,
    output: Vec<Word>,
}

fn drain_events(m: &mut Machine) -> Vec<(u64, TraceEvent)> {
    m.take_tracer()
        .into_recorder()
        .expect("recording tracer")
        .ring()
        .iter()
        .cloned()
        .collect()
}

fn straight() -> Observed {
    let (mut m, p) = build_point();
    m.set_tracer(Tracer::recording(1 << 20));
    let stats = m.run(&p);
    let events = drain_events(&mut m);
    let output = m.mem().memory().read_block(OUT_BASE, OUT_WORDS as usize);
    Observed {
        stats,
        events,
        output,
    }
}

/// Pause after `at` cycles, snapshot, restore into a fresh machine, and
/// run that to completion. Returns the stitched observation plus the
/// snapshot bytes.
fn paused(at: u64) -> (Observed, Vec<u8>) {
    let (mut m, p) = build_point();
    m.set_tracer(Tracer::recording(1 << 20));
    assert!(
        m.run_for(&p, at).is_none(),
        "run completed before cycle {at}"
    );
    assert!(m.mid_run());
    let snapshot = m.save_state(&p);
    let mut events = drain_events(&mut m);

    let (mut r, p2) = build_point();
    r.restore_state(&p2, &snapshot).unwrap();
    assert!(r.mid_run());
    r.set_tracer(Tracer::recording(1 << 20));
    let stats = r.run_for(&p2, u64::MAX).expect("resumed run completes");
    events.extend(drain_events(&mut r));
    let output = r.mem().memory().read_block(OUT_BASE, OUT_WORDS as usize);
    (
        Observed {
            stats,
            events,
            output,
        },
        snapshot,
    )
}

#[test]
fn snapshot_resume_matches_uninterrupted_run() {
    let base = straight();
    let total = base.stats.cycles;
    assert!(total > 16, "test program too short to pause meaningfully");
    for at in [1, total / 3, total / 2, total - 1] {
        let (resumed, _) = paused(at);
        assert_eq!(resumed.stats, base.stats, "stats diverge (pause at {at})");
        assert_eq!(
            resumed.events, base.events,
            "trace diverges (pause at {at})"
        );
        assert_eq!(
            resumed.output, base.output,
            "output memory diverges (pause at {at})"
        );
    }
}

#[test]
fn run_for_with_enough_budget_completes() {
    let (mut m, p) = build_point();
    let stats = m.run_for(&p, u64::MAX).expect("completes");
    assert!(!m.mid_run());
    assert_eq!(stats, straight().stats);
}

#[test]
fn reserialized_snapshot_is_byte_identical() {
    let (_, snapshot) = paused(20);
    let (mut r, p) = build_point();
    r.restore_state(&p, &snapshot).unwrap();
    assert_eq!(r.save_state(&p), snapshot);
}

#[test]
fn snapshots_of_identical_state_are_byte_identical() {
    let (mut a, pa) = build_point();
    let (mut b, pb) = build_point();
    assert!(a.run_for(&pa, 33).is_none());
    assert!(b.run_for(&pb, 33).is_none());
    assert_eq!(a.save_state(&pa), b.save_state(&pb));
}

#[test]
fn diff_localizes_a_perturbed_bank_word() {
    let (mut a, pa) = build_point();
    assert!(a.run_for(&pa, 40).is_none());
    let clean = a.save_state(&pa);
    let w = a.srf().read(3, 7);
    a.srf_mut().write(3, 7, w ^ 0x1);
    let dirty = a.save_state(&pa);
    let diffs = isrf_sim::diff_snapshots(&clean, &dirty).unwrap();
    assert_eq!(diffs.len(), 1);
    assert_eq!(diffs[0].path, "srf");
}

#[test]
fn restore_rejects_wrong_program_and_config() {
    let (mut m, p) = build_point();
    assert!(m.run_for(&p, 20).is_none());
    let snapshot = m.save_state(&p);

    // Same machine, structurally different program.
    let (mut other, _) = build_point();
    let mut p2 = StreamProgram::new();
    let dst = other.alloc_stream(1, 8);
    p2.load(AddrPattern::contiguous(0, 8), dst, false, &[]);
    assert!(matches!(
        other.restore_state(&p2, &snapshot),
        Err(SnapError::Mismatch(_))
    ));

    // Different machine configuration.
    let mut base_m = Machine::new(MachineConfig::preset(ConfigName::Base)).unwrap();
    assert!(matches!(
        base_m.restore_state(&p, &snapshot),
        Err(SnapError::Mismatch(_))
    ));
}

#[test]
fn restore_rejects_unknown_version_and_corruption() {
    let (mut m, p) = build_point();
    assert!(m.run_for(&p, 20).is_none());
    let snapshot = m.save_state(&p);

    let mut wrong_version = snapshot.clone();
    wrong_version[8..12].copy_from_slice(&9u32.to_le_bytes());
    let err = m.restore_state(&p, &wrong_version).unwrap_err();
    assert!(matches!(
        err,
        SnapError::UnsupportedVersion(9) | SnapError::BadHash
    ));

    let mut flipped = snapshot.clone();
    flipped[40] ^= 0x40;
    assert_eq!(m.restore_state(&p, &flipped), Err(SnapError::BadHash));
}

/// The `meta` byte after the two fingerprints and the first byte of `kctx`
/// are tags with one valid value, 0; a frame carrying anything else (with
/// a correct content hash) is refused, not misread.
#[test]
fn restore_rejects_nonzero_engine_and_context_tags() {
    let (mut m, p) = build_point();
    // Seven eighths through, the kernel is mid-flight and `kctx` non-empty.
    assert!(m.run_for(&p, straight().stats.cycles * 7 / 8).is_none());
    let snapshot = m.save_state(&p);
    for (section, at) in [("meta", 16), ("kctx", 0)] {
        let bytes = tampered(&snapshot, &[section], &|s| {
            assert_eq!(s[at], 0, "{section}[{at}] is the tag");
            s[at] = 1;
        });
        assert!(
            matches!(m.restore_state(&p, &bytes), Err(SnapError::Mismatch(_))),
            "{section} tag 1 must be a Mismatch"
        );
    }
}

/// `snapshot` with `edit` applied to the bytes of the section at `path`
/// (nested section names, outermost first), re-framed under a correct hash.
fn tampered(snapshot: &[u8], path: &[&str], edit: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
    fn rebuild(bytes: &[u8], path: &[&str], edit: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
        let Some((name, rest)) = path.split_first() else {
            let mut out = bytes.to_vec();
            edit(&mut out);
            return out;
        };
        let sections: Vec<(String, Vec<u8>)> = snap::read_sections(bytes)
            .unwrap()
            .into_iter()
            .map(|s| {
                let bytes = if s.name == *name {
                    rebuild(&s.bytes, rest, edit)
                } else {
                    s.bytes
                };
                (s.name, bytes)
            })
            .collect();
        let mut e = Enc::new();
        snap::write_sections(&mut e, &sections);
        e.into_bytes()
    }
    snap::frame(&rebuild(snap::unframe(snapshot).unwrap(), path, edit))
}

/// A decoded list length sizes an allocation, so a correctly framed and
/// hashed snapshot claiming 2^40 or 2^62 elements — in a pending load's
/// fill data, in the paused run's ready list, in an in-flight indexed
/// transfer's addresses — must be an error before it is an allocation
/// (`memory allocation of 4398046511104 bytes failed` aborts the process;
/// 2^62 words overflow `usize`).
#[test]
fn restore_refuses_list_lengths_the_bytes_cannot_hold() {
    let mut m = Machine::new(MachineConfig::preset(ConfigName::Isrf4)).unwrap();
    let dst = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.load(
        AddrPattern::Indexed((0..64).rev().collect()),
        dst,
        false,
        &[],
    );
    // Parked before its first cycle, the run's ready list holds the load...
    assert!(m.run_for(&p, 0).is_none());
    let unissued = m.save_state(&p);
    // ...and five cycles in, the load is a pending fill of 64 words and an
    // in-flight transfer over 64 addresses.
    assert!(m.run_for(&p, 5).is_none());
    let in_flight = m.save_state(&p);

    // `run`: the paused flag, both stats blocks and the op count, then per
    // op a done byte and a dependence count, then the ready list.
    let run_at = 1 + 12 * 8 + 3 * 8 + 8 + (1 + 4) * p.len();
    // `pending`: slot count, occupied flag, op, fill flag and the seven
    // words of the destination binding, then the fill data.
    let pending_at = 8 + 1 + 8 + 1 + 7 * 4;
    // `mem/sys`: clock, two credits, words served, next id and the traffic
    // block, then the in-flight count, the transfer's id (raw, slot,
    // generation) and pattern tag 2, then its addresses.
    let sys_at = 5 * 8 + 3 * 8 + 8 + (8 + 4 + 4) + 1;
    let cases: [(&[u8], &[&str], usize, u64); 3] = [
        (&unissued, &["run"], run_at, 1),
        (&in_flight, &["pending"], pending_at, 64),
        (&in_flight, &["mem", "sys"], sys_at, 64),
    ];
    for (snapshot, path, at, true_len) in cases {
        for len in [true_len, 1 << 40, 1 << 62] {
            let bytes = tampered(snapshot, path, &|section| {
                let field = &mut section[at..at + 8];
                assert_eq!(
                    *field,
                    true_len.to_le_bytes(),
                    "{path:?}[{at}] is the length"
                );
                field.copy_from_slice(&len.to_le_bytes());
            });
            let restored = m.restore_state(&p, &bytes);
            assert_eq!(
                restored.is_ok(),
                len == true_len,
                "{path:?} length {len}: {restored:?}"
            );
        }
    }
}
