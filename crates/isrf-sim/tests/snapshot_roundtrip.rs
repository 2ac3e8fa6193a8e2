//! Machine-level snapshot round-trip: pause a run at cycle granularity,
//! serialize, restore into a fresh machine, and require the resumed run to
//! be byte-identical — stats, trace events, output memory — to an
//! uninterrupted one. Also pins the format itself: serialize →
//! deserialize → re-serialize is byte-identical, and mismatched frames are
//! rejected with typed errors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{self, Dec, Enc, SnapError};
use isrf_core::stats::{MemTraffic, RunStats};
use isrf_core::Word;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::machine::{Machine, SimError};
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

/// Resuming a paused run with a program of another length is an error,
/// not a panic, and leaves the paused run as it was.
#[test]
fn stepping_a_paused_run_with_another_program_is_refused() {
    let (mut m, p) = build_point();
    let mut other = StreamProgram::new();
    let dst = m.alloc_stream(1, 8);
    other.load(AddrPattern::contiguous(0, 8), dst, false, &[]);
    assert_ne!(other.len(), p.len());
    assert!(m.run_for(&p, 20).is_none());
    let paused = m.save_state(&p);
    assert_eq!(m.step(&other, 64), Err(SimError::ProgramMismatch));
    assert_eq!(m.save_state(&p), paused);
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
    // A frame of the previous layout, version 1, under a correct hash.
    let mut v1 = snapshot.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let hash_at = v1.len() - 8;
    let h = snap::fnv1a(&v1[..hash_at]);
    v1[hash_at..].copy_from_slice(&h.to_le_bytes());
    assert_eq!(
        m.restore_state(&p, &v1),
        Err(SnapError::UnsupportedVersion(1))
    );

    let mut flipped = snapshot.clone();
    flipped[40] ^= 0x40;
    assert_eq!(m.restore_state(&p, &flipped), Err(SnapError::BadHash));
}

/// `snapshot` with `edit` applied to the bytes of the section at `path`
/// (nested section names, outermost first), re-framed under a correct hash.
fn tampered(snapshot: &[u8], path: &[&str], edit: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
    snap::frame(&rebuilt(snap::unframe(snapshot).unwrap(), path, edit))
}

/// The section list `bytes` with `edit` applied to the section at `path`.
fn rebuilt(bytes: &[u8], path: &[&str], edit: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
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
                rebuilt(&s.bytes, rest, edit)
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

/// A lookup kernel with an in-lane indexed read (`LUT`), an in-lane indexed
/// write (`hist`) and a conditional output (`odd`), run beside a chain of
/// two loads whose second is still serving words while the kernel runs.
/// The kernel's inputs are written straight into the SRF and the loads
/// read memory nothing has written, so the frame backs no memory chunk.
fn mixed_point() -> (Machine, StreamProgram) {
    const WORDS: u32 = 512;
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let mut machine = Machine::new(cfg).unwrap();

    let mut b = KernelBuilder::new("mixed");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_lut = b.stream("LUT", StreamKind::IdxInRead);
    let s_hist = b.stream("hist", StreamKind::IdxInWrite);
    let s_odd = b.stream("odd", StreamKind::CondOut);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let v = b.idx_load(s_lut, a);
    b.idx_write(s_hist, a, v);
    let one = b.constant(1);
    let odd = b.and(a, one);
    b.cond_write(s_odd, odd, v);
    let c = b.add(a, v);
    b.seq_write(s_out, c);
    let kernel = Arc::new(b.build().unwrap());
    let sched = schedule(&kernel, &SchedParams::from_machine(machine.config())).unwrap();

    let lut = machine.alloc_stream(1, 256 * 8);
    let hist = machine.alloc_stream(1, 256 * 8);
    let input = machine.alloc_stream(1, WORDS);
    let odds = machine.alloc_stream(1, WORDS);
    let output = machine.alloc_stream(1, WORDS);
    let (few, many) = (machine.alloc_stream(1, 8), machine.alloc_stream(1, 64));
    machine.write_stream(
        &lut,
        &(0..256 * 8).map(|i| 1000 + i / 8).collect::<Vec<_>>(),
    );
    machine.write_stream(&input, &(0..WORDS).map(|i| i * 7 % 256).collect::<Vec<_>>());

    let mut p = StreamProgram::new();
    let first = p.load(
        AddrPattern::Indexed((0..8).rev().collect()),
        few,
        false,
        &[],
    );
    p.load(AddrPattern::contiguous(64, 64), many, false, &[first]);
    let bindings = vec![input, lut, hist, odds, output];
    p.kernel(kernel, sched, bindings, u64::from(WORDS / 8), &[]);
    (machine, p)
}

/// A cycle at which a `mixed_point` run, paused there, holds the kernel
/// mid-flight, the second load still serving words, an indexed read in flight
/// and an indexed write queued, read off a traced run. Each condition holds
/// a cycle either side too, so it does not hang on which side of a cycle's
/// events a pause falls: a read issued two or three cycles before lands
/// (`INLANE_LATENCY` = 4) after, and a write queue nonempty after an access
/// then is drained by none in the two cycles around the pause.
fn busy_cycle() -> u64 {
    let (mut m, p) = mixed_point();
    m.set_tracer(Tracer::recording(1 << 20));
    m.run(&p);
    let events = drain_events(&mut m);
    let cycle =
        |want: &dyn Fn(&TraceEvent) -> bool| events.iter().find(|(_, e)| want(e)).map(|e| e.0);
    let load = events.iter().find_map(|(c, e)| match e {
        TraceEvent::TransferStart { op: 1, id, .. } => Some((*c, *id)),
        _ => None,
    });
    let (load_at, load) = load.expect("the second load starts");
    let served = cycle(&|e| *e == TraceEvent::TransferServed { id: load }).unwrap();
    let start = cycle(&|e| matches!(e, TraceEvent::KernelStart { .. })).unwrap();
    let end = cycle(&|e| matches!(e, TraceEvent::KernelEnd { .. })).unwrap();
    let access = |c: u64, stream: u8, queued: bool| {
        events.iter().any(|(at, e)| {
            *at == c
                && matches!(e, &TraceEvent::IdxAccess { stream: s, fifo_after, .. }
                    if s == stream && (!queued || fifo_after > 0))
        })
    };
    (start.max(load_at) + 3..end.min(served) - 2)
        .find(|&t| {
            let before = [t - 3, t - 2];
            before.iter().any(|&c| access(c, 0, false))
                && before.iter().any(|&c| access(c, 1, true))
                && !access(t - 1, 1, false)
                && !access(t, 1, false)
        })
        .expect("a cycle with every kind of state in flight")
}

/// Restore reads every byte it is handed. In a frame that holds an
/// in-flight transfer, in-flight indexed reads, queued indexed writes and a
/// conditional stream, flipping bit 0 or bit 1 of a byte of `meta`, `run`,
/// `pending`, `mem/sys` or the head of `kctx`, under a correct hash, must
/// make restore refuse the frame or restore a machine whose own snapshot
/// differs; restore must never panic. Every byte of `meta` is tried, and
/// elsewhere one byte of each 8-byte window, drawn with a fixed seed: that
/// covers every field of 8 bytes or more in under a second.
#[test]
fn no_byte_is_ignored_on_restore() {
    let (mut m, p) = mixed_point();
    assert!(m.run_for(&p, busy_cycle()).is_none());
    let frame = m.save_state(&p);
    let payload = snap::unframe(&frame).unwrap();
    let (mut r, p2) = mixed_point();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut findings = Vec::new();
    for (path, head, window) in [
        (&["meta"][..], usize::MAX, 1),
        (&["run"], usize::MAX, 8),
        (&["pending"], usize::MAX, 8),
        (&["mem", "sys"], usize::MAX, 8),
        (&["kctx"], 64, 8),
    ] {
        let section = path.iter().fold(payload.to_vec(), |bytes, name| {
            let mut sections = snap::read_sections(&bytes).unwrap().into_iter();
            sections.find(|s| s.name == *name).unwrap().bytes
        });
        let end = section.len().min(head);
        assert!(end > 0, "{path:?} is empty");
        for from in (0..end).step_by(window) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let at = from + rng as usize % window.min(end - from);
            for bit in [1, 2] {
                let bytes = snap::frame(&rebuilt(payload, path, &|s| s[at] ^= bit));
                let what = format!("{path:?} byte {at} ^ {bit}");
                let restored = catch_unwind(AssertUnwindSafe(|| r.restore_state(&p2, &bytes)));
                match restored {
                    Err(_) => findings.push(format!("{what}: restore panics")),
                    Ok(Ok(())) if r.save_state(&p2) == frame => {
                        findings.push(format!("{what}: ignored"))
                    }
                    Ok(_) => {}
                }
            }
        }
    }
    assert!(findings.is_empty(), "{findings:#?}");
}

/// A kernel with a stream of every sequential and conditional kind — `SeqIn`,
/// `CondIn`, `CondLaneIn`, `SeqOut`, `CondOut` — and an in-lane indexed
/// read, its inputs written straight into the SRF. The odd input words
/// assert both conditional reads and the conditional write.
fn every_kind_point() -> (Machine, StreamProgram) {
    const WORDS: u32 = 512;
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let mut machine = Machine::new(cfg).unwrap();

    let mut b = KernelBuilder::new("every_kind");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_lut = b.stream("LUT", StreamKind::IdxInRead);
    let s_cin = b.stream("cin", StreamKind::CondIn);
    let s_lin = b.stream("lin", StreamKind::CondLaneIn);
    let s_odd = b.stream("odd", StreamKind::CondOut);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let v = b.idx_load(s_lut, a);
    let one = b.constant(1);
    let odd = b.and(a, one);
    let x = b.cond_read(s_cin, odd);
    let y = b.cond_lane_read(s_lin, odd);
    let vx = b.add(v, x);
    b.cond_write(s_odd, odd, vx);
    let ay = b.add(a, y);
    b.seq_write(s_out, ay);
    let kernel = Arc::new(b.build().unwrap());
    let sched = schedule(&kernel, &SchedParams::from_machine(machine.config())).unwrap();

    let lut = machine.alloc_stream(1, 256 * 8);
    let input = machine.alloc_stream(1, WORDS);
    let cin = machine.alloc_stream(1, WORDS);
    let lin = machine.alloc_stream(1, WORDS);
    let odds = machine.alloc_stream(1, WORDS);
    let output = machine.alloc_stream(1, WORDS);
    machine.write_stream(
        &lut,
        &(0..256 * 8).map(|i| 1000 + i / 8).collect::<Vec<_>>(),
    );
    machine.write_stream(&input, &(0..WORDS).map(|i| i * 7 % 256).collect::<Vec<_>>());
    machine.write_stream(&cin, &(0..WORDS).map(|i| 5000 + i).collect::<Vec<_>>());
    machine.write_stream(&lin, &(0..WORDS).map(|i| 9000 + i).collect::<Vec<_>>());

    let mut p = StreamProgram::new();
    let bindings = vec![input, lut, cin, lin, odds, output];
    p.kernel(kernel, sched, bindings, u64::from(WORDS / 8), &[]);
    (machine, p)
}

/// Per sequential or conditional stream slot of the kernel a frame holds
/// mid-flight, in slot order: its snapshot tag and the words each of its
/// rings buffers, read off the `run` section (per-lane slots, tags 0, 1 and
/// 3, write their lanes' words left and then one ring a lane; global slots,
/// tags 2 and 4, their words moved and then one ring; inputs keep each
/// word's arrival cycle).
fn rings_in_flight(frame: &[u8]) -> Vec<(u8, Vec<usize>)> {
    let sections = snap::read_sections(snap::unframe(frame).unwrap()).unwrap();
    let run = sections.into_iter().find(|s| s.name == "run").unwrap();
    let d = &mut Dec::new(&run.bytes);
    assert!(d.bool().unwrap(), "a paused run");
    RunStats::decode_state(d).unwrap();
    MemTraffic::decode_state(d).unwrap();
    let ops = d.usize().unwrap();
    for _ in 0..ops {
        d.bool().unwrap();
    }
    for _ in 0..ops {
        d.u32().unwrap();
    }
    d.usizes().unwrap();
    // The next kernel, its dispatch countdown, ops completed, live transfers.
    d.usize().unwrap();
    d.u32().unwrap();
    d.usize().unwrap();
    d.usize().unwrap();
    assert!(d.bool().unwrap(), "a kernel mid-flight");
    d.usize().unwrap();
    // Five cycle counters, two round-robin pointers, the network flag.
    for _ in 0..5 {
        d.u64().unwrap();
    }
    d.usize().unwrap();
    d.usize().unwrap();
    d.bool().unwrap();
    let ring = |d: &mut Dec, timed: bool| {
        let n = d.usize().unwrap();
        for _ in 0..n {
            if timed {
                d.u64().unwrap();
            }
            d.u32().unwrap();
        }
        n
    };
    let slots = d.usize().unwrap();
    let mut found = Vec::new();
    for _ in 0..slots {
        let tag = d.u8().unwrap();
        let rings = match tag {
            0 | 1 | 3 => {
                let lanes = d.usize().unwrap();
                for _ in 0..lanes {
                    d.u32().unwrap();
                }
                (0..lanes).map(|_| ring(d, tag != 1)).collect()
            }
            2 | 4 => {
                d.u32().unwrap();
                vec![ring(d, tag == 2)]
            }
            _ => continue,
        };
        found.push((tag, rings));
    }
    found
}

/// A whole-machine frame with every sequential and conditional stream kind
/// in flight: paused at the first cycle where every ring of every such slot
/// holds a word, restored into a fresh machine and resumed, it must finish
/// as a straight run does, and its bytes are pinned.
#[test]
fn every_stream_kind_resumes_mid_flight() {
    let (mut m, p) = every_kind_point();
    m.set_tracer(Tracer::recording(1 << 20));
    let stats = m.run(&p);
    let events = drain_events(&mut m);

    let (mut paused, p2) = every_kind_point();
    paused.set_tracer(Tracer::recording(1 << 20));
    let mut at = 0;
    let frame = loop {
        assert!(
            paused.run_for(&p2, 1).is_none(),
            "ran out before every ring held a word"
        );
        at += 1;
        let frame = paused.save_state(&p2);
        let rings = rings_in_flight(&frame);
        let tags: Vec<u8> = rings.iter().map(|r| r.0).collect();
        assert_eq!(tags, [0, 2, 3, 4, 1], "every kind, in slot order");
        if rings.iter().all(|(_, r)| r.iter().all(|&n| n > 0)) {
            break frame;
        }
    };
    let mut stitched = drain_events(&mut paused);
    let (mut r, p3) = every_kind_point();
    r.restore_state(&p3, &frame).unwrap();
    r.set_tracer(Tracer::recording(1 << 20));
    let resumed = r.run_for(&p3, u64::MAX).expect("resumed run completes");
    stitched.extend(drain_events(&mut r));
    assert_eq!(resumed, stats, "stats diverge (pause at {at})");
    assert_eq!(stitched, events, "trace diverges (pause at {at})");
    assert!(
        r.save_state(&p3) == m.save_state(&p),
        "machines diverge (pause at {at})"
    );
    assert_eq!(
        (at, frame.len(), snap::fnv1a(&frame)),
        (55, 146_790, 0x9024_12ce_c4f6_062c),
        "the mid-flight frame"
    );
}
