//! Lockstep determinism: two machines built alike and stepped alike in
//! 64-cycle windows never diverge. Their snapshots are byte-identical at
//! every window boundary, and both runs complete on the same cycle.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};

const OUT_BASE: u32 = 8192;
const OUT_WORDS: u32 = 64;

/// The table-lookup point also used by the snapshot round-trip tests:
/// two loads (a LUT and an input stream), one indexed-access kernel, one
/// store — long enough to span several 64-cycle windows.
fn build_point() -> (Machine, StreamProgram) {
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let mut machine = Machine::new(cfg).unwrap();

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
    let k = p.kernel(kernel, sched, vec![input, lut, output], 8, &[l1, l2]);
    p.store(
        output,
        AddrPattern::contiguous(OUT_BASE, OUT_WORDS),
        false,
        &[k],
    );
    (machine, p)
}

#[test]
fn identical_machines_never_diverge() {
    let (mut a, p) = build_point();
    let (mut b, _) = build_point();
    assert_eq!(a.save_state(&p), b.save_state(&p), "prepared state");
    let mut at = 0;
    loop {
        let done = a.run_for(&p, 64);
        assert_eq!(b.run_for(&p, 64), done, "window after cycle {at}");
        at += 64;
        assert_eq!(a.save_state(&p), b.save_state(&p), "cycle {at}");
        if done.is_some() {
            break;
        }
    }
    assert!(at > 2 * 64, "the run spans several windows");
    assert!(!a.mid_run() && !b.mid_run(), "both runs should complete");
}
