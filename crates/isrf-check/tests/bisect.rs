//! First-divergence bisection: two machines running the same program in
//! lockstep must bisect to `None` when healthy, and when a single SRF word
//! is deliberately corrupted at a chosen cycle, the bisector must report
//! exactly that cycle and localize the damage to the `srf` section.

use std::sync::Arc;

use isrf_check::{first_divergence, BisectError, PerturbAt};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, SimError, StreamProgram};

const OUT_BASE: u32 = 8192;
const OUT_WORDS: u32 = 64;

/// The table-lookup point also used by the snapshot round-trip tests:
/// two loads (a LUT and an input stream), one indexed-access kernel, one
/// store — long enough that a mid-run perturbation lands in live state.
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

/// Total cycles of an uninterrupted run of the point.
fn total_cycles() -> u64 {
    let (mut m, p) = build_point();
    m.run(&p).cycles
}

#[test]
fn identical_machines_never_diverge() {
    let (mut a, p) = build_point();
    let (mut b, _) = build_point();
    let d = first_divergence(&mut a, &mut b, &p, 64, None).expect("snapshots restore");
    assert!(
        d.is_none(),
        "healthy lockstep pair diverged: {}",
        d.unwrap()
    );
    assert!(!a.mid_run() && !b.mid_run(), "both runs should complete");
}

#[test]
fn bisector_pinpoints_injected_cycle() {
    let total = total_cycles();
    assert!(total > 16, "point too short to host a mid-run injection");
    // Corrupt an SRF word above the allocator high-water mark (no stream
    // ever writes it, so the damage persists in state from the injection
    // cycle on) at several awkward cycles, with chunk sizes that do and do
    // not divide them.
    for (inject, chunk) in [
        (total / 2, 64),
        (total / 3 + 1, 100),
        (7, 1000),
        (total - 2, 3),
    ] {
        let (mut a, p) = build_point();
        let (mut b, _) = build_point();
        let perturb = PerturbAt {
            cycle: inject,
            lane: 3,
            offset: 4000,
            xor: 0xdead_beef,
        };
        let d = first_divergence(&mut a, &mut b, &p, chunk, Some(perturb))
            .expect("snapshots restore")
            .unwrap_or_else(|| panic!("injection at cycle {inject} went undetected"));
        assert_eq!(
            d.cycle, inject,
            "bisector reported cycle {} for an injection at {inject} (chunk {chunk})",
            d.cycle
        );
        assert!(
            d.diffs.iter().any(|diff| diff.path == "srf"),
            "diff at cycle {inject} did not localize to the srf section: {:?}",
            d.diffs
        );
    }
}

#[test]
fn prepared_state_mismatch_reports_cycle_zero() {
    let (mut a, p) = build_point();
    let (mut b, _) = build_point();
    // Machines that disagree before a single cycle runs: a divergence "at
    // cycle 0" means the preparations differ, not the timing model.
    let w = b.srf().read(0, 5);
    b.srf_mut().write(0, 5, w ^ 1);
    let d = first_divergence(&mut a, &mut b, &p, 64, None)
        .expect("snapshots restore")
        .expect("prepared-state mismatch must be reported");
    assert_eq!(d.cycle, 0);
    assert!(d.diffs.iter().any(|diff| diff.path == "srf"));
}

#[test]
fn a_machine_that_cannot_step_is_an_error_not_a_panic() {
    let (mut a, p) = build_point();
    let (mut b, _) = build_point();
    // Both sides paused alike on a program of another length: the starting
    // snapshots agree, and the first step answers `ProgramMismatch`.
    let mut shorter = StreamProgram::new();
    shorter.load(
        AddrPattern::contiguous(0, OUT_WORDS),
        a.alloc_stream(1, OUT_WORDS),
        false,
        &[],
    );
    b.alloc_stream(1, OUT_WORDS);
    assert!(a.run_for(&shorter, 5).is_none() && b.run_for(&shorter, 5).is_none());
    let err = first_divergence(&mut a, &mut b, &p, 64, None).unwrap_err();
    assert_eq!(err, BisectError::Sim(SimError::ProgramMismatch));
}
