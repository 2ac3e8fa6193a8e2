//! Differential checks on small synthetic programs covering every stream
//! kind and op class, independent of the application suite.

use std::sync::Arc;

use isrf_check::run_differential;
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{KernelBuilder, Operand, StreamKind, ValueId};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_kernel::Kernel;
use isrf_mem::AddrPattern;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;

fn machine(name: ConfigName) -> Machine {
    Machine::new(MachineConfig::preset(name)).unwrap()
}

fn sched_for(m: &Machine, k: &Kernel) -> isrf_kernel::sched::Schedule {
    schedule(k, &SchedParams::from_machine(m.config())).unwrap()
}

#[test]
fn scale_kernel_matches_reference() {
    let mut m = machine(ConfigName::Base);
    let mut b = KernelBuilder::new("scale");
    let si = b.stream("in", StreamKind::SeqIn);
    let so = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(si);
    let two = b.constant(2);
    let y = b.mul(x, two);
    b.seq_write(so, y);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let n = 256u32;
    for i in 0..n {
        m.mem_mut().memory_mut().write(i, i + 1);
    }
    let inp = m.alloc_stream(1, n);
    let outp = m.alloc_stream(1, n);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
    let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
    p.store(outp, AddrPattern::contiguous(10_000, n), false, &[kk]);

    let out =
        run_differential(&mut m, &p, &[(10_000, n)]).unwrap_or_else(|e| panic!("diverged: {e}"));
    assert_eq!(out.counts.inlane_words, 0);
    for i in 0..n {
        assert_eq!(m.mem().memory().read(10_000 + i), 2 * (i + 1));
    }
}

#[test]
fn loop_carried_accumulation_matches_reference() {
    let mut m = machine(ConfigName::Base);
    let mut b = KernelBuilder::new("prefix");
    let si = b.stream("in", StreamKind::SeqIn);
    let so = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(si);
    let acc = b.push(
        isrf_kernel::Opcode::Add,
        vec![Operand::from(x), Operand::carried(ValueId(1), 1, 100)],
    );
    b.seq_write(so, acc);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let n = 64u32;
    for i in 0..n {
        m.mem_mut().memory_mut().write(i, i);
    }
    let inp = m.alloc_stream(1, n);
    let outp = m.alloc_stream(1, n);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
    let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
    p.store(outp, AddrPattern::contiguous(1000, n), false, &[kk]);
    run_differential(&mut m, &p, &[(1000, n)]).unwrap_or_else(|e| panic!("diverged: {e}"));
}

/// Every kind of operand the tape's warm-up table serves, read before and
/// after its distance, on half a row chunk, one chunk and two: a producer
/// read at distances 1 and 2 with different `init`s, a `Const` read at
/// distance 2 and `IterId` at distance 1. Each feeds a subtraction, so two
/// operands that trade their `init`s or distances change the result, and
/// the first three iterations are held to the values the IR defines.
#[test]
fn warm_up_operands_match_reference_on_4_8_and_16_lanes() {
    let mut b = KernelBuilder::new("warm");
    let si = b.stream("in", StreamKind::SeqIn);
    let (o1, o2) = (
        b.stream("o1", StreamKind::SeqOut),
        b.stream("o2", StreamKind::SeqOut),
    );
    let x = b.seq_read(si);
    let k = b.constant(7);
    let it = b.iter_id();
    let y = b.sub(Operand::carried(x, 1, 1000), Operand::carried(x, 2, 2000));
    let z = b.sub(Operand::carried(k, 2, 3000), Operand::carried(it, 1, 4000));
    b.seq_write(o1, y);
    b.seq_write(o2, z);
    let kernel = Arc::new(b.build().unwrap());
    for lanes in [4u32, 8, 16] {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.lanes = lanes as usize;
        let mut m = Machine::new(cfg).unwrap();
        let s = sched_for(&m, &kernel);
        let iters = 6;
        let n = lanes * iters;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, i + 1);
        }
        let inp = m.alloc_stream(1, n);
        let (out1, out2) = (m.alloc_stream(1, n), m.alloc_stream(1, n));
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(
            Arc::clone(&kernel),
            s,
            vec![inp, out1, out2],
            iters.into(),
            &[l],
        );
        p.store(out1, AddrPattern::contiguous(1000, n), false, &[kk]);
        p.store(out2, AddrPattern::contiguous(2000, n), false, &[kk]);
        run_differential(&mut m, &p, &[(1000, n), (2000, n)])
            .unwrap_or_else(|e| panic!("{lanes} lanes: diverged: {e}"));
        let x = |j: u32, lane: u32| j * lanes + lane + 1;
        let read = |at: u32| m.mem().memory().read(at);
        for lane in 0..lanes {
            let y: Vec<u32> = (0..3).map(|j| read(1000 + j * lanes + lane)).collect();
            let y0 = [1000u32.wrapping_sub(2000), x(0, lane).wrapping_sub(2000)];
            assert_eq!(y, [y0[0], y0[1], x(1, lane) - x(0, lane)], "{lanes} lanes");
            let z: Vec<u32> = (0..3).map(|j| read(2000 + j * lanes + lane)).collect();
            assert_eq!(
                z,
                [3000u32.wrapping_sub(4000), 3000, 7 - 1],
                "{lanes} lanes"
            );
        }
    }
}

#[test]
fn inlane_indexed_lookup_matches_reference_with_exact_counts() {
    let mut m = machine(ConfigName::Isrf4);
    let mut b = KernelBuilder::new("lut");
    let si = b.stream("in", StreamKind::SeqIn);
    let lut = b.stream("LUT", StreamKind::IdxInRead);
    let so = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(si);
    let mask = b.constant(0xff);
    let a = b.and(x, mask);
    let v = b.idx_load(lut, a);
    let y = b.add(x, v);
    b.seq_write(so, y);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);
    let inp = m.alloc_stream(1, 512);
    let lutb = m.alloc_stream(1, 256 * 8);
    let outp = m.alloc_stream(1, 512);
    let ivals: Vec<u32> = (0..512).map(|i| i * 7).collect();
    m.write_stream(&inp, &ivals);
    let lvals: Vec<u32> = (0..2048).map(|i| i / 8).collect();
    m.write_stream(&lutb, &lvals);
    let mut p = StreamProgram::new();
    let kk = p.kernel(Arc::clone(&k), s, vec![inp, lutb, outp], 64, &[]);
    p.store(outp, AddrPattern::contiguous(9000, 512), false, &[kk]);
    let out =
        run_differential(&mut m, &p, &[(9000, 512)]).unwrap_or_else(|e| panic!("diverged: {e}"));
    assert_eq!(out.counts.inlane_words, 512, "one word per input element");
    assert_eq!(out.counts.crosslane_words, 0);
}

#[test]
fn crosslane_permutation_matches_reference() {
    let mut m = machine(ConfigName::Isrf4);
    let mut b = KernelBuilder::new("xl");
    let data = b.stream("data", StreamKind::IdxCrossRead);
    let so = b.stream("out", StreamKind::SeqOut);
    let lane = b.lane_id();
    let one = b.constant(1);
    let lanes = b.lane_count();
    let iter = b.iter_id();
    let l1 = b.add(lane, one);
    let wrapped = b.rem(l1, lanes);
    let base = b.mul(iter, lanes);
    let rec = b.add(base, wrapped);
    let v = b.idx_load(data, rec);
    b.seq_write(so, v);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let n = 64u32;
    let dstream = m.alloc_stream(1, n);
    let ostream = m.alloc_stream(1, n);
    let vals: Vec<u32> = (0..n).map(|i| 100 + i).collect();
    m.write_stream(&dstream, &vals);
    let mut p = StreamProgram::new();
    let kk = p.kernel(
        Arc::clone(&k),
        s,
        vec![dstream, ostream],
        (n / 8) as u64,
        &[],
    );
    p.store(ostream, AddrPattern::contiguous(5000, n), false, &[kk]);
    let out =
        run_differential(&mut m, &p, &[(5000, n)]).unwrap_or_else(|e| panic!("diverged: {e}"));
    assert_eq!(out.counts.crosslane_words, n as u64);
    assert_eq!(out.counts.inlane_words, 0);
}

#[test]
fn indexed_write_scatter_matches_reference() {
    let mut m = machine(ConfigName::Isrf4);
    let mut b = KernelBuilder::new("scatter");
    let dst = b.stream("dst", StreamKind::IdxInWrite);
    let lane = b.lane_id();
    let iter = b.iter_id();
    let c100 = b.constant(100);
    let v0 = b.mul(lane, c100);
    let v = b.add(v0, iter);
    let seven = b.constant(7);
    let addr = b.sub(seven, iter);
    b.idx_write(dst, addr, v);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let dstream = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    let kk = p.kernel(Arc::clone(&k), s, vec![dstream], 8, &[]);
    p.store(dstream, AddrPattern::contiguous(4000, 64), false, &[kk]);
    let out =
        run_differential(&mut m, &p, &[(4000, 64)]).unwrap_or_else(|e| panic!("diverged: {e}"));
    assert_eq!(out.counts.inlane_words, 64, "one write per lane-iteration");
}

#[test]
fn conditional_streams_match_reference() {
    let mut m = machine(ConfigName::Base);
    let mut b = KernelBuilder::new("compact");
    let si = b.stream("in", StreamKind::SeqIn);
    let so = b.stream("out", StreamKind::CondOut);
    let x = b.seq_read(si);
    let one = b.constant(1);
    let odd = b.and(x, one);
    b.cond_write(so, odd, x);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let n = 64u32;
    for i in 0..n {
        m.mem_mut().memory_mut().write(i, i);
    }
    let inp = m.alloc_stream(1, n);
    let outp = m.alloc_stream(1, n / 2);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
    let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
    p.store(outp, AddrPattern::contiguous(2000, n / 2), false, &[kk]);
    run_differential(&mut m, &p, &[(2000, n / 2)]).unwrap_or_else(|e| panic!("diverged: {e}"));
}

#[test]
fn conditional_read_distribution_matches_reference() {
    let mut m = machine(ConfigName::Base);
    let mut b = KernelBuilder::new("dist");
    let si = b.stream("in", StreamKind::CondIn);
    let so = b.stream("out", StreamKind::SeqOut);
    let lane = b.lane_id();
    let one = b.constant(1);
    let lsb = b.and(lane, one);
    let zero = b.constant(0);
    let even = b.eq(lsb, zero);
    let v = b.cond_read(si, even);
    b.seq_write(so, v);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);

    let inp = m.alloc_stream(1, 32);
    let outp = m.alloc_stream(1, 64);
    let vals: Vec<u32> = (0..32).map(|i| 500 + i).collect();
    m.write_stream(&inp, &vals);
    let mut p = StreamProgram::new();
    let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], 8, &[]);
    p.store(outp, AddrPattern::contiguous(3000, 64), false, &[kk]);
    run_differential(&mut m, &p, &[(3000, 64)]).unwrap_or_else(|e| panic!("diverged: {e}"));
}

#[test]
fn comm_and_scratch_match_reference() {
    let mut m = machine(ConfigName::Base);
    let mut b = KernelBuilder::new("rot-sp");
    let so = b.stream("out", StreamKind::SeqOut);
    let lane = b.lane_id();
    let c10 = b.constant(10);
    let v = b.mul(lane, c10);
    let r = b.comm_rotate(1, v);
    let addr = b.constant(3);
    b.scratch_write(addr, r);
    let rd = b.scratch_read(addr);
    let x = b.comm_xor(1, rd);
    b.seq_write(so, x);
    let k = Arc::new(b.build().unwrap());
    let s = sched_for(&m, &k);
    let outp = m.alloc_stream(1, 16);
    let mut p = StreamProgram::new();
    let kk = p.kernel(Arc::clone(&k), s, vec![outp], 2, &[]);
    p.store(outp, AddrPattern::contiguous(6000, 16), false, &[kk]);
    run_differential(&mut m, &p, &[(6000, 16)]).unwrap_or_else(|e| panic!("diverged: {e}"));
}

/// The reference executor must *detect* an injected functional divergence,
/// not paper over it: poison one SRF word after snapshotting by running a
/// store the machine sees but the reference doesn't.
#[test]
fn divergence_is_detected() {
    let mut m = machine(ConfigName::Base);
    let n = 64u32;
    for i in 0..n {
        m.mem_mut().memory_mut().write(i, i + 1);
    }
    let inp = m.alloc_stream(1, n);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
    p.store(inp, AddrPattern::contiguous(10_000, n), false, &[l]);
    // Tamper with the machine's memory after the reference snapshot by
    // running the program against a machine whose input differs.
    let mut reference = isrf_check::RefMachine::from_machine(&m);
    m.mem_mut().memory_mut().write(5, 999_999);
    reference.run(&p);
    m.run(&p);
    assert_ne!(
        m.mem().memory().read(10_000 + 5),
        reference.mem().read(10_000 + 5),
        "tampered word must differ"
    );
}
