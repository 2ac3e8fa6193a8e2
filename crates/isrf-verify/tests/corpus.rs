//! The negative corpus: one deliberately ill-formed program per diagnostic
//! code, each asserting the *exact* finding list (no cascades, no noise)
//! and — for kernel-scoped findings — that the span resolves to the right
//! `.isrf` source line. A final test proves each check family's corpus
//! entry is found by that family, named in the finding's `check`.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::ir::Opcode;
use isrf_kernel::sched::{schedule, SchedParams, Schedule};
use isrf_lang::parse_kernel;
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, SimError, SrfRange, StreamBinding, StreamProgram};
use isrf_verify::{codes, Diagnostic, Verifier};

const V101: &str = include_str!("corpus/v101_unfilled_read.isrf");
const V102: &str = include_str!("corpus/v102_unallocated.isrf");
const V103: &str = include_str!("corpus/v103_binding_overflow.isrf");
const V201: &str = include_str!("corpus/v201_overlap.isrf");
const V202: &str = include_str!("corpus/v202_capacity.isrf");
const V301: &str = include_str!("corpus/v301_indexed_on_base.isrf");
const V303: &str = include_str!("corpus/v303_oob_index.isrf");
const V310P: &str = include_str!("corpus/v310_producer.isrf");
const V310C: &str = include_str!("corpus/v310_consumer.isrf");
const V311: &str = include_str!("corpus/v311_scatter.isrf");
const V312P: &str = include_str!("corpus/v312_producer.isrf");
const V401: &str = include_str!("corpus/v401_slack.isrf");
const V501: &str = include_str!("corpus/v501_fifo_deadlock.isrf");
const W601: &str = include_str!("corpus/w601_dead_output.isrf");

fn diags(m: &Machine, p: &StreamProgram, v: &Verifier) -> Vec<Diagnostic> {
    v.verify(m.config(), &m.verify_env(), p)
        .err()
        .map_or_else(Vec::new, |e| e.diagnostics)
}

fn codes_of(d: &[Diagnostic]) -> Vec<&str> {
    d.iter().map(|d| d.code.as_str()).collect()
}

/// 1-based line of the first source line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    (src.lines()
        .position(|l| l.contains(needle))
        .expect("needle")
        + 1) as u32
}

fn base_machine() -> Machine {
    Machine::new(MachineConfig::preset(ConfigName::Base)).expect("preset validates")
}

fn isrf4_machine() -> Machine {
    Machine::new(MachineConfig::preset(ConfigName::Isrf4)).expect("preset validates")
}

fn compile(src: &str, params_from: ConfigName) -> (Arc<isrf_kernel::ir::Kernel>, Schedule) {
    let k = Arc::new(parse_kernel(src).expect("corpus kernel parses"));
    let params = SchedParams::from_machine(&MachineConfig::preset(params_from));
    let s = schedule(&k, &params).expect("corpus kernel schedules");
    (k, s)
}

fn fill(m: &mut Machine, b: &StreamBinding) {
    let data: Vec<Word> = (0..b.words()).map(|k| (k * 7 + 13) as Word).collect();
    m.write_stream(b, &data);
}

// ---------------------------------------------------------------------------
// Case builders (shared with the load-bearing test)
// ---------------------------------------------------------------------------

fn case_v101() -> (Machine, StreamProgram) {
    let mut m = base_machine();
    let (k, s) = compile(V101, ConfigName::Base);
    let input = m.alloc_stream(1, 64); // never filled
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, out], 8, &[]);
    (m, p)
}

fn case_v201() -> (Machine, StreamProgram) {
    let mut m = base_machine();
    let (k, s) = compile(V201, ConfigName::Base);
    let buf = m.alloc_stream(1, 64);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    // Two loads into the same destination with no dependence between them.
    let l1 = p.load(AddrPattern::contiguous(0, 64), buf, false, &[]);
    let l2 = p.load(AddrPattern::contiguous(1024, 64), buf, false, &[]);
    p.kernel(k, s, vec![buf, out], 8, &[l1, l2]);
    (m, p)
}

fn case_v301() -> (Machine, StreamProgram) {
    let mut m = base_machine();
    // Base parameters cannot be assumed to schedule indexed ops; borrow the
    // ISRF4 latencies — the machine under verification stays Base.
    let (k, s) = compile(V301, ConfigName::Isrf4);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    let lut = m.alloc_stream(1, 512);
    fill(&mut m, &lut);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, lut, out], 8, &[]);
    (m, p)
}

fn case_v401() -> (Machine, StreamProgram) {
    let mut m = isrf4_machine();
    let (k, mut s) = compile(V401, ConfigName::Isrf4);
    // Tamper with the (correct) schedule: pull the indexed data read to 5
    // cycles after its address issue, below the in-lane separation of 6.
    let r = k
        .ops
        .iter()
        .position(|o| matches!(o.opcode, Opcode::IdxRead(_)))
        .expect("lookup kernel has an indexed read");
    let a = k.ops[r].operands[0].value.index();
    s.slots[r] = s.slots[a] + 5;
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    let lut = m.alloc_stream(1, 512);
    fill(&mut m, &lut);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, lut, out], 8, &[]);
    (m, p)
}

fn case_v501() -> (Machine, StreamProgram) {
    let mut m = isrf4_machine();
    let k = Arc::new(parse_kernel(V501).expect("corpus kernel parses"));
    let r = k
        .ops
        .iter()
        .position(|o| matches!(o.opcode, Opcode::IdxRead(_)))
        .expect("lookup kernel has an indexed read");
    let a = k.ops[r].operands[0].value.index();
    // Hand-build a schedule (II = 1, one op per cycle) that separates the
    // address push from its data pop by 17 cycles: 16 records would have to
    // sit outstanding, but the 8-entry FIFO can only shed records into the
    // 8-word buffer — a guaranteed wedge.
    let n = k.ops.len();
    let mut slots: Vec<u32> = (0..n as u32).collect();
    for (i, slot) in slots.iter_mut().enumerate().skip(r) {
        *slot = a as u32 + 17 + (i - r) as u32;
    }
    let span = slots.iter().max().copied().unwrap_or(0) + 1;
    let s = Schedule {
        ii: 1,
        slots,
        span,
        completion: span,
    };
    let input = m.alloc_stream(1, 512);
    fill(&mut m, &input);
    let lut = m.alloc_stream(1, 512);
    fill(&mut m, &lut);
    let out = m.alloc_stream(1, 512);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, lut, out], 64, &[]);
    (m, p)
}

/// Producer (constant 100 into `idx`) feeding a consumer that indexes a
/// 64-record-per-lane table with it: invisible per kernel, V310 across.
fn case_v310() -> (Machine, StreamProgram) {
    let mut m = isrf4_machine();
    let (maker, ms) = compile(V310P, ConfigName::Isrf4);
    let (consumer, cs) = compile(V310C, ConfigName::Isrf4);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    let idx = m.alloc_stream(1, 64);
    let lut = m.alloc_stream(1, 512);
    fill(&mut m, &lut);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    let prod = p.kernel(maker, ms, vec![input, idx], 8, &[]);
    p.kernel(consumer, cs, vec![idx, lut, out], 8, &[prod]);
    (m, p)
}

/// Same producer, but the consumer *writes* through the poisoned index.
fn case_v311() -> (Machine, StreamProgram) {
    let mut m = isrf4_machine();
    let (maker, ms) = compile(V310P, ConfigName::Isrf4);
    let (updater, us) = compile(V311, ConfigName::Isrf4);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    let idx = m.alloc_stream(1, 64);
    let val = m.alloc_stream(1, 64);
    fill(&mut m, &val);
    let tbl = m.alloc_stream(1, 512);
    fill(&mut m, &tbl);
    let mut p = StreamProgram::new();
    let prod = p.kernel(maker, ms, vec![input, idx], 8, &[]);
    p.kernel(updater, us, vec![idx, val, tbl], 8, &[prod]);
    (m, p)
}

/// Producer writes -5 into every index record; a gather adds them to
/// base 64 in u32 arithmetic, so every address provably wraps.
fn case_v312() -> (Machine, StreamProgram) {
    let mut m = isrf4_machine();
    let (maker, ms) = compile(V312P, ConfigName::Isrf4);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    let idx = m.alloc_stream(1, 64);
    let dst = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    let prod = p.kernel(maker, ms, vec![input, idx], 8, &[]);
    p.gather_dyn(idx, 64, dst, false, &[prod]);
    (m, p)
}

/// A kernel output nothing ever reads back: dead SRF space (W601).
fn case_w601() -> (Machine, StreamProgram) {
    let mut m = base_machine();
    let (k, s) = compile(W601, ConfigName::Base);
    let buf = m.alloc_stream(1, 64);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, 64), buf, false, &[]);
    p.kernel(k, s, vec![buf, out], 8, &[l]);
    (m, p)
}

/// A 32-words-per-bank range holding 8 words of records (W602).
fn case_w602() -> (Machine, StreamProgram) {
    let mut m = base_machine();
    let oversized = StreamBinding::whole(m.alloc_stream(1, 256).range, 1, 64);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, 64), oversized, false, &[]);
    p.store(oversized, AddrPattern::contiguous(4096, 64), false, &[l]);
    (m, p)
}

// ---------------------------------------------------------------------------
// One test per diagnostic code
// ---------------------------------------------------------------------------

#[test]
fn v101_unfilled_read() {
    let (m, p) = case_v101();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::UNFILLED_READ], "{d:?}");
    assert!(d[0].message.contains("stream `in`"), "{}", d[0]);
    assert_eq!(d[0].prog_op, Some(0));
}

#[test]
fn v102_unallocated_binding() {
    let mut m = base_machine();
    let (k, s) = compile(V102, ConfigName::Base);
    let out = m.alloc_stream(1, 64);
    // A binding the allocator never handed out (bank words 512..520).
    let input = StreamBinding::whole(
        SrfRange {
            base: 512,
            words_per_bank: 8,
        },
        1,
        64,
    );
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, out], 8, &[]);
    let d = diags(&m, &p, &Verifier::new());
    // Exactly V102: the V101 cascade for the same stream is suppressed.
    assert_eq!(codes_of(&d), [codes::UNALLOCATED_BINDING], "{d:?}");
    assert!(d[0].message.contains("stream `in`"), "{}", d[0]);
}

#[test]
fn v103_binding_overflow() {
    let mut m = base_machine();
    let (k, s) = compile(V103, ConfigName::Base);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    // 128 one-word records need 16 words per bank; the range holds 8.
    let out = StreamBinding::whole(m.alloc_stream(1, 64).range, 1, 128);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, out], 8, &[]);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::BINDING_OVERFLOW], "{d:?}");
    assert!(d[0].message.contains("stream `out`"), "{}", d[0]);
}

#[test]
fn v201_overlap_hazard() {
    let (m, p) = case_v201();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::OVERLAP_HAZARD], "{d:?}");
    assert!(
        d[0].message.contains("load (op 0)") && d[0].message.contains("load (op 1)"),
        "{}",
        d[0]
    );
}

#[test]
fn v202_capacity_exceeded() {
    let mut m = base_machine();
    let (k, s) = compile(V202, ConfigName::Base);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    // Range [4000, 4200) spills past the 4096-word bank.
    let out = StreamBinding::whole(
        SrfRange {
            base: 4000,
            words_per_bank: 200,
        },
        1,
        1600,
    );
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, out], 8, &[]);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::CAPACITY_EXCEEDED], "{d:?}");
    assert!(d[0].message.contains("stream `out`"), "{}", d[0]);
}

#[test]
fn v301_indexed_on_non_indexed_config() {
    let (m, p) = case_v301();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(
        codes_of(&d),
        [codes::INDEXED_ON_NON_INDEXED_CONFIG],
        "{d:?}"
    );
    assert_eq!(d[0].kernel.as_deref(), Some("lookup"));
    assert_eq!(d[0].line, Some(line_of(V301, "LUT[")), "{}", d[0]);
}

#[test]
fn v303_index_out_of_bounds() {
    let mut m = isrf4_machine();
    let (k, s) = compile(V303, ConfigName::Isrf4);
    let input = m.alloc_stream(1, 64);
    fill(&mut m, &input);
    // 512 global one-word records = 64 per lane: valid in-lane indices 0..=63.
    let lut = m.alloc_stream(1, 512);
    fill(&mut m, &lut);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![input, lut, out], 8, &[]);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::INDEX_OUT_OF_BOUNDS], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("lookup"));
    assert_eq!(d[0].line, Some(line_of(V303, "LUT[")), "{}", d[0]);
    assert!(d[0].message.contains("0..=63"), "{}", d[0]);
}

#[test]
fn v401_insufficient_slack() {
    let (m, p) = case_v401();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::INSUFFICIENT_SLACK], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("lookup"));
    assert_eq!(d[0].line, Some(line_of(V401, "LUT[")), "{}", d[0]);
}

#[test]
fn v501_fifo_deadlock() {
    let (m, p) = case_v501();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::FIFO_DEADLOCK], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("lookup"));
    assert_eq!(d[0].line, Some(line_of(V501, "LUT[")), "{}", d[0]);
    assert!(d[0].message.contains("address FIFO"), "{}", d[0]);
}

#[test]
fn v310_propagated_index_out_of_bounds() {
    let (m, p) = case_v310();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::PROPAGATED_INDEX_OOB], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("lookup_dyn"));
    assert_eq!(d[0].line, Some(line_of(V310C, "LUT[")), "{}", d[0]);
    assert!(d[0].message.contains("[100, 100]"), "{}", d[0]);
    // The dataflow path names the producing kernel and the SRF region.
    assert!(
        d[0].notes.iter().any(|n| n.contains("make_idx")),
        "{:?}",
        d[0].notes
    );
}

#[test]
fn v311_propagated_write_out_of_bounds() {
    let (m, p) = case_v311();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::PROPAGATED_WRITE_OOB], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("table_update"));
    assert_eq!(d[0].line, Some(line_of(V311, "TBL[")), "{}", d[0]);
    assert!(d[0].message.contains("stream `TBL`"), "{}", d[0]);
}

#[test]
fn v312_gather_address_wrap() {
    let (m, p) = case_v312();
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::GATHER_ADDRESS_WRAP], "{d:?}");
    assert_eq!(d[0].prog_op, Some(1));
    assert!(d[0].message.contains("base 64"), "{}", d[0]);
    assert!(
        d[0].notes.iter().any(|n| n.contains("[-5, -5]")),
        "{:?}",
        d[0].notes
    );
}

#[test]
fn w601_dead_stream_is_a_warning() {
    let (m, p) = case_w601();
    let v = Verifier::new();
    // The program is *valid* — space findings never fail verification.
    assert!(diags(&m, &p, &v).is_empty());
    let r = v.report(m.config(), &m.verify_env(), &p);
    assert_eq!(
        codes_of(&r.warnings),
        [codes::DEAD_STREAM],
        "{:?}",
        r.warnings
    );
    let w = &r.warnings[0];
    assert_eq!(w.kernel.as_deref(), Some("copy_through"));
    assert_eq!(w.line, Some(line_of(W601, "out <<")), "{w}");
}

#[test]
fn w602_over_allocation_is_a_warning() {
    let (m, p) = case_w602();
    let v = Verifier::new();
    assert!(diags(&m, &p, &v).is_empty());
    let r = v.report(m.config(), &m.verify_env(), &p);
    assert_eq!(
        codes_of(&r.warnings),
        [codes::OVER_ALLOCATION],
        "{:?}",
        r.warnings
    );
    assert!(
        r.warnings[0].message.contains("8 of the 32 words"),
        "{}",
        r.warnings[0]
    );
}

#[test]
fn gather_index_stream_must_be_filled() {
    // Builder-level case: a dynamic gather whose index stream was never
    // produced reads garbage addresses at issue.
    let mut m = base_machine();
    let idx = m.alloc_stream(1, 64);
    let dst = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.gather_dyn(idx, 0, dst, false, &[]);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::UNFILLED_READ], "{d:?}");
    assert!(d[0].message.contains("index stream"), "{}", d[0]);
}

// ---------------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------------

#[test]
fn each_check_is_load_bearing() {
    type Case = fn() -> (Machine, StreamProgram);
    let cases: [(Case, &str, &str); 6] = [
        (case_v101, "liveness", codes::UNFILLED_READ),
        (case_v201, "allocation", codes::OVERLAP_HAZARD),
        (case_v301, "indexed", codes::INDEXED_ON_NON_INDEXED_CONFIG),
        (case_v310, "propagation", codes::PROPAGATED_INDEX_OOB),
        (case_v401, "slack", codes::INSUFFICIENT_SLACK),
        (case_v501, "deadlock", codes::FIFO_DEADLOCK),
    ];
    for (build, check, code) in cases {
        let (m, p) = build();
        let found = diags(&m, &p, &Verifier::new());
        assert_eq!(codes_of(&found), [code], "{check}: {found:?}");
        assert_eq!(found[0].check, check, "{code} comes from {check}");
    }
    // Space findings surface through `report` alone, never as a hard
    // finding.
    let (m, p) = case_w601();
    let r = Verifier::new().report(m.config(), &m.verify_env(), &p);
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(codes_of(&r.warnings), [codes::DEAD_STREAM]);
    assert_eq!(r.warnings[0].check, "space");
}

/// Verification is a call, never the machine's: `Verifier::verify` turns
/// the V101 case away, and the machine still simulates it when told to.
#[test]
fn the_machine_never_verifies() {
    let (mut m, p) = case_v101();
    let err = Verifier::new()
        .verify(m.config(), &m.verify_env(), &p)
        .expect_err("program is ill-formed");
    assert_eq!(err.diagnostics[0].code, codes::UNFILLED_READ);
    let stats = m.step(&p, u64::MAX).expect("step does not verify");
    assert!(stats.expect("the kernel completes").cycles > 0);
}

// ---------------------------------------------------------------------------
// The V501 verdict, checked against the machine
// ---------------------------------------------------------------------------

/// Machine cycle the V501 case is reported deadlocked at: it advances last
/// at cycle 54, and the limit is a million stalled cycles in a row.
const V501_DEADLOCK_CYCLE: u64 = 1_000_054;

/// Run unverified, the wedge V501 predicts happens, and the machine
/// reports it as a typed error — the same one from an uninterrupted
/// `step`, from a repeated `step`, from a run sliced every 1000 cycles and
/// from a fresh machine restored from the parked one's snapshot.
#[test]
fn v501_wedge_is_a_typed_deadlock() {
    let (mut m, p) = case_v501();
    let err = m.step(&p, u64::MAX).expect_err("the schedule wedges");
    let SimError::Deadlock {
        cycle,
        op,
        kernel,
        stalled_cycles,
        reason,
        ..
    } = &err
    else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(
        (*cycle, *op, kernel.as_str()),
        (V501_DEADLOCK_CYCLE, 0, "lookup")
    );
    assert_eq!(*stalled_cycles, 1_000_000);
    assert!(
        matches!(reason.as_str(), "addr_fifo_full" | "idx_data_not_ready"),
        "{err}"
    );

    // The machine is parked on the failing cycle, not torn down.
    assert!(m.mid_run());
    assert_eq!(m.now(), V501_DEADLOCK_CYCLE);
    assert_eq!(m.step(&p, u64::MAX), Err(err.clone()));
    assert_eq!(
        m.now(),
        V501_DEADLOCK_CYCLE,
        "a parked machine does not tick"
    );

    let snapshot = m.save_state(&p);
    let (mut restored, p2) = case_v501();
    restored.restore_state(&p2, &snapshot).expect("restores");
    assert_eq!(restored.step(&p2, u64::MAX), Err(err.clone()));
    assert_eq!(restored.save_state(&p2), snapshot);

    let (mut sliced, p3) = case_v501();
    let stopped = loop {
        match sliced.step(&p3, 1000) {
            Ok(None) => {}
            other => break other,
        }
    };
    assert_eq!(stopped, Err(err));
    assert_eq!(sliced.save_state(&p3), snapshot);
}

#[test]
#[should_panic(expected = "lookup")]
fn v501_wedge_panics_through_run() {
    let (mut m, p) = case_v501();
    m.run(&p);
}
