//! Gather-pattern negative corpus: the indexed-bounds checks (V301 and V303)
//! exercised by the access shapes the sparse workloads introduce —
//! pointer-stream-driven condensed gathers, index streams exceeding the
//! SRF allocation, and unaligned (lane-skewed) cross-lane gathers. Each
//! case asserts the exact finding list and the `.isrf` source line.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::sched::{schedule, SchedParams, Schedule};
use isrf_lang::parse_kernel;
use isrf_sim::{Machine, StreamBinding, StreamProgram};
use isrf_verify::{codes, Diagnostic, Verifier};

const G301: &str = include_str!("corpus/g301_gather_on_base.isrf");
const G303_OVERRUN: &str = include_str!("corpus/g303_gather_overrun.isrf");
const G303_UNALIGNED: &str = include_str!("corpus/g303_unaligned_lane_gather.isrf");

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

fn compile(src: &str, params_from: ConfigName) -> (Arc<isrf_kernel::ir::Kernel>, Schedule) {
    let k = Arc::new(parse_kernel(src).expect("corpus kernel parses"));
    let params = SchedParams::from_machine(&MachineConfig::preset(params_from));
    let s = schedule(&k, &params).expect("corpus kernel schedules");
    (k, s)
}

fn fill(m: &mut Machine, b: &StreamBinding) {
    let data: Vec<Word> = (0..b.words()).map(|k| (k * 5 + 3) as Word).collect();
    m.write_stream(b, &data);
}

/// The full SpMV gather shape (ptr + val + condensed X + out) on a
/// machine built from `cfg`, with the kernel scheduled under
/// `sched_from`'s latencies.
fn gather_case(src: &str, cfg: MachineConfig, sched_from: ConfigName) -> (Machine, StreamProgram) {
    let k = Arc::new(parse_kernel(src).expect("corpus kernel parses"));
    let params = SchedParams::from_machine(&MachineConfig::preset(sched_from));
    let s = schedule(&k, &params).expect("corpus kernel schedules");
    let mut m = Machine::new(cfg).expect("config validates");
    let ptr = m.alloc_stream(1, 64);
    fill(&mut m, &ptr);
    let val = m.alloc_stream(1, 64);
    fill(&mut m, &val);
    let x = m.alloc_stream(1, 256);
    fill(&mut m, &x);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![ptr, val, x, out], 8, &[]);
    (m, p)
}

#[test]
fn gather_on_base_is_v301() {
    // Base parameters cannot be assumed to schedule indexed ops; borrow
    // the ISRF4 latencies — the machine under verification stays Base.
    let (m, p) = gather_case(
        G301,
        MachineConfig::preset(ConfigName::Base),
        ConfigName::Isrf4,
    );
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(
        codes_of(&d),
        [codes::INDEXED_ON_NON_INDEXED_CONFIG],
        "{d:?}"
    );
    assert_eq!(d[0].kernel.as_deref(), Some("spmv_gather"));
    assert_eq!(d[0].line, Some(line_of(G301, "X[")), "{}", d[0]);
    assert!(d[0].message.contains("indexed stream `X`"), "{}", d[0]);
}

/// The three-stream shape (no val stream) used by the V303 cases.
fn overrun_case(src: &str) -> (Machine, StreamProgram) {
    let (k, s) = compile(src, ConfigName::Isrf4);
    let mut m = Machine::new(MachineConfig::preset(ConfigName::Isrf4)).expect("preset validates");
    let ptr = m.alloc_stream(1, 64);
    fill(&mut m, &ptr);
    // 256 one-word records across 8 banks: valid cross-lane records
    // 0..=255.
    let x = m.alloc_stream(1, 256);
    fill(&mut m, &x);
    let out = m.alloc_stream(1, 64);
    let mut p = StreamProgram::new();
    p.kernel(k, s, vec![ptr, x, out], 8, &[]);
    (m, p)
}

#[test]
fn gather_overrunning_allocation_is_v303() {
    let (m, p) = overrun_case(G303_OVERRUN);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::INDEX_OUT_OF_BOUNDS], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("spmv_gather"));
    assert_eq!(d[0].line, Some(line_of(G303_OVERRUN, "X[")), "{}", d[0]);
    // The masked-and-biased pointer interval and the allocation bound
    // both appear in the message.
    assert!(d[0].message.contains("[512, 527]"), "{}", d[0]);
    assert!(d[0].message.contains("0..=255"), "{}", d[0]);
}

#[test]
fn unaligned_lane_skewed_gather_is_v303() {
    let (m, p) = overrun_case(G303_UNALIGNED);
    let d = diags(&m, &p, &Verifier::new());
    assert_eq!(codes_of(&d), [codes::INDEX_OUT_OF_BOUNDS], "{d:?}");
    assert_eq!(d[0].kernel.as_deref(), Some("lane_gather"));
    assert_eq!(d[0].line, Some(line_of(G303_UNALIGNED, "X[")), "{}", d[0]);
    assert!(d[0].message.contains("[300, 307]"), "{}", d[0]);
}

#[test]
fn indexed_check_carries_all_gather_findings() {
    // Every gather case's findings come from the Indexed family, not
    // incidental cascades.
    for (m, p) in [
        gather_case(
            G301,
            MachineConfig::preset(ConfigName::Base),
            ConfigName::Isrf4,
        ),
        overrun_case(G303_OVERRUN),
        overrun_case(G303_UNALIGNED),
    ] {
        let d = diags(&m, &p, &Verifier::new());
        assert!(!d.is_empty(), "expected a finding");
        assert!(d.iter().all(|d| d.check == "indexed"), "{d:?}");
    }
}
