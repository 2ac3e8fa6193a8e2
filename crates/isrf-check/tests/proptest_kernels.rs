//! Random kernels against the reference executor, with pinned timing.
//!
//! The corpus of [`isrf_gen::Recipe`] kernels — arbitrary ALU opcodes
//! (including the divider and `Select`), loop-carried operands, folded
//! constant / lane-id / iteration-id producers, cross-lane `Comm`
//! permutations, two sequential inputs and two or three outputs (so one
//! schedule slot holds several stall checks) and, on ISRF4, an in-lane
//! indexed table lookup — runs through a load → kernel → store program,
//! verifier-clean. Values are checked by
//! [`run_differential`] against `RefMachine`, which shares no operand
//! resolution or ALU code with the simulator; timing is checked against
//! `tests/golden/proptest_kernels.digest`, one line per case and config
//! holding the cycle count and an FNV-1a digest of the whole trace-event
//! stream. The same corpus then runs, values only, on 4- and 16-lane
//! machines, where the executor's eight-lane row chunks have a padded
//! tail or a second chunk.
//!
//! The corpus is the same on every run. Regenerate the digest after an
//! intentional timing change with
//! `UPDATE_GOLDEN=1 cargo test -p isrf-check --test proptest_kernels`.

use std::fmt::Write;

use isrf_check::{golden, run_differential};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::fnv1a;
use isrf_gen::Recipe;
use isrf_trace::Tracer;
use isrf_verify::Verifier;

/// Run one case on one configuration, once: values against the reference
/// executor, and the digest line of that run's trace (`run_differential`
/// keeps the recording tracer installed here); `None` when the kernel does
/// not schedule or the verifier rejects the program. The digest pins cycles
/// and events, so a run that is not deterministic still fails.
fn run_case(cfg: ConfigName, r: &Recipe) -> Option<String> {
    let g = r.generate(&MachineConfig::preset(cfg))?;
    Verifier::new().verify(&g.cfg, &g.env, &g.program).ok()?;
    let mut m = g.materialise();
    m.set_tracer(Tracer::recording(1 << 18));
    let stats = run_differential(&mut m, &g.program, &g.outputs)
        .unwrap_or_else(|e| panic!("{cfg}: diverged from the reference executor: {e}\n{r:?}"))
        .stats;
    let recorder = m.take_tracer().into_recorder().expect("recording");
    let ring = recorder.ring();
    assert_eq!(ring.dropped(), 0, "{cfg}: trace ring too small");
    let mut stream = String::new();
    for (cycle, ev) in ring.iter() {
        writeln!(stream, "@{cycle} {ev:?}").expect("write to String");
    }
    Some(format!(
        "{cfg} cycles={} events={} trace={:016x}",
        stats.cycles,
        ring.len(),
        fnv1a(stream.as_bytes())
    ))
}

/// Every generated kernel computes what the reference semantics say, on
/// Base and ISRF4, in exactly the committed number of cycles with exactly the
/// committed event stream.
#[test]
fn random_kernels_match_reference_and_pinned_timing() {
    let mut got = String::new();
    for (case, r) in Recipe::corpus(48).iter().enumerate() {
        for &cfg in r.configs() {
            let line = run_case(cfg, r).unwrap_or_else(|| format!("{cfg} discarded"));
            writeln!(got, "case {case:02} iters={:02} {line}", r.iters).expect("write to String");
        }
    }
    golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/proptest_kernels.digest"
        ),
        &got,
    );
}

/// The same corpus computes what the reference semantics say on 4 lanes
/// (half a row chunk: the rest is padding no result may leak from) and on
/// 16 (two chunks: rotations and butterflies cross between them, lane ids
/// run past 7). Values only: no timing is pinned for these machines.
#[test]
fn random_kernels_match_reference_on_4_and_16_lanes() {
    let mut ran = 0;
    for r in Recipe::corpus(48) {
        for lanes in [4, 16] {
            for &cfg in r.configs() {
                let mut mcfg = MachineConfig::preset(cfg);
                mcfg.lanes = lanes;
                let Some(g) = r.generate(&mcfg) else {
                    continue;
                };
                if Verifier::new().verify(&g.cfg, &g.env, &g.program).is_err() {
                    continue;
                }
                let mut m = g.materialise();
                run_differential(&mut m, &g.program, &g.outputs).unwrap_or_else(|e| {
                    panic!("{cfg} x {lanes} lanes: diverged from the reference: {e}\n{r:?}")
                });
                ran += 1;
            }
        }
    }
    assert!(ran >= 100, "only {ran} of the corpus's points ran");
}
