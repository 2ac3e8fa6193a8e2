//! Strip-mined programs simulated: a seeded sample of [`isrf_gen::Spec`]s
//! across all four presets — zero to three chained kernels, gathers, in-lane
//! lookups, ragged strips, single and double buffers, cacheable transfers,
//! runs of repeated load addresses and side gathers — each materialised on
//! the machine its verifier facts describe, verified and run against the
//! reference executor by `run_differential`, and held to
//! `isrf_verify::cost_model`'s whole-program cycle floor. The app-suite
//! version of the floor check is
//! `crates/bench/tests/analyzer.rs`; this one covers programs the apps never
//! build. The sample is spread over the cores. Each differential run
//! compares the whole memory image, which reaches past the outputs at 8 Mi
//! words, a block at a time: the 512 programs take about half a second in
//! a debug build on two cores, where 24 took 0.55–0.70 s while the compare
//! walked the image word by word. The first 24 run no lookup kernel on
//! ISRF1; an in-lane issue budget one short (`service_pass`'s `issues`)
//! deadlocks 39 of the 512 and none of those 24.

use isrf_check::{run_differential, run_parallel};
use isrf_gen::Spec;
use isrf_verify::cost_model;

#[test]
fn static_floor_bounds_differentially_checked_points() {
    run_parallel(&Spec::corpus(512), |spec| {
        let g = spec.generate();
        let mut m = g.materialise();
        assert_eq!(m.verify_env(), g.env, "{spec:?}");
        let floor = cost_model(&g.cfg, &g.program).cycle_floor;
        let out = run_differential(&mut m, &g.program, &g.outputs)
            .unwrap_or_else(|e| panic!("{spec:?} diverged: {e}"));
        assert!(
            floor <= out.stats.cycles,
            "{spec:?}: floor {floor} > simulated {}",
            out.stats.cycles
        );
    });
}
