//! Property: any program the verifier passes must simulate to completion —
//! no runtime hazard asserts, no wedges — and a well-formed one must pass.
//! The [`isrf_gen::Recipe`] corpus runs on all four presets: the verifier
//! must turn away exactly the recipes with an in-lane lookup on the presets
//! without an indexed SRF, and the machine panicking on a program it passed
//! fails the test.

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_gen::Recipe;
use isrf_verify::Verifier;

#[test]
fn verified_clean_programs_run_to_completion() {
    let (mut ran, mut cases) = ([0; 4], [0; 4]);
    for r in Recipe::corpus(48) {
        for cfg in ConfigName::ALL {
            let mcfg = MachineConfig::preset(cfg);
            cases[cfg as usize] += usize::from(!r.indexed || mcfg.srf.indexed.is_some());
            let Some(g) = r.generate(&mcfg) else {
                continue;
            };
            let mut m = g.materialise();
            assert_eq!(m.verify_env(), g.env, "{cfg}: {r:?}");
            if Verifier::new().verify(&g.cfg, &g.env, &g.program).is_err() {
                continue;
            }
            // A clean verdict must mean a clean run: any panic here (runtime
            // hazard assert, wedge detector) is a verifier soundness hole.
            assert!(m.run(&g.program).cycles > 0);
            ran[cfg as usize] += 1;
        }
    }
    assert_eq!(
        ran,
        cases,
        "programs run per config of {:?}",
        ConfigName::ALL
    );
}
