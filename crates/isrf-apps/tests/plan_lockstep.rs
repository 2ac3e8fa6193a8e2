//! An app's plan is its preparation with the data left out. On every app,
//! preset and profile, the plan's config, `VerifyEnv`, program and
//! `Verifier::report` equal those of `prepare_app`'s machine and program,
//! and the plan's machine holds no memory image and has simulated no cycle:
//! admission, which verifies the plan, reads exactly what a worker verifies.

use isrf_apps::{plan_app, prepare_app, Profile, APPS};
use isrf_core::config::ConfigName;
use isrf_verify::Verifier;

fn plan_is_preparation_without_data(profile: Profile) {
    for app in APPS {
        for config in ConfigName::ALL {
            let at = format!("{app}/{config}/{profile:?}");
            let plan = plan_app(app, config, profile);
            let m = &plan.machine;
            assert_eq!(m.mem().memory().touched_chunks(), 0, "{at}: memory image");
            assert_eq!(m.now(), 0, "{at}: a cycle simulated");
            let env = m.verify_env();
            let report = Verifier::new().report(m.config(), &env, &plan.program);

            let pr = prepare_app(app, config, profile);
            let pm = &pr.machine;
            assert_eq!(m.config(), pm.config(), "{at}: config");
            assert_eq!(env, pm.verify_env(), "{at}: VerifyEnv");
            assert_eq!(plan.outputs, pr.outputs, "{at}: output regions");
            assert!(
                format!("{:?}", plan.program) == format!("{:?}", pr.program),
                "{at}: programs differ"
            );
            let prepared = Verifier::new().report(pm.config(), &pm.verify_env(), &pr.program);
            assert!(
                format!("{report:?}") == format!("{prepared:?}"),
                "{at}: reports differ"
            );
        }
    }
}

#[test]
fn small_plans_are_preparations_without_data() {
    plan_is_preparation_without_data(Profile::Small);
}

#[test]
fn paper_plans_are_preparations_without_data() {
    plan_is_preparation_without_data(Profile::Paper);
}
