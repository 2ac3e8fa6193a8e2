//! The application registry: every benchmark app reachable by its short
//! name, with one sizing knob.
//!
//! The figure harness, the differential suite, the trace/verify binaries
//! and the batch simulation server all need the same thing — "give me a
//! ready-to-run machine + program + expected outputs for app X on config Y
//! at size Z" — so the lookup lives here, below all of them. Each app is a
//! plan plus a load: [`plan_app`] is what a static analysis reads (config,
//! SRF allocation, program, output regions, `VerifyEnv`), and
//! [`prepare_app`] is that plan with its data loaded.

use isrf_core::config::MachineConfig;

use crate::common::{Plan, Prepared};
use crate::{bfs, fft2d, filter, igraph, rijndael, sort, spmv, stencil};

/// Benchmark sizing profile: `Small` keeps unit tests and CI quick;
/// `Paper` uses the paper's workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Reduced sizes for tests and CI.
    Small,
    /// The paper's workload sizes.
    Paper,
}

/// The eight distinct applications (the IG benchmarks share one program
/// family), by the short names the differential suite, the `trace` binary
/// and the job server use.
pub const APPS: [&str; 8] = [
    "fft2d", "rijndael", "sort", "filter", "igraph", "spmv", "stencil", "bfs",
];

/// Build a ready-to-run machine + program + expected outputs for one app
/// on `cfg` — a [`isrf_core::config::ConfigName`] for its preset, or any
/// valid 8-lane [`MachineConfig`] — without running it: the caller
/// installs tracers, runs, and inspects, or calls
/// [`Prepared::run_checked`]. [`plan_app`], then [`Plan::load`].
///
/// # Panics
///
/// As [`plan_app`].
pub fn prepare_app(app: &str, cfg: impl Into<MachineConfig>, profile: Profile) -> Prepared {
    plan_app(app, cfg, profile).load()
}

/// The [`Plan`] of one app on `cfg`: its machine with the SRF allocated
/// and the fills of any setup program marked, the measured program and
/// its output regions — no memory image built, no setup simulated. This
/// is the one table of Small/Paper sizes. `"igraph"` is the `IG_SML`
/// dataset; the other Table 4 datasets the figures run go by their own
/// names (`"IG_SCL"`, `"IG_DMS"`, `"IG_DCS"`).
///
/// # Panics
///
/// Panics on an unknown app name (use [`APPS`]), and as
/// [`crate::common::machine`] does on a config it refuses.
pub fn plan_app(app: &str, cfg: impl Into<MachineConfig>, profile: Profile) -> Plan {
    let cfg = &cfg.into();
    let size = |small, paper| sized(profile, small, paper);
    match app {
        "fft2d" => fft2d::plan(
            cfg,
            &fft2d::Fft2dParams {
                reps: size(1, 2),
                ..Default::default()
            },
        ),
        "rijndael" => rijndael::plan(
            cfg,
            &rijndael::RijndaelParams {
                chains_per_lane: size(2, 8),
                waves: size(2, 4),
                strips: size(2, 4),
                ..Default::default()
            },
        ),
        "sort" => sort::plan(
            cfg,
            &sort::SortParams {
                keys_per_lane: size(64, 512),
                ..Default::default()
            },
        ),
        "filter" => filter::plan(
            cfg,
            &filter::FilterParams {
                rows: size(32, 256),
                ..Default::default()
            },
        ),
        ig if ig == "igraph" || ig.starts_with("IG_") => {
            let mut ds = igraph::dataset(if ig == "igraph" { "IG_SML" } else { ig });
            // Small shrinks the graph, keeping strip structure intact.
            ds.nodes /= size(if ds.degree == 4 { 4 } else { 2 }, 1);
            igraph::plan(cfg, &ds)
        }
        "spmv" => spmv::plan(cfg, &spmv_params(profile)),
        "stencil" => stencil::plan(
            cfg,
            &stencil::StencilParams {
                rows: size(64, 256),
                ..Default::default()
            },
        ),
        "bfs" => bfs::plan(cfg, &bfs_params(profile)),
        other => panic!("unknown app {other}; expected one of {APPS:?}"),
    }
}

/// `small` at the Small profile, `paper` at the Paper one.
fn sized(profile: Profile, small: u32, paper: u32) -> u32 {
    match profile {
        Profile::Small => small,
        Profile::Paper => paper,
    }
}

/// The SpMV point [`prepare_app`] prepares at `profile`.
pub(crate) fn spmv_params(profile: Profile) -> spmv::SpmvParams {
    spmv::SpmvParams {
        rows: sized(profile, 256, 2048),
        strip_rows: sized(profile, 32, 64),
        ..Default::default()
    }
}

/// The BFS point [`prepare_app`] prepares at `profile`.
pub(crate) fn bfs_params(profile: Profile) -> bfs::BfsParams {
    bfs::BfsParams {
        nodes: sized(profile, 512, 4096),
        strip_nodes: sized(profile, 64, 128),
        max_degree: sized(profile, 8, 12),
        window: sized(profile, 32, 64),
        max_sweeps: sized(profile, 8, 12),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;

    #[test]
    fn every_registered_app_prepares() {
        for app in APPS {
            for cfg in ConfigName::ALL {
                let pr = prepare_app(app, cfg, Profile::Small);
                assert!(!pr.program.is_empty(), "{app} builds a program");
            }
        }
    }

    #[test]
    #[should_panic(expected = "MachineConfig::lanes must be 8")]
    fn other_lane_counts_are_refused() {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.lanes = 4;
        prepare_app("sort", cfg, Profile::Small);
    }
}
