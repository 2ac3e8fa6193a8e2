//! `isrf-bench` is the tool crate (the `figures`, `verify`, `trace` and
//! `loadtest` bins); the timing harness is `benchmark/`, a package of its
//! own, and nothing here is timed.
//!
//! Every evaluation artifact of the HPCA 2004 indexed-SRF paper has a
//! generator here returning structured data, and the `figures` binary
//! renders them as text tables — the only rendering: two committed goldens
//! pin that text, and nothing here writes a file. [`select_points`] is the
//! `[app|all] [config|all] [--paper]` argument grammar the `verify` and
//! `trace` bins share. See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isrf_apps::{fft2d, filter, igraph, micro, rijndael, sort, APPS};
use isrf_check::run_parallel;
use isrf_core::config::{ConfigName, CrossLaneTopology, MachineConfig};
use isrf_core::stats::RunStats;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sram::{AreaModel, EnergyModel, SrfGeometry, SrfVariant};

/// The application benchmarks of Section 5.2 in the paper's figure order:
/// the figure label and the [`prepare_app`] name behind it.
pub const BENCHMARKS: [(&str, &str); 8] = [
    ("FFT 2D", "fft2d"),
    ("Rijndael", "rijndael"),
    ("Sort", "sort"),
    ("Filter", "filter"),
    ("IG_SML", "igraph"),
    ("IG_DMS", "IG_DMS"),
    ("IG_DCS", "IG_DCS"),
    ("IG_SCL", "IG_SCL"),
];

pub use isrf_apps::{prepare_app, Profile};

/// Run one app on `cfg` and hold the result to the app's host reference.
fn run(app: &str, cfg: impl Into<MachineConfig>, profile: Profile) -> RunStats {
    prepare_app(app, cfg, profile).run_checked()
}

/// Figure 11: off-chip memory traffic of ISRF and Cache normalized to Base.
///
/// All benchmark × config points run concurrently via the sweep driver;
/// results are grouped back per benchmark in input order, so the output is
/// identical to a serial sweep.
pub fn fig11(profile: Profile) -> Vec<(String, f64, f64)> {
    const CFGS: [ConfigName; 3] = [ConfigName::Base, ConfigName::Isrf4, ConfigName::Cache];
    let points: Vec<(&str, ConfigName)> = BENCHMARKS
        .iter()
        .flat_map(|&(_, app)| CFGS.iter().map(move |&cfg| (app, cfg)))
        .collect();
    let stats = run_parallel(&points, |&(app, cfg)| run(app, cfg, profile));
    BENCHMARKS
        .iter()
        .zip(stats.chunks_exact(CFGS.len()))
        .map(|(&(name, _), s)| {
            let (base, isrf, cache) = (&s[0], &s[1], &s[2]);
            (
                name.to_string(),
                isrf.mem.normalized_to(&base.mem),
                cache.mem.normalized_to(&base.mem),
            )
        })
        .collect()
}

/// One Figure 12 row: a config's execution-time breakdown normalized to
/// its benchmark's Base total.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine configuration.
    pub config: ConfigName,
    /// `[kernel loop, memory stall, SRF stall, overheads]`, as fractions
    /// of the Base configuration's total cycles.
    pub parts: [f64; 4],
    /// Absolute cycle count of this config's run.
    pub cycles: u64,
}

impl Fig12Row {
    /// Total normalized execution time.
    pub fn total(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Figure 12: execution-time breakdowns for all benchmarks and configs,
/// with every benchmark × config point simulated concurrently.
pub fn fig12(profile: Profile) -> Vec<Fig12Row> {
    let points: Vec<(&str, ConfigName)> = BENCHMARKS
        .iter()
        .flat_map(|&(_, app)| ConfigName::ALL.iter().map(move |&cfg| (app, cfg)))
        .collect();
    let stats = run_parallel(&points, |&(app, cfg)| run(app, cfg, profile));
    let mut rows = Vec::new();
    for (&(group, _), per_cfg) in BENCHMARKS
        .iter()
        .zip(stats.chunks_exact(ConfigName::ALL.len()))
    {
        let base = per_cfg[ConfigName::ALL
            .iter()
            .position(|&c| c == ConfigName::Base)
            .expect("Base is a config")];
        let d = base.cycles.max(1) as f64;
        for (&cfg, stats) in ConfigName::ALL.iter().zip(per_cfg) {
            let b = stats.breakdown;
            rows.push(Fig12Row {
                benchmark: group.to_string(),
                config: cfg,
                parts: [
                    b.kernel_loop as f64 / d,
                    b.mem_stall as f64 / d,
                    b.srf_stall as f64 / d,
                    b.overhead as f64 / d,
                ],
                cycles: stats.cycles,
            });
        }
    }
    rows
}

/// Figure 13: sustained SRF bandwidth demands (words/cycle/lane) per
/// benchmark on ISRF4, split `[sequential, cross-lane, in-lane]`.
pub fn fig13(profile: Profile) -> Vec<(String, [f64; 3])> {
    run_parallel(&BENCHMARKS, |&(name, app)| {
        let s = run(app, ConfigName::Isrf4, profile);
        (
            name.to_string(),
            s.srf.per_cycle_per_lane(s.main_loop_cycles, 8),
        )
    })
}

/// The kernels of the Figure 14–16 studies, by paper name.
fn study_kernel(name: &str) -> Kernel {
    let rk = isrf_apps::aes::key_expansion(&isrf_apps::aes::FIPS_KEY);
    match name {
        "FFT2D" => fft2d::build_bf_idx_kernel(8),
        "Rijndael" => rijndael::build_isrf_kernel(&rk, 1),
        "Sort1" => sort::sort1_kernel(),
        "Sort2" => sort::sort2_kernel(),
        "Filter" => filter::build_isrf_kernel(),
        "IGraph1" => igraph::build_kernel(&igraph::dataset("IG_DMS"), true),
        "IGraph2" => igraph::build_kernel(&igraph::dataset("IG_DCS"), true),
        _ => panic!("unknown study kernel {name}"),
    }
}

/// The in-lane kernels of Figures 14/15.
pub const INLANE_KERNELS: [&str; 5] = ["FFT2D", "Rijndael", "Sort1", "Sort2", "Filter"];
/// The cross-lane kernels of Figures 14/16.
pub const CROSSLANE_KERNELS: [&str; 2] = ["IGraph1", "IGraph2"];

/// Figure 14: static schedule length (II) of each kernel's inner loop as
/// the address/data separation grows, normalized to the shortest
/// separation. Returns `(kernel, Vec<(separation, normalized II)>)`.
pub fn fig14() -> Vec<(String, Vec<(u32, f64)>)> {
    let base = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
    let mut out = Vec::new();
    for &name in INLANE_KERNELS.iter().chain(CROSSLANE_KERNELS.iter()) {
        let k = study_kernel(name);
        let cross = CROSSLANE_KERNELS.contains(&name);
        let seps: Vec<u32> = if cross {
            (2..=24).step_by(2).collect()
        } else {
            (2..=10).collect()
        };
        let mut pts = Vec::new();
        let mut first = None;
        for &sep in &seps {
            let p = if cross {
                base.clone().with_separations(6, sep)
            } else {
                base.clone().with_separations(sep, 20)
            };
            let ii = schedule(&k, &p).expect("study kernels schedule").ii as f64;
            let f = *first.get_or_insert(ii);
            pts.push((sep, ii / f));
        }
        out.push((name.to_string(), pts));
    }
    out
}

/// Figure 15: execution time of the in-lane-indexed benchmarks as the
/// in-lane separation sweeps, normalized to each benchmark's minimum.
/// Returns `(benchmark, Vec<(separation, normalized cycles)>)`.
pub fn fig15(profile: Profile) -> Vec<(String, Vec<(u32, f64)>)> {
    separation_sweep(
        &BENCHMARKS[..4], // FFT 2D, Rijndael, Sort, Filter
        &(2..=10u32).step_by(2).collect::<Vec<_>>(),
        |sep| (sep, 20),
        profile,
    )
}

/// Figure 16: execution time of the cross-lane-indexed benchmarks as the
/// cross-lane separation sweeps, normalized to each benchmark's minimum.
pub fn fig16(profile: Profile) -> Vec<(String, Vec<(u32, f64)>)> {
    separation_sweep(
        &BENCHMARKS[5..7], // IG_DMS, IG_DCS
        &(4..=28u32).step_by(4).collect::<Vec<_>>(),
        |sep| (6, sep),
        profile,
    )
}

/// Shared driver for the Figure 15/16 separation sweeps: every
/// (benchmark, separation) point is its own parallel work item, run on
/// ISRF4 with the (in-lane, cross-lane) separations `over` gives it.
fn separation_sweep(
    benchmarks: &[(&str, &str)],
    seps: &[u32],
    over: impl Fn(u32) -> (u32, u32) + Sync,
    profile: Profile,
) -> Vec<(String, Vec<(u32, f64)>)> {
    let points: Vec<(&str, u32)> = benchmarks
        .iter()
        .flat_map(|&(_, app)| seps.iter().map(move |&sep| (app, sep)))
        .collect();
    let cycles = run_parallel(&points, |&(app, sep)| {
        let mut cfg = MachineConfig::preset(ConfigName::Isrf4);
        let (inlane, crosslane) = over(sep);
        cfg.sched.inlane_addr_data_separation = inlane;
        cfg.sched.crosslane_addr_data_separation = crosslane;
        run(app, cfg, profile).cycles as f64
    });
    benchmarks
        .iter()
        .zip(cycles.chunks_exact(seps.len()))
        .map(|(&(name, _), c)| {
            let min = c.iter().copied().fold(f64::MAX, f64::min);
            (
                name.to_string(),
                seps.iter().zip(c).map(|(&s, &cy)| (s, cy / min)).collect(),
            )
        })
        .collect()
}

/// Figure 17: in-lane indexed throughput vs sub-arrays and FIFO depth.
/// Returns `(subarrays, Vec<(fifo, words/cycle/lane)>)`.
pub fn fig17(cycles: u64) -> Vec<(usize, Vec<(usize, f64)>)> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&s| {
            let pts = [1usize, 2, 4, 6, 8]
                .iter()
                .map(|&f| (f, micro::inlane_throughput(s, f, 8, cycles)))
                .collect();
            (s, pts)
        })
        .collect()
}

/// Figure 18: cross-lane throughput vs network ports per bank and
/// inter-cluster communication occupancy.
/// Returns `(ports, Vec<(occupancy%, words/cycle/lane)>)`.
pub fn fig18(cycles: u64) -> Vec<(usize, Vec<(u32, f64)>)> {
    [1usize, 2, 4]
        .iter()
        .map(|&ports| {
            let pts = (0..=80u32)
                .step_by(10)
                .map(|c| (c, micro::crosslane_throughput(ports, c, cycles)))
                .collect();
            (ports, pts)
        })
        .collect()
}

/// Section 4.6 area results: `(variant, SRF overhead, die overhead)`.
pub fn area_table() -> Vec<(SrfVariant, f64, f64)> {
    let model = AreaModel::default();
    let geom = SrfGeometry::paper_default();
    SrfVariant::ALL
        .iter()
        .skip(1) // sequential is the baseline
        .map(|&v| {
            (
                v,
                model.overhead_vs_sequential(&geom, v),
                model.die_overhead(&geom, v),
            )
        })
        .collect()
}

/// Section 4.5 energy results in nJ: sequential word, in-lane indexed
/// word, cross-lane indexed word, DRAM access.
pub fn energy_table() -> (f64, f64, f64, f64) {
    let m = EnergyModel::default();
    let g = SrfGeometry::paper_default();
    (
        m.seq_word_nj(&g),
        m.indexed_word_nj(&g),
        m.crosslane_word_nj(&g),
        m.dram_access_nj(),
    )
}

/// Headline summary: per benchmark, ISRF4 speedup over Base, traffic
/// reduction (Section 1's 1.03x–4.1x and up-to-95% claims), and the
/// data-movement energy ratio implied by the Section 4.5 model.
pub fn summary(profile: Profile) -> Vec<(String, f64, f64, f64)> {
    let em = EnergyModel::default();
    let geom = SrfGeometry::paper_default();
    run_parallel(&BENCHMARKS, |&(name, app)| {
        let base = run(app, ConfigName::Base, profile);
        let isrf = run(app, ConfigName::Isrf4, profile);
        (
            name.to_string(),
            isrf.speedup_over(&base),
            1.0 - isrf.mem.normalized_to(&base.mem),
            em.run_energy_nj(&geom, &isrf) / em.run_energy_nj(&geom, &base).max(1e-9),
        )
    })
}

/// Ablation of the Sort baseline mechanism on Base at the Small size:
/// cycles of the conditional-stream merge the suite uses, then of the
/// bitonic-network baseline it replaced.
pub fn sort_baseline_ablation() -> (u64, u64) {
    let cfg = MachineConfig::preset(ConfigName::Base);
    let params = sort::SortParams {
        keys_per_lane: 64,
        ..Default::default()
    };
    (
        sort::prepare(&cfg, &params).run_checked().cycles,
        sort::prepare_base_bitonic(&cfg, &params)
            .run_checked()
            .cycles,
    )
}

/// Ablation of the Section 7 sparse cross-lane interconnect: sustained
/// words/cycle/lane with one network port per bank and no inter-cluster
/// communication, on a full crossbar and on a ring.
pub fn crosslane_topology_ablation() -> [(CrossLaneTopology, f64); 2] {
    [CrossLaneTopology::Crossbar, CrossLaneTopology::Ring].map(|topo| {
        (
            topo,
            micro::crosslane_throughput_with_topology(1, 0, topo, 3000),
        )
    })
}

/// The argument grammar the `verify` and `trace` bins share: `[app|all]
/// [config|all] [--paper]`, both selectors defaulting to `all`, a config
/// named in any case. Returns the selected points, apps outermost, and the
/// sizing profile. Every other `--flag` is handed to `flag` together with
/// the arguments after it, from which it may take a value; `None` from it,
/// a third positional, or a name that is neither an app nor a config is a
/// usage error and comes back as `None`.
pub fn select_points(
    args: &[String],
    mut flag: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Option<()>,
) -> Option<(Vec<(&'static str, ConfigName)>, Profile)> {
    let mut profile = Profile::Small;
    let mut positional = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--paper" => profile = Profile::Paper,
            a if a.starts_with("--") => flag(a, &mut rest)?,
            a => positional.push(a),
        }
    }
    if positional.len() > 2 {
        return None;
    }
    let apps = match positional.first() {
        None | Some(&"all") => APPS.to_vec(),
        Some(name) => vec![*APPS.iter().find(|a| a == &name)?],
    };
    let configs = match positional.get(1) {
        None | Some(&"all") => ConfigName::ALL.to_vec(),
        Some(name) => vec![name.parse().ok()?],
    };
    let points = apps
        .iter()
        .flat_map(|&app| configs.iter().map(move |&cfg| (app, cfg)))
        .collect();
    Some((points, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape_matches_paper() {
        let rows = fig11(Profile::Small);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().clone();
        // Rijndael and FFT 2D save big; Sort and Filter save nothing.
        assert!(get("Rijndael").1 < 0.15);
        assert!(get("FFT 2D").1 < 0.5);
        assert!((0.9..=1.1).contains(&get("Sort").1));
        assert!((0.85..=1.15).contains(&get("Filter").1));
        for ig in ["IG_SML", "IG_DMS", "IG_DCS", "IG_SCL"] {
            assert!(get(ig).1 < 0.9, "{ig}: {}", get(ig).1);
        }
    }

    #[test]
    fn cache_captures_more_ig_locality_than_isrf() {
        // Section 5.3: "Cache outperforms ISRF in terms of locality
        // capture for the irregular (IG) benchmarks as it is also able to
        // capture inter-strip reuse".
        let rows = fig11(Profile::Small);
        for ig in ["IG_DMS", "IG_DCS"] {
            let (_, isrf, cache) = rows.iter().find(|r| r.0 == ig).unwrap();
            assert!(cache < isrf, "{ig}: cache {cache:.3} vs isrf {isrf:.3}");
        }
    }

    #[test]
    fn fig14_shapes_match_paper() {
        let rows = fig14();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().1.clone();
        // Recurrence kernels grow; software-pipelined kernels stay flat.
        let rij = get("Rijndael");
        assert!(rij.last().unwrap().1 > 1.2, "Rijndael grows: {rij:?}");
        let s2 = get("Sort2");
        assert!(s2.last().unwrap().1 > 1.2, "Sort2 grows: {s2:?}");
        let s1 = get("Sort1");
        assert!(
            s1.last().unwrap().1 > 1.05 && s1.last().unwrap().1 < s2.last().unwrap().1,
            "Sort1 grows mildly: {s1:?}"
        );
        for flat in ["FFT2D", "Filter", "IGraph1", "IGraph2"] {
            let pts = get(flat);
            assert!(
                pts.last().unwrap().1 < 1.15,
                "{flat} should stay flat: {pts:?}"
            );
        }
    }

    #[test]
    fn select_points_parses_the_shared_grammar() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let mut out = None;
            let sel = select_points(&args, |flag, rest| {
                (flag == "--out").then_some(())?;
                out = Some(rest.next()?.clone());
                Some(())
            });
            sel.map(|(points, profile)| (points, profile, out))
        };
        let (points, profile, out) = parse("").expect("everything defaults");
        assert_eq!((points.len(), profile, out), (32, Profile::Small, None));
        assert_eq!(
            points[..2],
            [("fft2d", ConfigName::Base), ("fft2d", ConfigName::Isrf1)]
        );
        let (points, profile, out) = parse("sort --out d iSrF4 --paper").expect("valid");
        assert_eq!(points, [("sort", ConfigName::Isrf4)]);
        assert_eq!((profile, out.as_deref()), (Profile::Paper, Some("d")));
        assert_eq!(parse("all cache").expect("valid").0.len(), 8);
        for bad in ["nope", "sort isrf2", "sort base x", "--nope", "sort --out"] {
            assert!(parse(bad).is_none(), "`{bad}` is a usage error");
        }
    }

    #[test]
    fn fig12_small_grid_cycle_total_is_pinned() {
        // 20 of the 32 points are lines of tests/golden/basket.digest; the
        // IG_DMS, IG_DCS and IG_SCL rows are pinned at this size only here.
        let total: u64 = fig12(Profile::Small).iter().map(|r| r.cycles).sum();
        assert_eq!(total, 663_526);
    }

    #[test]
    fn area_and_energy_match_section_4() {
        let area = area_table();
        assert!((0.09..=0.13).contains(&area[0].1), "ISRF1 {:.3}", area[0].1);
        assert!((0.16..=0.20).contains(&area[1].1), "ISRF4 {:.3}", area[1].1);
        assert!((0.20..=0.24).contains(&area[2].1), "XL {:.3}", area[2].1);
        let (seq, inl, _xl, dram) = energy_table();
        assert!((0.08..=0.12).contains(&inl));
        assert!(inl / seq > 2.5);
        assert!(dram / inl > 10.0);
    }
}
