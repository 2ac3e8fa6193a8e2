//! `isrf-bench` is the tool crate (the `figures`, `verify` and `trace`
//! bins); the timing harness is `benchmark/`, a package of its own, and
//! nothing here is timed.
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

pub mod micro;

use isrf_apps::common::Plan;
use isrf_apps::{fft2d, filter, igraph, rijndael, sort, APPS};
use isrf_check::run_parallel;
use isrf_core::config::{ConfigName, MachineConfig};
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

/// One point of the benchmark × config grid, simulated once and read by
/// Figures 11–13 and the headline summary: Figure 12's row, plus the run
/// behind it.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine configuration.
    pub config: ConfigName,
    /// `[kernel loop, memory stall, SRF stall, overheads]`, as fractions
    /// of the Base configuration's total cycles.
    pub parts: [f64; 4],
    /// The run on this config.
    pub stats: RunStats,
}

impl Fig12Row {
    /// Total normalized execution time.
    pub fn total(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Figure 12: execution-time breakdowns for all benchmarks and configs,
/// benchmark by benchmark in [`ConfigName::ALL`] order, with every point
/// simulated concurrently by the sweep driver (results come back in input
/// order, so the output is identical to a serial sweep).
pub fn fig12(profile: Profile) -> Vec<Fig12Row> {
    let points: Vec<(&str, &str, ConfigName)> = BENCHMARKS
        .iter()
        .flat_map(|&(name, app)| ConfigName::ALL.map(|cfg| (name, app, cfg)))
        .collect();
    let stats = run_parallel(&points, |&(_, app, cfg)| run(app, cfg, profile));
    let per_benchmark = ConfigName::ALL.len();
    let mut rows = Vec::new();
    for (points, stats) in points
        .chunks_exact(per_benchmark)
        .zip(stats.chunks_exact(per_benchmark))
    {
        let base = stats[0].cycles; // ConfigName::ALL starts with Base
        for (&(name, _, config), &stats) in points.iter().zip(stats) {
            rows.push(Fig12Row {
                benchmark: name.to_string(),
                config,
                parts: stats.breakdown.normalized_to(base),
                stats,
            });
        }
    }
    rows
}

/// The [`fig12`] grid benchmark by benchmark: its name and its runs on
/// `[Base, ISRF1, ISRF4, Cache]`.
fn by_benchmark(grid: &[Fig12Row]) -> impl Iterator<Item = (String, [&RunStats; 4])> {
    grid.chunks_exact(ConfigName::ALL.len())
        .map(|r| (r[0].benchmark.clone(), [0, 1, 2, 3].map(|i| &r[i].stats)))
}

/// Figure 11: off-chip memory traffic of ISRF and Cache normalized to Base.
pub fn fig11(grid: &[Fig12Row]) -> Vec<(String, f64, f64)> {
    by_benchmark(grid)
        .map(|(name, [base, _, isrf, cache])| {
            (
                name,
                isrf.mem.normalized_to(&base.mem),
                cache.mem.normalized_to(&base.mem),
            )
        })
        .collect()
}

/// Figure 13: sustained SRF bandwidth demands (words/cycle/lane) per
/// benchmark on ISRF4, split `[sequential, cross-lane, in-lane]`.
pub fn fig13(grid: &[Fig12Row]) -> Vec<(String, [f64; 3])> {
    by_benchmark(grid)
        .map(|(name, [_, _, isrf, _])| {
            (name, isrf.srf.per_cycle_per_lane(isrf.main_loop_cycles, 8))
        })
        .collect()
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

/// Indexed words of `class` (an index of `per_cycle_per_lane`'s
/// `[seq, crosslane, inlane]`) per kernel cycle per lane, row by row, of
/// `plan(row, x)` for every x: the Figure 17/18 sweeps, each point its own
/// parallel work item.
fn throughputs<R: Copy + Sync, X: Copy + Sync>(
    rows: &[R],
    xs: &[X],
    class: usize,
    plan: impl Fn(R, X) -> Plan + Sync,
) -> Vec<Vec<f64>> {
    let points: Vec<(R, X)> = rows
        .iter()
        .flat_map(|&r| xs.iter().map(move |&x| (r, x)))
        .collect();
    let words = run_parallel(&points, |&(r, x)| {
        let s = plan(r, x).load().run_checked();
        s.srf.per_cycle_per_lane(s.main_loop_cycles, 8)[class]
    });
    words.chunks_exact(xs.len()).map(<[f64]>::to_vec).collect()
}

/// Figure 17: in-lane indexed throughput ([`micro::inlane`]) vs sub-arrays
/// per bank and address-FIFO entries, at separation 8 and, for 4
/// sub-arrays, 2. Returns `(row, Vec<(fifo, words/cycle/lane)>)`.
pub fn fig17() -> Vec<(&'static str, Vec<(usize, f64)>)> {
    let rows = [
        ("1", 1, 8),
        ("2", 2, 8),
        ("4", 4, 8),
        ("8", 8, 8),
        ("4, sep 2", 4, 2),
    ];
    let fifos = [1, 2, 4, 6, 8];
    let t = throughputs(&rows, &fifos, 2, |(_, s, sep), f| micro::inlane(s, f, sep));
    let row = |(&(name, _, _), t): (_, Vec<f64>)| (name, fifos.into_iter().zip(t).collect());
    rows.iter().zip(t).map(row).collect()
}

/// Figure 18: cross-lane throughput ([`micro::crosslane`]) vs network
/// ports per bank and the share of cycles explicit communication occupies:
/// `k` Comm ops per II, the fractions a schedule reaches. Returns `(ports,
/// Vec<(occupancy, words/cycle/lane)>)`.
pub fn fig18() -> Vec<(usize, Vec<(f64, f64)>)> {
    let (ports, comms) = ([1, 2, 4], [0, 1, 2]);
    let params = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
    let kernel = |k| micro::crosslane_kernel(k).build().expect("well-formed");
    let ii = |k| schedule(&kernel(k), &params).expect("schedules").ii;
    let occupancy = comms.map(|k| f64::from(k) / f64::from(ii(k)));
    let t = throughputs(&ports, &comms, 1, micro::crosslane);
    let row = |(p, t): (_, Vec<f64>)| (p, occupancy.into_iter().zip(t).collect());
    ports.into_iter().zip(t).map(row).collect()
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
pub fn summary(grid: &[Fig12Row]) -> Vec<(String, f64, f64, f64)> {
    let em = EnergyModel::default();
    let geom = SrfGeometry::paper_default();
    by_benchmark(grid)
        .map(|(name, [base, _, isrf, _])| {
            (
                name,
                isrf.speedup_over(base),
                1.0 - isrf.mem.normalized_to(&base.mem),
                em.run_energy_nj(&geom, isrf) / em.run_energy_nj(&geom, base).max(1e-9),
            )
        })
        .collect()
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
        sort::plan(&cfg, &params).load().run_checked().cycles,
        sort::prepare_base_bitonic(&cfg, &params)
            .run_checked()
            .cycles,
    )
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
    use isrf_check::{points_digest, Columns};

    use super::*;

    /// Figure 11's `(ISRF, Cache)` off-chip traffic of `benchmark`
    /// normalized to Base, at Small size, read from the committed per-point
    /// digest that `tests/differential.rs` writes.
    fn fig11_small(benchmark: &str) -> (f64, f64) {
        let digest = points_digest();
        let (_, app) = BENCHMARKS.iter().find(|b| b.0 == benchmark).unwrap();
        let bytes = |cfg: ConfigName| {
            let point = Columns::find(&digest, &format!("{app} {cfg} Small"));
            (point.u64("rd") + point.u64("wr")) as f64
        };
        let base = bytes(ConfigName::Base);
        (
            bytes(ConfigName::Isrf4) / base,
            bytes(ConfigName::Cache) / base,
        )
    }

    #[test]
    fn fig11_shape_matches_paper() {
        let get = |n: &str| fig11_small(n).0;
        // Rijndael and FFT 2D save big; Sort and Filter save nothing.
        assert!(get("Rijndael") < 0.15);
        assert!(get("FFT 2D") < 0.5);
        assert!((0.9..=1.1).contains(&get("Sort")));
        assert!((0.85..=1.15).contains(&get("Filter")));
        for ig in ["IG_SML", "IG_DMS", "IG_DCS", "IG_SCL"] {
            assert!(get(ig) < 0.9, "{ig}: {}", get(ig));
        }
    }

    #[test]
    fn cache_captures_more_ig_locality_than_isrf() {
        // Section 5.3: "Cache outperforms ISRF in terms of locality
        // capture for the irregular (IG) benchmarks as it is also able to
        // capture inter-strip reuse".
        for ig in ["IG_DMS", "IG_DCS"] {
            let (isrf, cache) = fig11_small(ig);
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
