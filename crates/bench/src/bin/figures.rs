//! Regenerate every evaluation figure and table of the paper as text.
//!
//! Usage: `figures [all|table3|table4|area|energy|fig11|fig12|fig13|fig14|
//! fig15|fig16|fig17|fig18|summary|ablations] [--paper] [--list]`
//!
//! `--paper` uses the paper's workload sizes (slower); the default uses
//! reduced sizes with the same shapes. `--list` prints the known targets,
//! one per line, and exits. Text on stdout is the only output: `all` at
//! both sizes is committed under `results/` and diffed by `./ci.sh`.
//! `ablations` prints the two design-choice comparisons EXPERIMENTS.md
//! cites (Sort baseline mechanism, cross-lane interconnect); they are not
//! the paper's, so `all` leaves them out.

use isrf_bench as figs;
use isrf_bench::Profile;
use isrf_core::config::{ConfigName, MachineConfig};

fn table3() {
    println!("== Table 3: machine parameters ==");
    for name in ConfigName::ALL {
        let m = MachineConfig::preset(name);
        print!(
            "{name:<6} lanes={} clock={} GHz peak={} GFLOPs SRF={} KB seq-bw={} w/c",
            m.lanes,
            m.clock_ghz,
            m.peak_gflops(),
            m.srf.capacity_bytes / 1024,
            m.srf.seq_words_per_cycle(m.lanes),
        );
        if let Some(i) = &m.srf.indexed {
            print!(
                " | idx: inlane={}w/c xl={}w/c lat={}/{} fifo={}",
                i.inlane_words_per_cycle,
                i.crosslane_words_per_cycle,
                i.inlane_latency,
                i.crosslane_latency,
                i.addr_fifo_entries
            );
        }
        if let Some(c) = &m.cache {
            print!(
                " | cache: {} KB {}-way {} banks {}w lines",
                c.capacity_bytes / 1024,
                c.associativity,
                c.banks,
                c.line_words
            );
        }
        println!();
    }
}

fn table4() {
    println!("== Table 4: IG dataset parameters ==");
    println!(
        "{:<8} {:>6} {:>7} {:>7} {:>16} {:>16}",
        "dataset", "FP/nbr", "degree", "nodes", "base strip(nbrs)", "isrf strip(nbrs)"
    );
    for ds in &isrf_apps::igraph::DATASETS {
        println!(
            "{:<8} {:>6} {:>7} {:>7} {:>16} {:>16}",
            ds.name,
            ds.fp_ops,
            ds.degree,
            ds.nodes,
            ds.base_strip_nodes * ds.degree,
            ds.isrf_strip_nodes * ds.degree,
        );
    }
}

fn area() {
    println!("== Section 4.6: SRF area overheads (paper: 11% / 18% / 22%) ==");
    for (v, srf, die) in figs::area_table() {
        println!("{v:?}: SRF +{:.1}%  die +{:.2}%", srf * 100.0, die * 100.0);
    }
}

fn energy() {
    let (seq, inl, xl, dram) = figs::energy_table();
    println!("== Section 4.5: access energy (paper: ~0.1 nJ indexed, ~4x seq, ~5 nJ DRAM) ==");
    println!("sequential word  {seq:.4} nJ");
    println!(
        "in-lane indexed  {inl:.4} nJ ({:.1}x sequential)",
        inl / seq
    );
    println!("cross-lane       {xl:.4} nJ");
    println!("DRAM access      {dram:.2} nJ ({:.0}x indexed)", dram / inl);
}

fn fig11(p: Profile) {
    println!("== Figure 11: off-chip traffic normalized to Base ==");
    println!("{:<10} {:>8} {:>8}", "benchmark", "ISRF", "Cache");
    for (name, isrf, cache) in figs::fig11(p) {
        println!("{name:<10} {isrf:>8.3} {cache:>8.3}");
    }
}

fn fig12(p: Profile) {
    println!("== Figure 12: execution time normalized to Base ==");
    println!(
        "{:<10} {:<6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "config", "loop", "mem", "srf", "ovh", "total"
    );
    for r in figs::fig12(p) {
        println!(
            "{:<10} {:<6} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            r.benchmark,
            r.config,
            r.parts[0],
            r.parts[1],
            r.parts[2],
            r.parts[3],
            r.total()
        );
    }
}

fn fig13(p: Profile) {
    println!("== Figure 13: sustained SRF bandwidth on ISRF4 (words/cycle/lane) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "sequential", "cross-lane", "in-lane", "total"
    );
    for (name, [seq, xl, inl]) in figs::fig13(p) {
        println!(
            "{name:<10} {seq:>10.3} {xl:>10.3} {inl:>10.3} {:>8.3}",
            seq + xl + inl
        );
    }
}

fn sweep_table(rows: &[(String, Vec<(u32, f64)>)]) {
    for (name, pts) in rows {
        print!("{name:<10}");
        for (x, y) in pts {
            print!(" {x:>2}:{y:<5.2}");
        }
        println!();
    }
}

fn fig14() {
    println!("== Figure 14: static schedule length vs address/data separation (normalized) ==");
    sweep_table(&figs::fig14());
}

fn fig15(p: Profile) {
    println!("== Figure 15: in-lane benchmark time vs separation (normalized to min) ==");
    sweep_table(&figs::fig15(p));
}

fn fig16(p: Profile) {
    println!("== Figure 16: cross-lane benchmark time vs separation (normalized to min) ==");
    sweep_table(&figs::fig16(p));
}

fn fig17() {
    println!("== Figure 17: in-lane indexed throughput (words/cycle/lane) ==");
    println!("{:<12} FIFO size : throughput", "sub-arrays");
    for (s, pts) in figs::fig17(4000) {
        print!("{s:<12}");
        for (f, t) in pts {
            print!(" {f}:{t:<6.3}");
        }
        println!();
    }
}

fn fig18() {
    println!("== Figure 18: cross-lane throughput vs comm occupancy (words/cycle/lane) ==");
    println!("{:<12} occupancy% : throughput", "ports/bank");
    for (ports, pts) in figs::fig18(4000) {
        print!("{ports:<12}");
        for (c, t) in pts {
            print!(" {c}:{t:<6.3}");
        }
        println!();
    }
}

fn summary(p: Profile) {
    println!("== Headline: ISRF4 vs Base (paper: 1.03x-4.1x speedup, up to 95% traffic cut) ==");
    println!(
        "{:<10} {:>8} {:>12} {:>13}",
        "benchmark", "speedup", "traffic cut", "energy ratio"
    );
    for (name, sp, cut, er) in figs::summary(p) {
        println!("{name:<10} {sp:>7.2}x {:>11.1}% {er:>13.2}", cut * 100.0);
    }
}

fn ablations() {
    let (cond, bitonic) = figs::sort_baseline_ablation();
    println!("== Ablation: Sort baseline mechanism (Base) ==");
    println!("conditional-stream merge: {cond} cycles");
    println!("bitonic network:          {bitonic} cycles");
    println!("== Ablation: cross-lane interconnect (1 port/bank, no comm) ==");
    for (topo, t) in figs::crosslane_topology_ablation() {
        println!("{topo:?}: {t:.3} words/cycle/lane");
    }
}

type Target = (&'static str, fn(Profile));

/// Every target, in the order `all` prints them.
const TARGETS: [Target; 14] = [
    ("table3", |_| table3()),
    ("table4", |_| table4()),
    ("area", |_| area()),
    ("energy", |_| energy()),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", |_| fig14()),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", |_| fig17()),
    ("fig18", |_| fig18()),
    ("summary", summary),
    ("ablations", |_| ablations()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || std::iter::once("all").chain(TARGETS.iter().map(|&(name, _)| name));
    if args.iter().any(|a| a == "--list") {
        names().for_each(|name| println!("{name}"));
        return;
    }
    let profile = if args.iter().any(|a| a == "--paper") {
        Profile::Paper
    } else {
        Profile::Small
    };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    if !names().any(|name| name == what) {
        let known: Vec<&str> = names().collect();
        eprintln!(
            "unknown target `{what}`; expected one of: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    for (name, render) in TARGETS {
        if what == name || (what == "all" && name != "ablations") {
            render(profile);
            // No blank line after the target that ends `all`, or the one outside it.
            if !matches!(name, "summary" | "ablations") {
                println!();
            }
        }
    }
}
