//! The microkernels of Section 5.4's parameter studies, each a plan like
//! every app's ([`Plan`]): one kernel over a table of seeded random words
//! that fills the SRF banks beside its output, and a host check of that
//! output. The arbitration, stalls and network sharing that Figures 17
//! and 18 measure are the machine's, as every app meets them.

use std::sync::Arc;

use isrf_apps::common::{machine, schedule_for, Plan};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::ir::{KernelBuilder, Operand, StreamKind};
use isrf_sim::{Machine, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Iterations of the Figure 17 kernel.
const INLANE_ITERS: u32 = 2048;
/// How many iterations back each in-lane stream takes its address from
/// the address stream: a Golomb ruler, so no two streams meet on the same
/// pair of addresses twice.
const DISTANCES: [u32; 4] = [0, 1, 4, 6];
/// An iteration whose address is below this writes its four words' sum:
/// a seeded sample of the run for the host check, at almost no SRF
/// bandwidth. The samples may fill 64 words per lane.
const SAMPLE_BELOW: u32 = 64;
/// Iterations of the Figure 18 kernel: its table keeps three of ISRF4's
/// four sub-arrays beside the two-word output records.
const CROSSLANE_ITERS: u32 = 512;

/// Figure 17 at one point: ISRF4 with `subarrays` sub-arrays per bank,
/// each serving a word a cycle, `fifo`-entry address FIFOs and an in-lane
/// address/data separation of `separation` cycles. Each iteration reads
/// the table four times, stream `k` at the address the address stream
/// (the table's first words) delivered `DISTANCES[k]` iterations earlier.
pub fn inlane(subarrays: usize, fifo: usize, separation: u32) -> Plan {
    let mut cfg = MachineConfig::preset(ConfigName::Isrf4);
    cfg.srf.subarrays = subarrays;
    let idx = cfg.srf.indexed.as_mut().expect("ISRF4 is indexed");
    (idx.inlane_words_per_cycle, idx.addr_fifo_entries) = (subarrays, fifo);
    cfg.sched.inlane_addr_data_separation = separation;
    let mut b = KernelBuilder::new("fig17_inlane");
    let addrs = b.stream("addrs", StreamKind::SeqIn);
    let tables = [0, 1, 2, 3].map(|k| b.stream(format!("table{k}"), StreamKind::IdxInRead));
    let out = b.stream("samples", StreamKind::CondOut);
    let a = b.seq_read(addrs);
    let [v0, v1, v2, v3] =
        [0, 1, 2, 3].map(|k| b.idx_load(tables[k], Operand::carried(a, DISTANCES[k], 0)));
    let (s01, s23) = (b.add(v0, v1), b.add(v2, v3));
    let sum = b.add(s01, s23);
    let below = b.constant(SAMPLE_BELOW);
    let sampled = b.lt(a, below);
    b.cond_write(out, sampled, sum);
    let bind = |t: StreamBinding, out| vec![t.slice(0, 8 * INLANE_ITERS), t, t, t, t, out];
    let out = (1, 8 * SAMPLE_BELOW);
    plan(&cfg, b, INLANE_ITERS, out, bind, check_inlane)
}

/// Figure 18's kernel: a cross-lane read at a streamed address, and a
/// streamed word passed `comms` lanes along the network. Both go out as
/// one two-word record, so the output stream's port sets II = 2.
pub fn crosslane_kernel(comms: u32) -> KernelBuilder {
    let mut b = KernelBuilder::new(format!("fig18_comm{comms}"));
    let [addrs, data] = ["addrs", "data"].map(|s| b.stream(s, StreamKind::SeqIn));
    let table = b.stream("table", StreamKind::IdxCrossRead);
    let out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(addrs);
    let v = b.idx_load(table, a);
    let d = b.seq_read(data);
    let d = (0..comms).fold(d, |d, _| b.comm_rotate(1, d));
    b.seq_write(out, v);
    b.seq_write(out, d);
    b
}

/// Figure 18 at one point: ISRF4 with `ports` network ports per bank,
/// running [`crosslane_kernel`] over a table of random global records
/// whose first two windows are the address and data streams.
pub fn crosslane(ports: usize, comms: u32) -> Plan {
    let mut cfg = MachineConfig::preset(ConfigName::Isrf4);
    let idx = cfg.srf.indexed.as_mut().expect("ISRF4 is indexed");
    idx.network_ports_per_bank = ports;
    let n = 8 * CROSSLANE_ITERS;
    let bind = |t: StreamBinding, out| vec![t.slice(0, n), t.slice(n, n), t, out];
    let check = move |m: &Machine, t: &StreamBinding, out: &StreamBinding| {
        let record = |r: u32| m.srf().read(r as usize % 8, t.range.base + r / 8);
        for (r, pair) in (0..n).zip(m.read_stream(out).chunks_exact(2)) {
            let from = n + r - r % 8 + (r + comms) % 8;
            let want = [record(record(r)), record(from)];
            assert_eq!(pair, want, "Figure 18 record {r}");
        }
    };
    let kernel = crosslane_kernel(comms);
    plan(&cfg, kernel, CROSSLANE_ITERS, (2, n), bind, check)
}

/// `iters` iterations of `kernel` on the machine `cfg` describes, over
/// `bind(table, out)`: `out` is `records` records of `record_words`, and
/// the table fills the banks beside it with seeded random words: indices
/// of its records, global ones when the kernel reads it across lanes.
/// `check(machine, table, out)` is the host check.
fn plan(
    cfg: &MachineConfig,
    kernel: KernelBuilder,
    iters: u32,
    (record_words, records): (u32, u32),
    bind: impl FnOnce(StreamBinding, StreamBinding) -> Vec<StreamBinding>,
    check: impl Fn(&Machine, &StreamBinding, &StreamBinding) + Send + 'static,
) -> Plan {
    let mut m = machine(cfg);
    let words = m.srf().bank_words() - records / 8 * record_words;
    let table = m.alloc_stream(1, 8 * words);
    let out = m.alloc_stream(record_words, records);
    m.note_filled(&table);
    let kernel = Arc::new(kernel.build().expect("a microkernel is well-formed"));
    let cross = kernel.streams.iter().any(|s| s.kind.is_cross_lane());
    let bound = if cross { 8 * words } else { words };
    let sched = schedule_for(&m, &kernel);
    let mut program = StreamProgram::new();
    program.kernel(kernel, sched, bind(table, out), u64::from(iters), &[]);
    let load = move |m: &mut Machine| load_table(m, &table, bound);
    let check = move |m: &Machine| check(m, &table, &out);
    Plan::new(m, program, Vec::new(), load, check)
}

/// The load stage: `table` holds seeded random words below `bound`.
fn load_table(m: &mut Machine, table: &StreamBinding, bound: u32) {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0017);
    let words: Vec<Word> = (0..table.records)
        .map(|_| rng.gen_range(0..bound))
        .collect();
    m.write_stream(table, &words);
}

/// Every sampled iteration's sum, lane by lane, against the table.
fn check_inlane(m: &Machine, table: &StreamBinding, out: &StreamBinding) {
    let word = |lane: usize, off: u32| m.srf().read(lane, table.range.base + off);
    let mut want = Vec::new();
    for (i, lane) in (0..INLANE_ITERS).flat_map(|i| (0..8).map(move |lane| (i, lane))) {
        let read = |d: u32| word(lane, if i < d { 0 } else { word(lane, i - d) });
        if word(lane, i) < SAMPLE_BELOW {
            want.push(DISTANCES.map(read).into_iter().fold(0, Word::wrapping_add));
        }
    }
    let n = u32::try_from(want.len()).expect("a sample count fits a u32");
    let got = m.read_stream(&out.slice(0, n.min(out.records)));
    assert_eq!(got, want, "Figure 17 samples differ from the table");
}
