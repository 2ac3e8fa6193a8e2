//! Property tests for the two-stage indexed-access arbiter.
//!
//! Random mixes of in-lane read, in-lane write, and cross-lane read
//! streams push random record addresses through [`service_indexed`]. The
//! arbiter may reorder *between* streams and lanes however contention
//! falls, but it must never drop or duplicate a request: every enqueued
//! record comes back as exactly `record_words` data words, per lane in
//! FIFO order with the right values, every write commits exactly once,
//! every lane drains in bounded time, and the traffic counters equal the
//! number of serviced words.
//!
//! A second property pins *which* head wins each cycle: the flat-ring,
//! mask-driven arbiter runs in lock-step with [`reference`], the
//! queue-per-lane arbiter it replaced, and must grant, reject, land and
//! return exactly what the reference does, cycle by cycle.
//!
//! A third drives whole *rows* — the kernel's interface — through the
//! shared-cursor states the arbiter keeps for lane-uniform in-lane streams,
//! beside the same history pushed lane by lane (which splits every stream
//! at once) and the reference: words, traffic, the full event sequence and
//! the snapshot bytes must agree whatever the cursors look like.
//!
//! Seeded mutants of `indexed.rs`, each applied and run; `rows` is
//! `rows_match_queue_reference_and_per_lane_api`, `lanes` is
//! `arbiter_matches_queue_reference`:
//!
//! | mutant | fails |
//! |---|---|
//! | the split copies no arrival cycles (`ready_at`) to the new lanes | `rows` |
//! | the split copies no queued record indices | `rows` |
//! | a shared push drops the lanes' write words | `rows` |
//! | a split stream does not split the shared ones served beside it | `rows` |
//! | a shared cursor's sub-arrays are not marked busy in every bank | `rows` |
//! | a shared cursor's events are emitted stream-major | `rows` |
//! | `pop_row` does not restore `room` | `rows` |
//! | `pop_data` does not restore `room` | `rows`, `lanes` |
//! | a closed bank's `want` mask is not applied to the issuing stream | `rows`, `lanes` |
//! | `want` keeps a retired head's bit | `rows`, `lanes` |
//! | a masked-out head reports `BankPortBusy` before `DataBufferFull` | `rows`, `lanes` |
//! | a tracer's walk drops the masked-out heads too (no `IdxReject`) | `rows`, `lanes` |
//!
//! (`flying` keeping the bit of a lane whose last word landed fails
//! nothing: the walk visits a lane with nothing to land.)

use std::collections::VecDeque;

use isrf_core::config::{ConfigName, CrossLaneTopology, MachineConfig};
use isrf_core::snap::{Dec, Enc};
use isrf_core::stats::SrfTraffic;
use isrf_core::Word;
use isrf_sim::indexed::{service_indexed, IdxKind, IdxParams, IdxState};
use isrf_sim::srf::{Srf, SrfRange};
use isrf_sim::stream::StreamBinding;
use isrf_trace::{TraceEvent, Tracer};
use proptest::prelude::*;

/// Per-bank words of each of the two disjoint regions (reads vs writes);
/// together they fit the bank of the 8-lane presets.
const REGION_WORDS: u32 = 2048;

#[derive(Debug, Clone)]
struct StreamPlan {
    kind: IdxKind,
    record_words: u32,
    /// `(lane, record)` in push order; reduced into range by [`fit`].
    reqs: Vec<(usize, u32)>,
}

/// Raw generated tuples -> a plan, valid once [`fit`] to a machine. Writes
/// are word-granular, and at most one write stream is kept (concurrent
/// writers to one offset would make the final value depend on arbitration
/// order, which is exactly the freedom the arbiter has).
fn plans() -> impl Strategy<Value = Vec<StreamPlan>> {
    prop::collection::vec(
        (
            0u8..3,
            0u8..3,
            prop::collection::vec((any::<usize>(), any::<u32>()), 0..32),
        ),
        1..5,
    )
    .prop_map(|raw| {
        let mut seen_write = false;
        raw.into_iter()
            .map(|(kind_code, rw_code, reqs)| {
                let mut kind = match kind_code {
                    0 => IdxKind::InLaneRead,
                    1 => IdxKind::CrossLaneRead,
                    _ => IdxKind::InLaneWrite,
                };
                if kind == IdxKind::InLaneWrite {
                    if seen_write {
                        kind = IdxKind::InLaneRead;
                    }
                    seen_write = true;
                }
                let record_words = if kind == IdxKind::InLaneWrite {
                    1
                } else {
                    [1u32, 2, 4][rw_code as usize]
                };
                StreamPlan {
                    kind,
                    record_words,
                    reqs,
                }
            })
            .collect()
    })
}

/// Reduce a raw plan's lanes and records into range for `lanes` lanes.
fn fit(mut plan: Vec<StreamPlan>, lanes: usize) -> Vec<StreamPlan> {
    for s in &mut plan {
        let max_records = records_of(s.kind, s.record_words, lanes);
        for (lane, record) in &mut s.reqs {
            *lane %= lanes;
            *record %= max_records;
        }
    }
    plan
}

/// Records a stream of this shape holds in its region.
fn records_of(kind: IdxKind, record_words: u32, lanes: usize) -> u32 {
    if kind == IdxKind::CrossLaneRead {
        lanes as u32 * REGION_WORDS / record_words
    } else {
        REGION_WORDS / record_words
    }
}

/// The value the pattern fill put at `(bank, offset)`.
fn pattern(bank: usize, offset: u32) -> Word {
    bank as u32 * 10_000 + offset
}

/// Marker value for write request number `seq`.
fn write_word(seq: usize) -> Word {
    0x4000_0000 + seq as u32
}

/// A pattern-filled SRF with the read and the write region allocated, and
/// each planned stream's binding.
fn setup(m: &MachineConfig, plan: &[StreamPlan]) -> (Srf, SrfRange, SrfRange, Vec<StreamBinding>) {
    let mut srf = Srf::new(m);
    let read_range = srf.alloc(REGION_WORDS);
    let write_range = srf.alloc(REGION_WORDS);
    for l in 0..m.lanes {
        for o in 0..srf.bank_words() {
            srf.write(l, o, pattern(l, o));
        }
    }
    let bindings = plan
        .iter()
        .map(|s| {
            let range = if s.kind == IdxKind::InLaneWrite {
                write_range
            } else {
                read_range
            };
            let records = records_of(s.kind, s.record_words, m.lanes);
            StreamBinding::whole(range, s.record_words, records)
        })
        .collect();
    (srf, read_range, write_range, bindings)
}

/// The queue-per-lane arbiter the flat-ring implementation replaced, kept
/// as the executable specification of stage-2 arbitration order.
mod reference {
    use super::*;
    use isrf_sim::indexed::{topology_extra_latency, topology_issue_budget};
    use isrf_trace::IdxRejectReason as Why;

    #[derive(Default)]
    pub struct Lane {
        pub addr_fifo: VecDeque<(u32, Word)>,
        head_word: u32,
        inflight: VecDeque<(u64, Word)>,
        pub data: VecDeque<Word>,
    }

    pub struct Stream {
        pub binding: StreamBinding,
        pub kind: IdxKind,
        pub lanes: Vec<Lane>,
        pub fifo_cap: usize,
        pub buf_cap: usize,
    }

    impl Stream {
        pub fn tick(&mut self, now: u64, budget: &mut usize) {
            for lane in &mut self.lanes {
                while *budget > 0 && lane.inflight.front().is_some_and(|&(t, _)| t <= now) {
                    let (_, w) = lane.inflight.pop_front().expect("checked front");
                    lane.data.push_back(w);
                    *budget -= 1;
                }
            }
        }

        pub fn drained(&self) -> bool {
            let idle = |l: &Lane| l.addr_fifo.is_empty() && l.inflight.is_empty();
            self.lanes.iter().all(idle)
        }
    }

    pub fn service(
        states: &mut [Stream],
        srf: &mut Srf,
        now: u64,
        p: &IdxParams,
        rr: &mut usize,
        traffic: &mut SrfTraffic,
        events: &mut Vec<(u64, TraceEvent)>,
    ) {
        let n = states.len();
        let mut busy = vec![0u64; p.lanes];
        let mut bank_ports = vec![p.network_ports_per_bank; p.lanes];
        let mut global = topology_issue_budget(p.topology, p.lanes);
        for crosslane in [false, true] {
            for lane in 0..p.lanes {
                let mut budget = if crosslane {
                    p.crosslane_words_per_cycle
                } else {
                    p.inlane_words_per_cycle
                };
                for k in 0..n {
                    if budget == 0 || (crosslane && global == 0) {
                        break;
                    }
                    let si = (*rr + k) % n;
                    let st = &mut states[si];
                    if (st.kind == IdxKind::CrossLaneRead) != crosslane {
                        continue;
                    }
                    let l = &mut st.lanes[lane];
                    let Some(&(record, wdata)) = l.addr_fifo.front() else {
                        continue;
                    };
                    let b = st.binding;
                    let write = st.kind == IdxKind::InLaneWrite;
                    let (bank, row) = if crosslane {
                        (record as usize % p.lanes, record / p.lanes as u32)
                    } else {
                        (lane, record)
                    };
                    let offset = b.range.base + row * b.record_words + l.head_word;
                    let sub = srf.subarray_of(offset);
                    let why = if !write && l.data.len() + l.inflight.len() >= st.buf_cap {
                        Some(Why::DataBufferFull)
                    } else if crosslane && bank_ports[bank] == 0 {
                        Some(Why::BankPortBusy)
                    } else if busy[bank] & (1 << sub) != 0 {
                        Some(Why::SubarrayConflict)
                    } else {
                        None
                    };
                    let (stream, lane8) = (si as u8, lane as u8);
                    if let Some(reason) = why {
                        let ev = TraceEvent::IdxReject {
                            stream,
                            lane: lane8,
                            crosslane,
                            reason,
                        };
                        events.push((now, ev));
                        continue;
                    }
                    busy[bank] |= 1 << sub;
                    budget -= 1;
                    let mut hops = 0;
                    if crosslane {
                        bank_ports[bank] -= 1;
                        global -= 1;
                        traffic.crosslane_words += 1;
                        hops = topology_extra_latency(p.topology, lane, bank, p.lanes);
                    } else {
                        traffic.inlane_words += 1;
                    }
                    if write {
                        srf.write(bank, offset, wdata);
                    } else {
                        let latency = if crosslane {
                            p.crosslane_latency + hops
                        } else {
                            p.inlane_latency
                        };
                        l.inflight
                            .push_back((now + latency, srf.read(bank, offset)));
                    }
                    l.head_word += 1;
                    if l.head_word == b.record_words {
                        l.head_word = 0;
                        l.addr_fifo.pop_front();
                    }
                    let ev = TraceEvent::IdxAccess {
                        stream,
                        lane: lane8,
                        bank: bank as u8,
                        subarray: sub as u8,
                        write,
                        crosslane,
                        hops: hops as u8,
                        fifo_after: l.addr_fifo.len() as u8,
                    };
                    events.push((now, ev));
                }
            }
        }
        *rr = (*rr + 1) % n;
    }
}

/// A tiny deterministic generator for the per-cycle back-pressure choices.
fn next_bits(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbiter_never_drops_or_duplicates(plan in plans()) {
        const LANES: usize = 8;
        let plan = fit(plan, LANES);
        let m = MachineConfig::preset(ConfigName::Isrf4);
        let p = IdxParams::from_machine(&m);
        let (mut srf, read_range, write_range, bindings) = setup(&m, &plan);
        let mut states: Vec<IdxState> = plan
            .iter()
            .zip(&bindings)
            .map(|(s, &b)| IdxState::new(b, s.kind, LANES, &m))
            .collect();

        // Pump: feed each stream's requests as FIFO space allows, cycle
        // the arbiter, and pop data eagerly (a full data buffer blocks
        // issue, so popping models the consuming cluster).
        let mut pending: Vec<VecDeque<(usize, u32)>> =
            plan.iter().map(|s| s.reqs.iter().copied().collect()).collect();
        let mut popped: Vec<Vec<Vec<Word>>> =
            plan.iter().map(|_| vec![Vec::new(); LANES]).collect();
        let mut traffic = SrfTraffic::default();
        let mut rr = 0usize;
        let mut write_seq = 0usize;
        let mut now = 0u64;
        loop {
            for (si, q) in pending.iter_mut().enumerate() {
                while let Some(&(lane, rec)) = q.front() {
                    if !states[si].can_push_addr(lane) {
                        break;
                    }
                    if plan[si].kind == IdxKind::InLaneWrite {
                        states[si].push_write_word(lane, rec, write_word(write_seq));
                        write_seq += 1;
                    } else {
                        states[si].push_addr(lane, rec);
                    }
                    q.pop_front();
                }
            }
            for s in states.iter_mut() {
                s.tick_arrivals(now);
            }
            service_indexed(&mut states, &mut srf, now, &p, &mut rr, &mut traffic, &mut Tracer::Null);
            for (s, lanes) in states.iter_mut().zip(popped.iter_mut()) {
                for (lane, got) in lanes.iter_mut().enumerate() {
                    while s.can_pop_data(lane) {
                        got.push(s.pop_data(lane));
                    }
                }
            }
            now += 1;
            let idle = pending.iter().all(VecDeque::is_empty)
                && states.iter().all(IdxState::drained);
            if idle {
                break;
            }
            prop_assert!(now < 100_000, "arbiter failed to drain: cycle {}", now);
        }
        // Flush anything that arrived on the final cycle.
        for (s, lanes) in states.iter_mut().zip(popped.iter_mut()) {
            s.tick_arrivals(now + 1_000);
            for (lane, got) in lanes.iter_mut().enumerate() {
                while s.can_pop_data(lane) {
                    got.push(s.pop_data(lane));
                }
            }
        }

        // Reads: per lane, exactly record_words words per request, in FIFO
        // order, with the values the pattern fill established.
        let mut expect_inlane = 0u64;
        let mut expect_crosslane = 0u64;
        for (si, s) in plan.iter().enumerate() {
            let rw = s.record_words;
            match s.kind {
                IdxKind::InLaneRead => expect_inlane += rw as u64 * s.reqs.len() as u64,
                IdxKind::InLaneWrite => expect_inlane += rw as u64 * s.reqs.len() as u64,
                IdxKind::CrossLaneRead => {
                    expect_crosslane += rw as u64 * s.reqs.len() as u64;
                }
            }
            if s.kind == IdxKind::InLaneWrite {
                for (lane, got) in popped[si].iter().enumerate() {
                    prop_assert!(got.is_empty(), "write stream returned data on lane {}", lane);
                }
                continue;
            }
            for (lane, got) in popped[si].iter().enumerate() {
                let expect: Vec<Word> = s
                    .reqs
                    .iter()
                    .filter(|&&(l, _)| l == lane)
                    .flat_map(|&(_, rec)| {
                        (0..rw).map(move |w| {
                            if s.kind == IdxKind::CrossLaneRead {
                                let bank = rec as usize % LANES;
                                let off =
                                    read_range.base + (rec / LANES as u32) * rw + w;
                                pattern(bank, off)
                            } else {
                                pattern(lane, read_range.base + rec * rw + w)
                            }
                        })
                    })
                    .collect();
                prop_assert_eq!(
                    got,
                    &expect,
                    "stream {} lane {}: data dropped, duplicated or reordered",
                    si,
                    lane
                );
            }
        }

        // Writes: last write to each (lane, record) in push order wins
        // (sequence numbers count pushes in pump order, which is the one
        // write stream's push order); untouched words keep the pattern.
        if let Some((si, s)) = plan
            .iter()
            .enumerate()
            .find(|(_, s)| s.kind == IdxKind::InLaneWrite)
        {
            for lane in 0..LANES {
                let mut expect: Vec<Word> = (0..REGION_WORDS)
                    .map(|o| pattern(lane, write_range.base + o))
                    .collect();
                for (seq, &(l, rec)) in s.reqs.iter().enumerate() {
                    if l == lane {
                        expect[rec as usize] = write_word(seq);
                    }
                }
                for (o, &want) in expect.iter().enumerate() {
                    let got = srf.read(lane, write_range.base + o as u32);
                    prop_assert_eq!(
                        got,
                        want,
                        "stream {} lane {} offset {}: write lost or duplicated",
                        si,
                        lane,
                        o
                    );
                }
            }
        }

        prop_assert_eq!(traffic.inlane_words, expect_inlane);
        prop_assert_eq!(traffic.crosslane_words, expect_crosslane);
        prop_assert_eq!(traffic.seq_words, 0);
    }
}

/// Machine shapes the lock-step comparison covers.
fn machines() -> impl Strategy<Value = MachineConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(isrf4, ring, narrow)| {
        let mut m = MachineConfig::preset(if isrf4 {
            ConfigName::Isrf4
        } else {
            ConfigName::Isrf1
        });
        if narrow {
            m.lanes = 4;
        }
        if ring {
            let idx = m.srf.indexed.as_mut().expect("ISRF preset");
            idx.crosslane_topology = CrossLaneTopology::Ring;
        }
        m.validate().expect("test machine is valid");
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbiter_matches_queue_reference(
        m in machines(),
        plan in plans(),
        seed in any::<u64>(),
        snap_cycle in 0u64..48,
    ) {
        let lanes = m.lanes;
        let plan = fit(plan, lanes);
        let p = IdxParams::from_machine(&m);
        let (mut srf, _, _, bindings) = setup(&m, &plan);
        let mut ref_srf = srf.clone();
        let idx = m.srf.indexed.as_ref().expect("ISRF preset");
        let mut states: Vec<IdxState> = plan
            .iter()
            .zip(&bindings)
            .map(|(s, &b)| IdxState::new(b, s.kind, lanes, &m))
            .collect();
        let mut refs: Vec<reference::Stream> = plan
            .iter()
            .zip(&bindings)
            .map(|(s, &binding)| reference::Stream {
                binding,
                kind: s.kind,
                lanes: (0..lanes).map(|_| reference::Lane::default()).collect(),
                fifo_cap: idx.addr_fifo_entries,
                buf_cap: m.srf.stream_buffer_words,
            })
            .collect();

        let mut pending: Vec<VecDeque<(usize, u32)>> =
            plan.iter().map(|s| s.reqs.iter().copied().collect()).collect();
        let mut tracer = Tracer::recording(1 << 20);
        let mut ref_events = Vec::new();
        let (mut traffic, mut ref_traffic) = (SrfTraffic::default(), SrfTraffic::default());
        let (mut rr, mut ref_rr) = (0usize, 0usize);
        let mut rng = seed;
        let mut write_seq = 0usize;
        let mut now = 0u64;
        loop {
            // Push while the FIFOs agree there is room.
            for (si, q) in pending.iter_mut().enumerate() {
                while let Some(&(lane, rec)) = q.front() {
                    let room = refs[si].lanes[lane].addr_fifo.len() < refs[si].fifo_cap;
                    prop_assert_eq!(states[si].can_push_addr(lane), room);
                    if !room {
                        break;
                    }
                    let w = write_word(write_seq);
                    if plan[si].kind == IdxKind::InLaneWrite {
                        states[si].push_write_word(lane, rec, w);
                        write_seq += 1;
                    } else {
                        states[si].push_addr(lane, rec);
                    }
                    refs[si].lanes[lane].addr_fifo.push_back((rec, w));
                    q.pop_front();
                }
            }
            // Land arrivals: cross-lane returns share a random budget.
            let returns = (next_bits(&mut rng) as usize) % (lanes + 1);
            let (mut budget, mut ref_budget) = (returns, returns);
            for (s, r) in states.iter_mut().zip(refs.iter_mut()) {
                if s.kind == IdxKind::CrossLaneRead {
                    s.tick_arrivals_budgeted(now, &mut budget);
                    r.tick(now, &mut ref_budget);
                } else {
                    s.tick_arrivals(now);
                    let mut unlimited = usize::MAX;
                    r.tick(now, &mut unlimited);
                }
            }
            prop_assert_eq!(budget, ref_budget);
            // Stage 1 grants the indexed group on most cycles.
            if next_bits(&mut rng) & 3 != 0 {
                service_indexed(&mut states, &mut srf, now, &p, &mut rr, &mut traffic, &mut tracer);
                reference::service(
                    &mut refs, &mut ref_srf, now, &p, &mut ref_rr, &mut ref_traffic,
                    &mut ref_events,
                );
            }
            prop_assert_eq!(traffic, ref_traffic, "cycle {}", now);
            prop_assert_eq!(rr, ref_rr);
            // Pop under random back-pressure, in the same order.
            for (si, (s, r)) in states.iter_mut().zip(refs.iter_mut()).enumerate() {
                let mask = next_bits(&mut rng);
                for lane in 0..lanes {
                    let ready = !r.lanes[lane].data.is_empty();
                    prop_assert_eq!(s.can_pop_data(lane), ready, "stream {} lane {}", si, lane);
                    if ready && mask & (1 << lane) != 0 {
                        let want = r.lanes[lane].data.pop_front().expect("checked ready");
                        prop_assert_eq!(s.pop_data(lane), want, "stream {} lane {}", si, lane);
                    }
                }
                prop_assert_eq!(s.drained(), r.drained());
            }
            if now == snap_cycle {
                // A snapshot round trip mid-run must be invisible, and
                // re-encoding the restored state must reproduce the bytes.
                for (s, (pl, &b)) in states.iter_mut().zip(plan.iter().zip(&bindings)) {
                    let bytes = snapshot(s);
                    let mut fresh = IdxState::new(b, pl.kind, lanes, &m);
                    let mut d = Dec::new(&bytes);
                    fresh.decode_state(&mut d).expect("own snapshot decodes");
                    d.finish().expect("snapshot fully consumed");
                    prop_assert_eq!(&snapshot(&fresh), &bytes);
                    *s = fresh;
                }
            }
            now += 1;
            let idle = pending.iter().all(VecDeque::is_empty)
                && refs.iter().all(|r| r.drained() && r.lanes.iter().all(|l| l.data.is_empty()));
            if idle {
                break;
            }
            prop_assert!(now < 100_000, "arbiters failed to drain: cycle {}", now);
        }
        prop_assert_eq!(events_of(tracer), ref_events);
        for bank in 0..lanes {
            for o in 0..srf.bank_words() {
                prop_assert_eq!(srf.read(bank, o), ref_srf.read(bank, o));
            }
        }
    }
}

/// One stream of the row-driven comparison: each row holds a raw record
/// per lane, made uniform (or bank-hot) when the plan is fit to a machine.
#[derive(Debug, Clone)]
struct RowPlan {
    kind: IdxKind,
    record_words: u32,
    /// In-lane: rows before this one are lane-uniform. Cross-lane: unused.
    diverge_at: usize,
    /// From this cycle on the row-driven side pops lane by lane (a
    /// per-lane call, which splits a shared cursor with words in flight).
    lane_pops_from: u64,
    /// `(seed, the seed of the raw record of each lane, flags)`.
    rows: Vec<(u32, u64, u8)>,
}

fn row_plans() -> impl Strategy<Value = Vec<RowPlan>> {
    let row = (any::<u32>(), any::<u64>(), any::<u8>());
    prop::collection::vec(
        (
            0u8..4,
            0u8..3,
            0usize..32,
            0u64..96,
            prop::collection::vec(row, 0..24),
        ),
        1..5,
    )
    .prop_map(|raw| {
        let mut seen_write = false;
        raw.into_iter()
            .map(|(kind_code, rw_code, diverge_at, lane_pops_from, rows)| {
                // A quarter never diverge or pop by lane, an eighth start split.
                let diverge_at = match diverge_at {
                    0..=3 => 0,
                    24.. => usize::MAX,
                    at => at,
                };
                let lane_pops_from = match lane_pops_from {
                    64.. => u64::MAX,
                    at => at,
                };
                let mut kind = match kind_code {
                    0 | 1 => IdxKind::InLaneRead,
                    2 => IdxKind::CrossLaneRead,
                    _ => IdxKind::InLaneWrite,
                };
                if kind == IdxKind::InLaneWrite && std::mem::replace(&mut seen_write, true) {
                    kind = IdxKind::InLaneRead;
                }
                let record_words = match kind {
                    IdxKind::InLaneWrite => 1,
                    _ => [1u32, 2, 4][rw_code as usize],
                };
                RowPlan {
                    kind,
                    record_words,
                    diverge_at,
                    lane_pops_from,
                    rows,
                }
            })
            .collect()
    })
}

/// Row `r` of `plan` on a machine of `lanes` lanes whose streams hold
/// `records` records: one record per lane.
fn fit_row(plan: &RowPlan, r: usize, lanes: usize, records: u32) -> Vec<u32> {
    let (seed, mut lane_seed, flags) = plan.rows[r];
    let raw: Vec<u32> = (0..lanes)
        .map(|_| next_bits(&mut lane_seed) as u32)
        .collect();
    (0..lanes)
        .map(|l| match plan.kind {
            // Every lane to one bank, different rows: the port bottleneck.
            IdxKind::CrossLaneRead if flags & 1 == 1 => {
                let rows = records / lanes as u32;
                (raw[l] % rows) * lanes as u32 + seed % lanes as u32
            }
            IdxKind::CrossLaneRead => raw[l] % records,
            // Lane-uniform until the stream diverges, and now and then after.
            _ if r < plan.diverge_at || flags & 3 == 0 => seed % records,
            _ => raw[l] % records,
        })
        .collect()
}

/// Machine shapes of the row-driven comparison: 4, 8 or 16 lanes, one or
/// two network ports a bank, crossbar or ring.
fn row_machines() -> impl Strategy<Value = MachineConfig> {
    (any::<bool>(), any::<bool>(), 0usize..3, 1usize..3).prop_map(|(isrf4, ring, width, ports)| {
        let mut m = MachineConfig::preset(if isrf4 {
            ConfigName::Isrf4
        } else {
            ConfigName::Isrf1
        });
        m.lanes = [4, 8, 16][width];
        let idx = m.srf.indexed.as_mut().expect("ISRF preset");
        idx.network_ports_per_bank = ports;
        if ring {
            idx.crosslane_topology = CrossLaneTopology::Ring;
        }
        m.validate().expect("test machine is valid");
        m
    })
}

fn snapshot(s: &IdxState) -> Vec<u8> {
    let mut e = Enc::new();
    s.encode_state(&mut e);
    e.into_bytes()
}

fn events_of(tracer: Tracer) -> Vec<(u64, TraceEvent)> {
    let rec = tracer.into_recorder().expect("recording tracer");
    assert_eq!(rec.ring().dropped(), 0);
    rec.ring().iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rows_match_queue_reference_and_per_lane_api(
        m in row_machines(),
        plan in row_plans(),
        seed in any::<u64>(),
        snap_cycle in 0u64..64,
    ) {
        let lanes = m.lanes;
        let p = IdxParams::from_machine(&m);
        let idx = m.srf.indexed.as_ref().expect("ISRF preset");
        // Two disjoint regions (reads, writes) of half a bank each.
        let mut srf = Srf::new(&m);
        let region = srf.bank_words() / 2;
        let (read_range, write_range) = (srf.alloc(region), srf.alloc(region));
        for l in 0..lanes {
            for o in 0..srf.bank_words() {
                srf.write(l, o, pattern(l, o));
            }
        }
        let (mut lane_srf, mut ref_srf) = (srf.clone(), srf.clone());
        let records: Vec<u32> = plan
            .iter()
            .map(|s| match s.kind {
                IdxKind::CrossLaneRead => lanes as u32 * region / s.record_words,
                _ => region / s.record_words,
            })
            .collect();
        let bindings: Vec<StreamBinding> = plan
            .iter()
            .zip(&records)
            .map(|(s, &n)| match s.kind {
                IdxKind::InLaneWrite => StreamBinding::whole(write_range, s.record_words, n),
                _ => StreamBinding::whole(read_range, s.record_words, n),
            })
            .collect();
        let fresh = |si: usize| IdxState::new(bindings[si], plan[si].kind, lanes, &m);
        // Row-driven (shared cursors where the rows allow), lane-driven
        // (split from the first push), and the queue reference.
        let mut rows: Vec<IdxState> = (0..plan.len()).map(fresh).collect();
        let mut by_lane: Vec<IdxState> = (0..plan.len()).map(fresh).collect();
        let mut refs: Vec<reference::Stream> = plan
            .iter()
            .zip(&bindings)
            .map(|(s, &binding)| reference::Stream {
                binding,
                kind: s.kind,
                lanes: (0..lanes).map(|_| reference::Lane::default()).collect(),
                fifo_cap: idx.addr_fifo_entries,
                buf_cap: m.srf.stream_buffer_words,
            })
            .collect();
        let mut next_row = vec![0usize; plan.len()];
        let (mut row_tracer, mut lane_tracer) =
            (Tracer::recording(1 << 20), Tracer::recording(1 << 20));
        let mut ref_events = Vec::new();
        let mut traffic = [SrfTraffic::default(); 3];
        let mut rr = [0usize; 3];
        let (mut rng, mut write_seq, mut now) = (seed, 0usize, 0u64);
        loop {
            // Push whole rows while every lane's FIFO has room.
            for (si, s) in plan.iter().enumerate() {
                while next_row[si] < s.rows.len() {
                    let room = refs[si].lanes.iter().all(|l| l.addr_fifo.len() < refs[si].fifo_cap);
                    for l in 0..lanes {
                        let lane_room = refs[si].lanes[l].addr_fifo.len() < refs[si].fifo_cap;
                        prop_assert_eq!(rows[si].can_push_addr(l), lane_room);
                        prop_assert_eq!(by_lane[si].can_push_addr(l), lane_room);
                    }
                    if !room {
                        break;
                    }
                    let recs = fit_row(s, next_row[si], lanes, records[si]);
                    let words: Vec<Word> = match s.kind {
                        IdxKind::InLaneWrite => {
                            (0..lanes).map(|l| write_word(write_seq + l)).collect()
                        }
                        _ => Vec::new(),
                    };
                    write_seq += words.len();
                    rows[si].push_row(&recs, &words);
                    for (l, &rec) in recs.iter().enumerate() {
                        match words.get(l) {
                            Some(&w) => by_lane[si].push_write_word(l, rec, w),
                            None => by_lane[si].push_addr(l, rec),
                        }
                        let w = words.get(l).copied().unwrap_or(0);
                        refs[si].lanes[l].addr_fifo.push_back((rec, w));
                    }
                    next_row[si] += 1;
                }
            }
            // Land arrivals: cross-lane returns share a random budget.
            let returns = (next_bits(&mut rng) as usize) % (lanes + 1);
            let mut budget = [returns; 3];
            for si in 0..plan.len() {
                if plan[si].kind == IdxKind::CrossLaneRead {
                    rows[si].tick_arrivals_budgeted(now, &mut budget[0]);
                    by_lane[si].tick_arrivals_budgeted(now, &mut budget[1]);
                    refs[si].tick(now, &mut budget[2]);
                } else {
                    rows[si].tick_arrivals(now);
                    by_lane[si].tick_arrivals(now);
                    refs[si].tick(now, &mut { usize::MAX });
                }
            }
            prop_assert_eq!(budget[0], budget[2]);
            prop_assert_eq!(budget[1], budget[2]);
            // Stage 1 grants the indexed group on most cycles.
            if next_bits(&mut rng) & 3 != 0 {
                service_indexed(
                    &mut rows, &mut srf, now, &p, &mut rr[0], &mut traffic[0], &mut row_tracer,
                );
                service_indexed(
                    &mut by_lane, &mut lane_srf, now, &p, &mut rr[1], &mut traffic[1],
                    &mut lane_tracer,
                );
                reference::service(
                    &mut refs, &mut ref_srf, now, &p, &mut rr[2], &mut traffic[2],
                    &mut ref_events,
                );
            }
            prop_assert_eq!(traffic[0], traffic[2], "cycle {}", now);
            prop_assert_eq!(traffic[1], traffic[2], "cycle {}", now);
            prop_assert_eq!((rr[0], rr[1]), (rr[2], rr[2]));
            // Pop whole rows under random back-pressure.
            for (si, r) in refs.iter_mut().enumerate() {
                for l in 0..lanes {
                    let ready = !r.lanes[l].data.is_empty();
                    prop_assert_eq!(rows[si].can_pop_data(l), ready, "stream {} lane {}", si, l);
                    prop_assert_eq!(by_lane[si].can_pop_data(l), ready);
                }
                let ready = r.lanes.iter().all(|l| !l.data.is_empty());
                if ready && next_bits(&mut rng) & 1 == 1 {
                    let want: Vec<Word> = r
                        .lanes
                        .iter_mut()
                        .map(|l| l.data.pop_front().expect("checked ready"))
                        .collect();
                    let mut got = vec![0; lanes];
                    if now >= plan[si].lane_pops_from {
                        for (l, g) in got.iter_mut().enumerate() {
                            *g = rows[si].pop_data(l);
                        }
                    } else {
                        rows[si].pop_row(&mut got);
                    }
                    prop_assert_eq!(&got, &want, "stream {} at cycle {}", si, now);
                    let got: Vec<Word> = (0..lanes).map(|l| by_lane[si].pop_data(l)).collect();
                    prop_assert_eq!(&got, &want, "stream {} at cycle {}", si, now);
                }
                prop_assert_eq!(rows[si].drained(), r.drained());
                // Shared or split, the snapshot is the same bytes.
                let bytes = snapshot(&rows[si]);
                prop_assert_eq!(&bytes, &snapshot(&by_lane[si]), "stream {} cycle {}", si, now);
                if now == snap_cycle {
                    // Decode mid-run and go on in lock-step.
                    let mut restored = fresh(si);
                    let mut d = Dec::new(&bytes);
                    restored.decode_state(&mut d).expect("own snapshot decodes");
                    d.finish().expect("snapshot fully consumed");
                    prop_assert_eq!(&snapshot(&restored), &bytes);
                    rows[si] = restored;
                }
            }
            now += 1;
            let idle = (0..plan.len()).all(|si| next_row[si] == plan[si].rows.len())
                && refs.iter().all(|r| r.drained() && r.lanes.iter().all(|l| l.data.is_empty()));
            if idle {
                break;
            }
            prop_assert!(now < 100_000, "arbiters failed to drain: cycle {}", now);
        }
        prop_assert_eq!(&events_of(row_tracer), &ref_events);
        prop_assert_eq!(&events_of(lane_tracer), &ref_events);
        for bank in 0..lanes {
            for o in 0..srf.bank_words() {
                prop_assert_eq!(srf.read(bank, o), ref_srf.read(bank, o));
                prop_assert_eq!(lane_srf.read(bank, o), ref_srf.read(bank, o));
            }
        }
    }
}
