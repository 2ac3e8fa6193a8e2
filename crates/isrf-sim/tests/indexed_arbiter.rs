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
                    let mut e = Enc::new();
                    s.encode_state(&mut e);
                    let bytes = e.into_bytes();
                    let mut fresh = IdxState::new(b, pl.kind, lanes, &m);
                    let mut d = Dec::new(&bytes);
                    fresh.decode_state(&mut d).expect("own snapshot decodes");
                    d.finish().expect("snapshot fully consumed");
                    let mut again = Enc::new();
                    fresh.encode_state(&mut again);
                    prop_assert_eq!(&again.into_bytes(), &bytes);
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
        let rec = tracer.into_recorder().expect("recording tracer");
        prop_assert_eq!(rec.ring().dropped(), 0);
        let events: Vec<(u64, TraceEvent)> = rec.ring().iter().cloned().collect();
        prop_assert_eq!(events, ref_events);
        for bank in 0..lanes {
            for o in 0..srf.bank_words() {
                prop_assert_eq!(srf.read(bank, o), ref_srf.read(bank, o));
            }
        }
    }
}
