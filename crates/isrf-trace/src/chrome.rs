//! Hand-rolled Chrome trace-event JSON exporter.
//!
//! Produces the JSON-array flavor of the Trace Event Format, loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Timestamps
//! are machine cycles (1 "µs" = 1 cycle).
//!
//! Track layout:
//!
//! - **pid 1 `sim`** — tid 0: kernel executions as complete (`"X"`) spans;
//!   tid 1: per-cycle Figure-12 attribution, with consecutive
//!   identically-attributed cycles collapsed into one span; counter
//!   (`"C"`) tracks for SRF-port grants, indexed accesses/rejections,
//!   kernel stall reasons, and address-FIFO occupancy, each aggregated
//!   into [`BUCKET`]-cycle buckets to bound file size.
//! - **pid 2 `mem`** — transfer lifetime spans (`TransferStart` →
//!   `TransferDone`, striped across 8 tids by id) and bucketed
//!   vector-cache hit/miss/writeback counters.
//!
//! The exporter is a pure function of the event stream: deterministic
//! output (BTree-ordered state, stable sort by timestamp) so golden-file
//! tests are byte-exact. It writes text straight into one `String` rather
//! than building a [`Json`](crate::json::Json) tree because an export is a
//! node per event, a million of them for a Paper-size run, and the
//! benchmark times it (`isrf-trace.export_ms_per_mevent`); it is the one
//! writer of JSON text in the workspace beside `json.rs`.

use crate::event::{CycleAttr, StallReason, TraceEvent};
use crate::json::escape_into;
use std::collections::BTreeMap;

/// Cycles per aggregation bucket for counter tracks.
pub const BUCKET: u64 = 64;

const PID_SIM: u32 = 1;
const PID_MEM: u32 = 2;
const TID_KERNELS: u32 = 0;
const TID_CYCLES: u32 = 1;
const TID_PORT: u32 = 2;
const TID_IDX: u32 = 3;
const TID_STALLS: u32 = 4;
const TID_FIFO: u32 = 5;
const MEM_TRANSFER_TIDS: u64 = 8;

struct Emitted {
    ts: u64,
    json: String,
}

struct Writer {
    out: Vec<Emitted>,
}

impl Writer {
    fn span(&mut self, pid: u32, tid: u32, ts: u64, dur: u64, name: &str, args: &[(&str, String)]) {
        let mut j = format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":\""
        );
        escape_into(&mut j, name);
        j.push('"');
        push_args(&mut j, args);
        j.push('}');
        self.out.push(Emitted { ts, json: j });
    }

    fn counter(&mut self, pid: u32, tid: u32, ts: u64, name: &str, args: &[(&str, String)]) {
        let mut j = format!("{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"");
        escape_into(&mut j, name);
        j.push('"');
        push_args(&mut j, args);
        j.push('}');
        self.out.push(Emitted { ts, json: j });
    }

    fn meta(&mut self, pid: u32, tid: Option<u32>, what: &str, name: &str) {
        let mut j = format!("{{\"ph\":\"M\",\"pid\":{pid}");
        if let Some(tid) = tid {
            j.push_str(&format!(",\"tid\":{tid}"));
        }
        j.push_str(&format!(",\"name\":\"{what}\",\"args\":{{\"name\":\""));
        escape_into(&mut j, name);
        j.push_str("\"}}");
        self.out.push(Emitted { ts: 0, json: j });
    }
}

fn push_args(j: &mut String, args: &[(&str, String)]) {
    if args.is_empty() {
        return;
    }
    j.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        j.push('"');
        escape_into(j, k);
        j.push_str("\":");
        j.push_str(v);
    }
    j.push('}');
}

#[derive(Default)]
struct Buckets {
    port: BTreeMap<u64, [u64; 3]>, // seq, idx_group, preempt
    idx: BTreeMap<u64, [u64; 3]>,  // inlane, crosslane, reject
    stalls: BTreeMap<u64, [u64; StallReason::COUNT]>,
    fifo_max: BTreeMap<u64, u64>,
    cache: BTreeMap<u64, [u64; 3]>, // hits, misses, writebacks
}

/// Export a stamped event stream as a Chrome trace-event JSON document.
///
/// `events` must be in recording order (cycle stamps non-decreasing), as
/// produced by [`crate::RingBuffer::iter`]. Spans still open when the
/// stream ends (a kernel with no `KernelEnd`, a transfer with no
/// `TransferDone` — e.g. after a differential failure) are closed at the
/// last seen cycle and tagged `"incomplete"`.
pub fn export<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a (u64, TraceEvent)>,
{
    let mut w = Writer { out: Vec::new() };
    w.meta(PID_SIM, None, "process_name", "sim");
    w.meta(PID_SIM, Some(TID_KERNELS), "thread_name", "kernels");
    w.meta(
        PID_SIM,
        Some(TID_CYCLES),
        "thread_name",
        "cycle attribution",
    );
    w.meta(PID_SIM, Some(TID_PORT), "thread_name", "srf port grants");
    w.meta(PID_SIM, Some(TID_IDX), "thread_name", "indexed accesses");
    w.meta(PID_SIM, Some(TID_STALLS), "thread_name", "kernel stalls");
    w.meta(
        PID_SIM,
        Some(TID_FIFO),
        "thread_name",
        "addr fifo occupancy",
    );
    w.meta(PID_MEM, None, "process_name", "mem");
    w.meta(PID_MEM, Some(0), "thread_name", "vector cache");
    for t in 0..MEM_TRANSFER_TIDS {
        w.meta(
            PID_MEM,
            Some(t as u32 + 1),
            "thread_name",
            &format!("transfers {t}"),
        );
    }

    let mut buckets = Buckets::default();
    // Open-span state, keyed for determinism.
    let mut open_kernels: BTreeMap<u32, (u64, Box<str>)> = BTreeMap::new();
    let mut open_transfers: BTreeMap<u64, OpenTransfer> = BTreeMap::new();
    // Run-length state for the attribution track.
    let mut attr_run: Option<(CycleAttr, u64, u64)> = None; // (attr, start, len)
    let mut last_cycle = 0u64;

    let flush_attr = |w: &mut Writer, run: &mut Option<(CycleAttr, u64, u64)>| {
        if let Some((attr, start, len)) = run.take() {
            w.span(PID_SIM, TID_CYCLES, start, len, attr.as_str(), &[]);
        }
    };

    for (cycle, ev) in events {
        let cycle = *cycle;
        last_cycle = last_cycle.max(cycle);
        let bucket = (cycle / BUCKET) * BUCKET;
        match ev {
            TraceEvent::Cycle(a) => {
                match &mut attr_run {
                    Some((attr, start, len)) if *attr == *a && *start + *len == cycle => *len += 1,
                    _ => {
                        flush_attr(&mut w, &mut attr_run);
                        attr_run = Some((*a, cycle, 1));
                    }
                }
                continue;
            }
            TraceEvent::KernelStart { op, name } => {
                open_kernels.insert(*op, (cycle, name.clone()));
            }
            TraceEvent::KernelEnd {
                op,
                body_cycles,
                advance_cycles,
                stall_cycles,
                flush_cycles,
            } => {
                let (start, name) = open_kernels
                    .remove(op)
                    .unwrap_or((cycle, format!("op{op}").into()));
                w.span(
                    PID_SIM,
                    TID_KERNELS,
                    start,
                    (cycle - start).max(1),
                    &name,
                    &[
                        ("op", op.to_string()),
                        ("body_cycles", body_cycles.to_string()),
                        ("advance_cycles", advance_cycles.to_string()),
                        ("stall_cycles", stall_cycles.to_string()),
                        ("flush_cycles", flush_cycles.to_string()),
                    ],
                );
            }
            TraceEvent::PortPreempted => buckets.port.entry(bucket).or_default()[2] += 1,
            TraceEvent::SeqGrant { .. } => buckets.port.entry(bucket).or_default()[0] += 1,
            TraceEvent::IdxGroupGrant => buckets.port.entry(bucket).or_default()[1] += 1,
            TraceEvent::IdxAccess {
                crosslane,
                fifo_after,
                ..
            } => {
                let slot = if *crosslane { 1 } else { 0 };
                buckets.idx.entry(bucket).or_default()[slot] += 1;
                let m = buckets.fifo_max.entry(bucket).or_default();
                *m = (*m).max(u64::from(*fifo_after));
            }
            TraceEvent::IdxReject { .. } => buckets.idx.entry(bucket).or_default()[2] += 1,
            TraceEvent::KernelStall { reason, .. } => {
                buckets.stalls.entry(bucket).or_default()[reason.index()] += 1;
            }
            TraceEvent::TransferStart {
                op,
                id,
                words,
                write,
                cacheable,
            } => {
                open_transfers.insert(
                    *id,
                    OpenTransfer {
                        start: cycle,
                        op: *op,
                        words: *words,
                        write: *write,
                        cacheable: *cacheable,
                        served: None,
                    },
                );
            }
            TraceEvent::TransferServed { id } => {
                if let Some(t) = open_transfers.get_mut(id) {
                    t.served = Some(cycle);
                }
            }
            TraceEvent::TransferDone { op, id } => {
                let t = open_transfers.remove(id).unwrap_or(OpenTransfer {
                    start: cycle,
                    op: *op,
                    words: 0,
                    write: false,
                    cacheable: false,
                    served: None,
                });
                emit_transfer(&mut w, *id, cycle, &t, false);
            }
            TraceEvent::CacheProbe { hit, writeback } => {
                let c = buckets.cache.entry(bucket).or_default();
                if *hit {
                    c[0] += 1;
                } else {
                    c[1] += 1;
                }
                if *writeback {
                    c[2] += 1;
                }
            }
        }
    }
    flush_attr(&mut w, &mut attr_run);
    for (op, (start, name)) in &open_kernels {
        w.span(
            PID_SIM,
            TID_KERNELS,
            *start,
            (last_cycle - start).max(1),
            name,
            &[("op", op.to_string()), ("incomplete", "true".to_string())],
        );
    }
    for (id, t) in &open_transfers {
        emit_transfer(&mut w, *id, last_cycle.max(t.start + 1), t, true);
    }

    for (ts, c) in &buckets.port {
        w.counter(
            PID_SIM,
            TID_PORT,
            *ts,
            "srf port grants",
            &[
                ("seq", c[0].to_string()),
                ("idx_group", c[1].to_string()),
                ("preempt", c[2].to_string()),
            ],
        );
    }
    for (ts, c) in &buckets.idx {
        w.counter(
            PID_SIM,
            TID_IDX,
            *ts,
            "indexed accesses",
            &[
                ("inlane", c[0].to_string()),
                ("crosslane", c[1].to_string()),
                ("rejected", c[2].to_string()),
            ],
        );
    }
    for (ts, c) in &buckets.stalls {
        let args: Vec<(&str, String)> = StallReason::ALL
            .into_iter()
            .filter(|r| c[r.index()] > 0)
            .map(|r| (r.as_str(), c[r.index()].to_string()))
            .collect();
        w.counter(PID_SIM, TID_STALLS, *ts, "kernel stalls", &args);
    }
    for (ts, m) in &buckets.fifo_max {
        w.counter(
            PID_SIM,
            TID_FIFO,
            *ts,
            "addr fifo occupancy",
            &[("max", m.to_string())],
        );
    }
    for (ts, c) in &buckets.cache {
        w.counter(
            PID_MEM,
            0,
            *ts,
            "vector cache",
            &[
                ("hits", c[0].to_string()),
                ("misses", c[1].to_string()),
                ("writebacks", c[2].to_string()),
            ],
        );
    }

    w.out.sort_by_key(|e| e.ts);
    let mut doc = String::with_capacity(w.out.len() * 96 + 64);
    doc.push_str("[\n");
    for (i, e) in w.out.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&e.json);
    }
    doc.push_str("\n]\n");
    doc
}

struct OpenTransfer {
    start: u64,
    op: u32,
    words: u32,
    write: bool,
    cacheable: bool,
    served: Option<u64>,
}

fn emit_transfer(w: &mut Writer, id: u64, end: u64, t: &OpenTransfer, incomplete: bool) {
    let name = format!(
        "{} {}w op{}",
        if t.write { "store" } else { "load" },
        t.words,
        t.op
    );
    let mut args = vec![
        ("id", id.to_string()),
        ("words", t.words.to_string()),
        ("cacheable", t.cacheable.to_string()),
    ];
    if let Some(s) = t.served {
        args.push(("served_at", s.to_string()));
    }
    if incomplete {
        args.push(("incomplete", "true".to_string()));
    }
    w.span(
        PID_MEM,
        (id % MEM_TRANSFER_TIDS) as u32 + 1,
        t.start,
        (end - t.start).max(1),
        &name,
        &args,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_events() -> Vec<(u64, TraceEvent)> {
        vec![
            (
                0,
                TraceEvent::TransferStart {
                    op: 0,
                    id: 1,
                    words: 64,
                    write: false,
                    cacheable: true,
                },
            ),
            (
                1,
                TraceEvent::KernelStart {
                    op: 1,
                    name: "fft \"stage1\"\n".into(),
                },
            ),
            (1, TraceEvent::Cycle(CycleAttr::Dispatch)),
            (2, TraceEvent::Cycle(CycleAttr::Dispatch)),
            (3, TraceEvent::Cycle(CycleAttr::Advance)),
            (4, TraceEvent::Cycle(CycleAttr::Advance)),
            (
                5,
                TraceEvent::KernelStall {
                    slot: 0,
                    reason: StallReason::SeqInStarved,
                },
            ),
            (5, TraceEvent::Cycle(CycleAttr::SrfStall)),
            (6, TraceEvent::Cycle(CycleAttr::Advance)),
            (
                7,
                TraceEvent::CacheProbe {
                    hit: true,
                    writeback: false,
                },
            ),
            (7, TraceEvent::TransferServed { id: 1 }),
            (
                8,
                TraceEvent::KernelEnd {
                    op: 1,
                    body_cycles: 3,
                    advance_cycles: 3,
                    stall_cycles: 1,
                    flush_cycles: 0,
                },
            ),
            (8, TraceEvent::Cycle(CycleAttr::KernelFinish)),
            (9, TraceEvent::TransferDone { op: 0, id: 1 }),
        ]
    }

    #[test]
    fn export_is_valid_json_and_escapes_names() {
        let doc = export(sample_events().iter());
        Json::parse(&doc).unwrap();
        assert!(doc.contains(r#"fft \"stage1\"\n"#), "kernel name escaped");
        assert!(!doc.contains("fft \"stage1\"\n\""), "raw quote leaked");
    }

    #[test]
    fn export_collapses_attribution_runs() {
        let doc = export(sample_events().iter());
        // dispatch cycles 1-2 collapse into one 2-cycle span; advance is
        // split by the stall at cycle 5 into a 2-span and a 1-span.
        assert_eq!(doc.matches("\"name\":\"dispatch\"").count(), 1);
        assert!(doc.contains("\"ts\":1,\"dur\":2,\"name\":\"dispatch\""));
        assert_eq!(doc.matches("\"name\":\"advance\"").count(), 2);
        assert!(doc.contains("\"ts\":3,\"dur\":2,\"name\":\"advance\""));
        assert!(doc.contains("\"ts\":6,\"dur\":1,\"name\":\"advance\""));
    }

    #[test]
    fn export_timestamps_are_sorted() {
        let doc = export(sample_events().iter());
        let mut last = 0u64;
        for line in doc.lines() {
            if let Some(pos) = line.find("\"ts\":") {
                let rest = &line[pos + 5..];
                let end = rest.find([',', '}']).unwrap();
                let ts: u64 = rest[..end].parse().unwrap();
                assert!(ts >= last, "timestamps regressed: {ts} after {last}");
                last = ts;
            }
        }
    }

    #[test]
    fn open_spans_are_closed_and_tagged() {
        let events = [
            (
                0,
                TraceEvent::TransferStart {
                    op: 2,
                    id: 9,
                    words: 16,
                    write: true,
                    cacheable: false,
                },
            ),
            (
                3,
                TraceEvent::KernelStart {
                    op: 3,
                    name: "k".into(),
                },
            ),
            (5, TraceEvent::Cycle(CycleAttr::Advance)),
        ];
        let doc = export(events.iter());
        Json::parse(&doc).unwrap();
        assert_eq!(doc.matches("\"incomplete\":true").count(), 2);
        assert!(doc.contains("store 16w op2"));
    }

    #[test]
    fn transfer_span_covers_lifetime_and_lands_on_id_tid() {
        let doc = export(sample_events().iter());
        assert!(doc.contains("load 64w op0"));
        // id 1 → tid 2 of pid 2; span 0..9.
        assert!(
            doc.contains("\"pid\":2,\"tid\":2,\"ts\":0,\"dur\":9,\"name\":\"load 64w op0\""),
            "{doc}"
        );
        assert!(doc.contains("\"served_at\":7"));
    }
}
