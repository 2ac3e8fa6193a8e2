//! The batch simulation server: job table, backpressure, memoization,
//! worker pool wiring, the HTTP route table, and graceful drain.
//!
//! Life of a job: `POST /jobs` validates the spec, consults the result
//! cache (a hit completes instantly), statically verifies every point
//! before admission (`422` with the verifier's structured diagnostics on
//! failure; verdicts memoized per point), applies the queue bound (429 +
//! `Retry-After` on overflow), then enqueues an *expand* item on the
//! pool's injector. The worker that picks it up fans the sweep's points
//! onto its own deque — stealable by siblings — and runs point 0 inline.
//! Points execute in bounded cycle slices so cancellation (`DELETE`) and
//! drain (`POST /shutdown`) take effect within one slice; drain
//! checkpoints in-flight machines via `Machine::save_state` and persists
//! them to the snapshot directory, where the next start resumes them
//! cycle-exactly. A job that turns done, failed or cancelled retires to a
//! bounded set of finished jobs; an id that has aged out answers `404`.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isrf_core::Memo;
use isrf_kernel::sched::SCHEDULES;
use isrf_sim::tape::TAPES;
use isrf_trace::{Histogram, MetricsRegistry};

use crate::exec::{analyze_point, PointRunner, Stopped};
use crate::http::{read_request, HttpError, Limits, Request, Response};
use crate::pool::{Pool, WorkerHandle};
use crate::spec::JobSpec;
use crate::Json;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Max jobs admitted but not yet picked up by a worker; beyond this
    /// `POST /jobs` answers 429.
    pub queue_cap: usize,
    /// Cycles per execution slice (clamped to at least 1); the
    /// cancellation/drain latency bound.
    pub chunk_cycles: u64,
    /// Where drain checkpoints go; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// HTTP byte caps.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            chunk_cycles: 50_000,
            snapshot_dir: None,
            limits: Limits::default(),
        }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// At least one point has started.
    Running,
    /// All points finished; result rendered.
    Done,
    /// Some point failed; `errors` has diagnostics.
    Failed,
    /// Cancelled by `DELETE`.
    Cancelled,
    /// Drained to checkpoints (server shutting down).
    Suspended,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Cancelled => "cancelled",
            Phase::Suspended => "suspended",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed | Phase::Cancelled)
    }
}

/// Per-point mutable state.
#[derive(Debug, Default)]
struct PointState {
    cycles: u64,
    error: Option<String>,
    /// Rendered outcome JSON (kept per point until the job finalizes).
    outcome: Option<Json>,
    /// Checkpoint restored at start or captured at drain, taken by the run
    /// that resumes it (`None` = start from scratch).
    snap: Option<Vec<u8>>,
}

#[derive(Debug)]
struct JobState {
    phase: Phase,
    /// What to run; `None` once the job has retired.
    spec: Option<Arc<JobSpec>>,
    points: Vec<PointState>,
    done: usize,
    /// Rendered `points` array of the result payload.
    result: Option<Arc<String>>,
    /// Chrome trace JSON (single-point traced jobs).
    trace: Option<Arc<String>>,
    cached: bool,
}

struct Job {
    id: u64,
    hash: u128,
    cancel: AtomicBool,
    submitted: Instant,
    state: Mutex<JobState>,
}

impl Job {
    /// `snaps`: per-point checkpoints of a previous drain, or empty.
    fn new(id: u64, spec: JobSpec, hash: u128, mut snaps: Vec<Option<Vec<u8>>>) -> Arc<Job> {
        snaps.resize(spec.points.len(), None);
        let point = |snap| PointState {
            snap,
            ..PointState::default()
        };
        // Sanctioned wall-clock read: feeds only the latency histogram,
        // never a result.
        #[allow(clippy::disallowed_methods)]
        let submitted = Instant::now();
        Arc::new(Job {
            id,
            hash,
            cancel: AtomicBool::new(false),
            submitted,
            state: Mutex::new(JobState {
                phase: Phase::Queued,
                points: snaps.into_iter().map(point).collect(),
                spec: Some(Arc::new(spec)),
                done: 0,
                result: None,
                trace: None,
                cached: false,
            }),
        })
    }
}

/// A unit of pool work.
enum WorkItem {
    /// Fan a job's points out (runs point 0 inline).
    Expand(Arc<Job>),
    /// Run one point of a job.
    Point(Arc<Job>, usize),
}

/// Shared server state.
struct Core {
    cfg: ServerConfig,
    /// The actual bound address (the config may ask for port 0).
    bound: Mutex<Option<SocketAddr>>,
    /// Queued, running and suspended jobs; [`retire`] moves a job that turns
    /// terminal to `finished`.
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    finished: Memo<u64, Job>,
    next_id: AtomicU64,
    /// Jobs admitted but not yet expanded (the bounded queue).
    queued: AtomicUsize,
    draining: AtomicBool,
    /// Rendered `points` arrays keyed by [`JobSpec::hash`].
    results: Memo<u128, String>,
    jobs_submitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Jobs rejected at admission by static verification (`422`).
    jobs_rejected_static: AtomicU64,
    /// Pre-admission verdicts keyed by [`crate::spec::PointSpec::verify_hash`]:
    /// the structured diagnostics that reject the point, empty when clean.
    verdicts: Memo<u128, Vec<Json>>,
    /// Snapshot files set aside as `*.bad` at start; points whose checkpoint
    /// the machine rejected and that ran from scratch.
    restore_skipped: AtomicU64,
    restore_restarted: AtomicU64,
    latency_ms: Mutex<Histogram>,
    started: Instant,
    pool: Mutex<Option<Pool<WorkItem>>>,
}

/// Budget of the result memo, in bytes of rendered payload: `serve_mix`
/// renders 33 KB a result and a generation must hold the 10.3 MB between two
/// reads of a repeat spec (16 MiB in all loses one hit in twenty).
pub const RESULT_BUDGET: u64 = 32 << 20;
/// Budget of the verdict memo, in verdicts: 572 in 20 s of `serve_mix`, 32 hot.
pub const VERDICT_BUDGET: u64 = 1024;
/// Budget of the finished jobs, in bytes of result, trace and errors: 35.3 KB
/// a `serve_mix` job, so one generation covers the 1188 most recent.
pub const FINISHED_BUDGET: u64 = 80 << 20;

impl Core {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes over bytes: the text comes from a file on disk, and slicing a
/// `&str` two bytes at a time panics on a multi-byte character.
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let nibble = |b: u8| {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| format!("bad hex byte {b:#04x}"))
    };
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

// ---------------------------------------------------------------------------
// Point execution on the worker pool
// ---------------------------------------------------------------------------

fn run_item(core: &Core, item: WorkItem, h: &WorkerHandle<'_, WorkItem>) {
    match item {
        WorkItem::Expand(job) => {
            core.queued.fetch_sub(1, Ordering::SeqCst);
            let points = {
                let mut st = job.state.lock().unwrap();
                if st.phase.terminal() {
                    return;
                }
                st.phase = Phase::Running;
                st.points.len()
            };
            for idx in 1..points {
                h.push(WorkItem::Point(Arc::clone(&job), idx));
            }
            run_point(core, &job, 0, h);
        }
        WorkItem::Point(job, idx) => run_point(core, &job, idx, h),
    }
}

/// What one point execution concluded.
enum PointEnd {
    Finished(crate::exec::PointOutcome),
    Cancelled,
    Drained(Option<Vec<u8>>, u64),
    Failed(String),
}

fn run_point(core: &Core, job: &Arc<Job>, idx: usize, h: &WorkerHandle<'_, WorkItem>) {
    if job.cancel.load(Ordering::SeqCst) {
        return settle_point(core, job, idx, PointEnd::Cancelled);
    }
    let (spec, restored) = {
        let mut st = job.state.lock().unwrap();
        // Retired since the flag was read: nothing is left to run.
        let Some(spec) = st.spec.clone() else { return };
        (spec, st.points[idx].snap.take())
    };
    if core.draining() {
        // Don't start (or resume) new work during drain: hand the restored
        // checkpoint (if any) straight back to the persister.
        return settle_point(core, job, idx, PointEnd::Drained(restored, 0));
    }
    let (point, trace) = (&spec.points[idx], spec.trace);
    let chunk = core.cfg.chunk_cycles;
    let end = catch_unwind(AssertUnwindSafe(|| {
        // A checkpoint the machine rejects (corrupt, or of another `ISRFSNAP`
        // version) costs its progress, not the job: the point runs from
        // scratch to the identical result.
        let resumed = restored.and_then(|snap| {
            let resumed = PointRunner::resume(point, trace, &snap);
            if resumed.is_err() {
                core.restore_restarted.fetch_add(1, Ordering::Relaxed);
            }
            resumed.ok()
        });
        let mut runner = match resumed.map_or_else(|| PointRunner::new(point, trace), Ok) {
            Ok(r) => r,
            Err(e) => return PointEnd::Failed(e),
        };
        // `run` slices internally; it pauses only when the closure vetoed
        // the next slice (cancellation or drain).
        match runner.run(chunk, |cycles| {
            job.state.lock().unwrap().points[idx].cycles = cycles;
            !job.cancel.load(Ordering::SeqCst) && !core.draining()
        }) {
            Ok(out) => PointEnd::Finished(out),
            Err(Stopped::Failed(e)) => PointEnd::Failed(e.to_string()),
            Err(Stopped::Paused) if job.cancel.load(Ordering::SeqCst) => PointEnd::Cancelled,
            Err(Stopped::Paused) => PointEnd::Drained(Some(runner.checkpoint()), runner.cycles()),
        }
    }));
    // The machine reports its own failures as `SimError`; a panic here is a
    // broken internal invariant, kept from taking the worker down.
    let end = end.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        PointEnd::Failed(format!("simulation panicked: {msg}"))
    });
    // Before the job can show as done: `/metrics` then has this worker's line.
    h.book();
    settle_point(core, job, idx, end);
}

fn settle_point(core: &Core, job: &Arc<Job>, idx: usize, end: PointEnd) {
    let mut st = job.state.lock().unwrap();
    match end {
        // Retired meanwhile: a late point's payload is not kept.
        PointEnd::Finished(_) | PointEnd::Drained(..) if st.spec.is_none() => {}
        PointEnd::Finished(out) => {
            let trace_json = out.trace_json.clone();
            st.points[idx].cycles = out.stats.cycles;
            st.points[idx].outcome = Some(out.to_json());
            st.done += 1;
            if let Some(t) = trace_json {
                st.trace = Some(Arc::new(t));
            }
            if st.done == st.points.len() && st.phase == Phase::Running {
                finalize(core, job, &mut st);
            }
        }
        PointEnd::Cancelled => {
            if !st.phase.terminal() {
                st.phase = Phase::Cancelled;
                core.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                retire(core, job, &mut st);
            }
        }
        PointEnd::Drained(snap, cycles) => {
            st.points[idx].snap = snap;
            if cycles > 0 {
                st.points[idx].cycles = cycles;
            }
            if !st.phase.terminal() {
                st.phase = Phase::Suspended;
            }
        }
        PointEnd::Failed(msg) => {
            st.points[idx].error = Some(msg);
            if !st.phase.terminal() {
                st.phase = Phase::Failed;
                core.jobs_failed.fetch_add(1, Ordering::Relaxed);
                // Stop sibling points early; they observe the flag as a
                // cancellation but the phase stays Failed.
                job.cancel.store(true, Ordering::SeqCst);
                retire(core, job, &mut st);
            }
        }
    }
}

/// All points done: render the result payload, fill the cache, record
/// latency.
fn finalize(core: &Core, job: &Arc<Job>, st: &mut JobState) {
    let mut body = String::from("[");
    for (i, p) in st.points.iter_mut().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let outcome = p.outcome.take().expect("finished point has an outcome");
        outcome.render_into(&mut body);
    }
    body.push(']');
    let rendered = Arc::new(body);
    st.result = Some(Arc::clone(&rendered));
    st.phase = Phase::Done;
    if st.spec.as_ref().is_some_and(|spec| !spec.trace) {
        let bytes = rendered.len() as u64;
        core.results.insert(job.hash, rendered, bytes);
    }
    core.jobs_done.fetch_add(1, Ordering::Relaxed);
    let ms = job
        .submitted
        .elapsed()
        .as_millis()
        .min(u128::from(u64::MAX)) as u64;
    core.latency_ms.lock().unwrap().observe(ms);
    retire(core, job, st);
}

/// `job` turned terminal: drop what only a live job needs (its spec with any
/// inline source, checkpoints, per-point outcomes), file it under the finished
/// jobs, then unlist it from the live ones — in that order, so a concurrent
/// `GET /jobs/:id` never finds it in neither.
fn retire(core: &Core, job: &Arc<Job>, st: &mut JobState) {
    st.spec = None;
    let mut bytes = std::mem::size_of::<Job>();
    for p in &mut st.points {
        (p.snap, p.outcome) = (None, None);
        bytes += std::mem::size_of::<PointState>() + p.error.as_ref().map_or(0, String::len);
    }
    bytes += [&st.result, &st.trace]
        .iter()
        .map(|s| s.as_ref().map_or(0, |s| s.len()))
        .sum::<usize>();
    // A job larger than a generation is charged a whole one: it is kept
    // until a generation's worth of later jobs has finished, like any other.
    let cost = (bytes as u64).min(FINISHED_BUDGET / 2);
    core.finished.insert(job.id, Arc::clone(job), cost);
    core.jobs.lock().unwrap().remove(&job.id);
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

fn job_status_json(job: &Job) -> Json {
    let st = job.state.lock().unwrap();
    let mut obj = vec![
        ("id".into(), Json::u64(job.id)),
        ("status".into(), Json::str(st.phase.as_str())),
        ("points".into(), Json::u64(st.points.len() as u64)),
        ("points_done".into(), Json::u64(st.done as u64)),
        (
            "cycles".into(),
            Json::u64(st.points.iter().map(|p| p.cycles).sum()),
        ),
        ("cached".into(), Json::Bool(st.cached)),
        ("hash".into(), Json::str(format!("{:032x}", job.hash))),
    ];
    let errors: Vec<Json> = st
        .points
        .iter()
        .filter_map(|p| p.error.as_ref())
        .map(|e| Json::str(e.clone()))
        .collect();
    if !errors.is_empty() {
        obj.push(("errors".into(), Json::Arr(errors)));
    }
    Json::Obj(obj)
}

fn submit(core: &Arc<Core>, req: &Request) -> Response {
    if core.draining() {
        return Response::error(503, "server is draining");
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    let hash = spec.hash();
    core.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    // Memoized? Complete instantly without touching the queue.
    if !spec.trace {
        if let Some(rendered) = core.results.get(&hash) {
            let id = core.next_id.fetch_add(1, Ordering::SeqCst);
            let job = Job::new(id, spec, hash, Vec::new());
            {
                let mut st = job.state.lock().unwrap();
                st.done = st.points.len();
                st.phase = Phase::Done;
                st.result = Some(rendered);
                st.cached = true;
                core.jobs_done.fetch_add(1, Ordering::Relaxed);
                retire(core, &job, &mut st);
            }
            return Response::json(
                200,
                &Json::Obj(vec![
                    ("id".into(), Json::u64(id)),
                    ("status".into(), Json::str("done")),
                    ("cached".into(), Json::Bool(true)),
                ]),
            );
        }
    }

    // Pre-admission static verification: every point is analyzed — and
    // the verdict memoized by `PointSpec::verify_hash` — before anything
    // touches the queue, so a statically hazardous program is rejected
    // here with the verifier's structured diagnostics instead of
    // surfacing as a worker-side failure after admission.
    let mut rejected: Vec<Json> = Vec::new();
    for (idx, point) in spec.points.iter().enumerate() {
        let analyze = || Ok::<_, Infallible>(analyze_point(point).err().unwrap_or_default());
        let Ok(diags) = core
            .verdicts
            .get_or_try_insert_with(point.verify_hash(), 1, analyze);
        if !diags.is_empty() {
            rejected.push(Json::Obj(vec![
                ("point".into(), Json::u64(idx as u64)),
                ("diagnostics".into(), Json::Arr(diags.as_ref().clone())),
            ]));
        }
    }
    if !rejected.is_empty() {
        core.jobs_rejected_static.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            422,
            &Json::Obj(vec![
                ("error".into(), Json::str("static verification failed")),
                ("rejected_points".into(), Json::Arr(rejected)),
            ]),
        );
    }

    // Bounded admission: reject rather than buffer without bound.
    if core.queued.load(Ordering::SeqCst) >= core.cfg.queue_cap {
        core.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            429,
            &Json::Obj(vec![
                ("error".into(), Json::str("job queue is full")),
                (
                    "queue_depth".into(),
                    Json::u64(core.queued.load(Ordering::SeqCst) as u64),
                ),
                ("queue_cap".into(), Json::u64(core.cfg.queue_cap as u64)),
            ]),
        )
        .with_header("Retry-After", "1");
    }

    let id = core.next_id.fetch_add(1, Ordering::SeqCst);
    let job = Job::new(id, spec, hash, Vec::new());
    core.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    core.queued.fetch_add(1, Ordering::SeqCst);
    if let Some(pool) = core.pool.lock().unwrap().as_ref() {
        pool.inject(WorkItem::Expand(job));
    }
    Response::json(
        202,
        &Json::Obj(vec![
            ("id".into(), Json::u64(id)),
            ("status".into(), Json::str("queued")),
            ("hash".into(), Json::str(format!("{hash:032x}"))),
        ]),
    )
}

fn job_result(job: &Job) -> Response {
    let st = job.state.lock().unwrap();
    match st.phase {
        Phase::Done => {
            let points = st.result.as_ref().expect("done job has a result");
            // The one splice of JSON text outside `isrf-trace`: `Json` rendered
            // `points` when the job finished, about 33 KB, and every poll and
            // cache hit serves it, so it goes out without a second render.
            let mut body = String::with_capacity(points.len() + 64);
            body.push_str(&format!(
                "{{\"id\":{},\"status\":\"done\",\"cached\":{},\"points\":",
                job.id, st.cached
            ));
            body.push_str(points);
            body.push('}');
            Response::json_raw(200, body)
        }
        phase => {
            let mut obj = vec![
                ("id".into(), Json::u64(job.id)),
                ("status".into(), Json::str(phase.as_str())),
            ];
            let errors: Vec<Json> = st
                .points
                .iter()
                .filter_map(|p| p.error.as_ref())
                .map(|e| Json::str(e.clone()))
                .collect();
            if !errors.is_empty() {
                obj.push(("errors".into(), Json::Arr(errors)));
            }
            Response::json(409, &Json::Obj(obj))
        }
    }
}

fn job_trace(job: &Job) -> Response {
    let st = job.state.lock().unwrap();
    match &st.trace {
        Some(t) => Response::json_raw(200, t.as_ref().clone()),
        None => Response::error(404, "no trace for this job (submit with \"trace\": true)"),
    }
}

fn cancel_job(core: &Core, job: &Arc<Job>) -> Response {
    job.cancel.store(true, Ordering::SeqCst);
    let mut st = job.state.lock().unwrap();
    if !st.phase.terminal() && st.phase != Phase::Suspended {
        // A queued job dies right here; a running one settles within a
        // slice, but report the final state immediately.
        st.phase = Phase::Cancelled;
        core.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        retire(core, job, &mut st);
    }
    Response::json(
        200,
        &Json::Obj(vec![
            ("id".into(), Json::u64(job.id)),
            ("status".into(), Json::str(st.phase.as_str())),
        ]),
    )
}

fn metrics(core: &Core) -> Response {
    let mut reg = MetricsRegistry::new();
    reg.set(
        "serve_queue_depth",
        core.queued.load(Ordering::SeqCst) as u64,
    );
    reg.set("serve_queue_cap", core.cfg.queue_cap as u64);
    for (name, counter) in [
        ("serve_jobs_submitted", &core.jobs_submitted),
        ("serve_jobs_done", &core.jobs_done),
        ("serve_jobs_failed", &core.jobs_failed),
        ("serve_jobs_cancelled", &core.jobs_cancelled),
        ("serve_jobs_rejected_429", &core.jobs_rejected),
        ("serve_jobs_rejected_static", &core.jobs_rejected_static),
        ("serve_restore_skipped", &core.restore_skipped),
        ("serve_restore_restarted", &core.restore_restarted),
    ] {
        reg.set(name, counter.load(Ordering::Relaxed));
    }
    reg.set("serve_jobs_live", core.jobs.lock().unwrap().len() as u64);
    // Every memo uniformly: hits, misses, evictions, resident entries and
    // resident cost in the unit of its budget.
    let finished = core.finished.stats();
    reg.set("serve_jobs_finished_resident", finished[3].1);
    for (name, stats) in [
        ("serve_result_cache", core.results.stats()),
        ("serve_verify_cache", core.verdicts.stats()),
        ("serve_jobs_finished", finished),
        ("sched_cache", SCHEDULES.stats()),
        ("tape_cache", TAPES.stats()),
    ] {
        for (suffix, value) in stats {
            reg.set(&format!("{name}_{suffix}"), value);
        }
    }
    let uptime = core.started.elapsed();
    let uptime_ms = uptime.as_millis().max(1) as u64;
    reg.set("serve_uptime_ms", uptime_ms);
    let done = core.jobs_done.load(Ordering::Relaxed);
    reg.set("serve_jobs_per_sec_x1000", done * 1_000_000 / uptime_ms);
    if let Some(pool) = core.pool.lock().unwrap().as_ref() {
        for (i, w) in pool.worker_stats().iter().enumerate() {
            reg.set(&format!("worker_{i}_items"), w.processed);
            reg.set(&format!("worker_{i}_stolen"), w.stolen);
            reg.set(&format!("worker_{i}_busy_micros"), w.busy_micros);
            reg.set(
                &format!("worker_{i}_utilization_pct"),
                w.busy_micros / 10 / uptime_ms.max(1),
            );
        }
    }
    reg.put_histogram(
        "serve_job_latency_ms",
        core.latency_ms.lock().unwrap().clone(),
    );
    Response::text(200, reg.render())
}

fn route(core: &Arc<Core>, req: &Request) -> Response {
    let segs: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    let find = |id: &str| -> Result<Arc<Job>, Response> {
        let id: u64 = id
            .parse()
            .map_err(|_| Response::error(400, "job id must be an integer"))?;
        // Live first: `retire` files a job as finished before unlisting it.
        let live = core.jobs.lock().unwrap().get(&id).cloned();
        live.or_else(|| core.finished.get(&id))
            .ok_or_else(|| Response::error(404, "no such job"))
    };
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => submit(core, req),
        ("GET", ["jobs", id]) => match find(id) {
            Ok(job) => Response::json(200, &job_status_json(&job)),
            Err(r) => r,
        },
        ("GET", ["jobs", id, "result"]) => match find(id) {
            Ok(job) => job_result(&job),
            Err(r) => r,
        },
        ("GET", ["jobs", id, "trace"]) => match find(id) {
            Ok(job) => job_trace(&job),
            Err(r) => r,
        },
        ("DELETE", ["jobs", id]) => match find(id) {
            Ok(job) => cancel_job(core, &job),
            Err(r) => r,
        },
        ("GET", ["metrics"]) => metrics(core),
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("POST", ["shutdown"]) => shutdown(core),
        ("GET" | "POST" | "DELETE", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not supported"),
    }
}

// ---------------------------------------------------------------------------
// Drain & restore
// ---------------------------------------------------------------------------

fn shutdown(core: &Arc<Core>) -> Response {
    if core.draining.swap(true, Ordering::SeqCst) {
        return Response::error(409, "already draining");
    }
    // Workers observe the flag within one slice; queued items settle as
    // Suspended. Then join the pool and persist every non-terminal job.
    if let Some(pool) = core.pool.lock().unwrap().as_mut() {
        pool.shutdown();
    }
    let persisted = persist_suspended(core);
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".into(), Json::str("stopped")),
            ("persisted".into(), Json::u64(persisted)),
        ]),
    )
}

fn persist_suspended(core: &Core) -> u64 {
    let Some(dir) = &core.cfg.snapshot_dir else {
        return 0;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return 0;
    }
    // Collected first: `retire` takes the table lock under a job's own.
    let jobs: Vec<Arc<Job>> = core.jobs.lock().unwrap().values().cloned().collect();
    let mut persisted = 0;
    for job in jobs {
        let mut st = job.state.lock().unwrap();
        // Retired (terminal) under its own lock since the table was read.
        let Some(spec) = st.spec.clone() else {
            continue;
        };
        st.phase = Phase::Suspended;
        let mut obj = vec![
            ("id".into(), Json::u64(job.id)),
            ("spec".into(), spec.to_json()),
        ];
        let points: Vec<Json> = st
            .points
            .iter()
            .map(|p| match &p.snap {
                Some(bytes) => Json::str(hex_encode(bytes)),
                None => Json::Null,
            })
            .collect();
        obj.push(("points".into(), Json::Arr(points)));
        let path = dir.join(format!("job-{}.json", job.id));
        let tmp = dir.join(format!(".job-{}.json.tmp", job.id));
        let body = Json::Obj(obj).render();
        let ok = std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if ok {
            persisted += 1;
        }
    }
    persisted
}

/// Load drained jobs from the snapshot directory; returns them with their
/// restored per-point checkpoints. Files are consumed on load: deleted, or
/// set aside as `*.bad` when they do not parse, so no start reads one twice.
fn restore_jobs(core: &Core) -> Vec<Arc<Job>> {
    let Some(dir) = &core.cfg.snapshot_dir else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("job-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        if let Some(job) = parse_persisted(core, &text) {
            let _ = std::fs::remove_file(&path);
            out.push(job);
        } else {
            let _ = std::fs::rename(&path, path.with_extension("json.bad"));
            core.restore_skipped.fetch_add(1, Ordering::Relaxed);
        }
    }
    out
}

fn parse_persisted(core: &Core, text: &str) -> Option<Arc<Job>> {
    let v = Json::parse(text).ok()?;
    let id = v.get("id")?.as_u64()?;
    let spec = JobSpec::from_json(v.get("spec")?).ok()?;
    let snaps: Vec<Option<Vec<u8>>> = v
        .get("points")?
        .as_arr()?
        .iter()
        .map(|p| match p {
            Json::Null => Some(None),
            other => hex_decode(other.as_str()?).ok().map(Some),
        })
        .collect::<Option<Vec<_>>>()?;
    if snaps.len() != spec.points.len() {
        return None;
    }
    // Keep fresh ids strictly above every restored id.
    let mut next = core.next_id.load(Ordering::SeqCst);
    while next <= id {
        match core
            .next_id
            .compare_exchange(next, id + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => break,
            Err(cur) => next = cur,
        }
    }
    let hash = spec.hash();
    Some(Job::new(id, spec, hash, snaps))
}

// ---------------------------------------------------------------------------
// The server proper
// ---------------------------------------------------------------------------

/// A running server: accept loop + worker pool.
pub struct Server {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, restore drained jobs (when a snapshot dir is configured),
    /// spawn the worker pool and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers;
        // Sanctioned wall-clock read: feeds only the uptime/throughput
        // metrics, never a result.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let core = Arc::new(Core {
            cfg,
            bound: Mutex::new(Some(addr)),
            jobs: Mutex::new(BTreeMap::new()),
            finished: Memo::new(FINISHED_BUDGET),
            next_id: AtomicU64::new(1),
            queued: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            results: Memo::new(RESULT_BUDGET),
            jobs_submitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_rejected_static: AtomicU64::new(0),
            verdicts: Memo::new(VERDICT_BUDGET),
            restore_skipped: AtomicU64::new(0),
            restore_restarted: AtomicU64::new(0),
            latency_ms: Mutex::new(Histogram::default()),
            started,
            pool: Mutex::new(None),
        });

        let weak: Weak<Core> = Arc::downgrade(&core);
        let pool = Pool::new(workers, move |_, item, h| {
            if let Some(core) = weak.upgrade() {
                run_item(&core, item, h);
            }
        });
        *core.pool.lock().unwrap() = Some(pool);

        let restored = restore_jobs(&core);
        for job in restored {
            core.jobs.lock().unwrap().insert(job.id, Arc::clone(&job));
            core.queued.fetch_add(1, Ordering::SeqCst);
            if let Some(pool) = core.pool.lock().unwrap().as_ref() {
                pool.inject(WorkItem::Expand(job));
            }
        }

        let accept_core = Arc::clone(&core);
        let accept = std::thread::Builder::new()
            .name("isrf-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_core.draining() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let core = Arc::clone(&accept_core);
                    let _ = std::thread::Builder::new()
                        .name("isrf-serve-conn".into())
                        .spawn(move || handle_connection(&core, stream));
                }
            })?;

        Ok(Server {
            core,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop exits (a `POST /shutdown` arrived).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Drain and stop from process context (same path as `POST /shutdown`),
    /// then join the accept loop.
    pub fn stop(mut self) {
        let _ = shutdown(&self.core);
        unblock_accept(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The accept loop only re-checks the drain flag after `accept` returns;
/// poke it with a throwaway connection.
fn unblock_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

fn handle_connection(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // Request/response bodies are small; Nagle + delayed ACK would add
    // tens of milliseconds per round trip.
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone();
    let Ok(mut w) = write_half else { return };
    let mut r = BufReader::new(stream);
    loop {
        match read_request(&mut r, &core.cfg.limits) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let close = req.wants_close();
                let stop_after = req.method == "POST" && req.path() == "/shutdown";
                let resp = route(core, &req);
                if resp.write_to(&mut w, close || stop_after).is_err() {
                    return;
                }
                if stop_after {
                    let _ = w.flush();
                    if let Some(addr) = *core.bound.lock().unwrap() {
                        unblock_accept(addr);
                    }
                    return;
                }
                if close {
                    return;
                }
            }
            Err(HttpError::Truncated(_)) | Err(HttpError::Io(_)) => return,
            Err(e) => {
                let _ = Response::error(e.status(), &format!("{e}")).write_to(&mut w, true);
                return;
            }
        }
    }
}
