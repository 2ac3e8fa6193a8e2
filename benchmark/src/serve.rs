//! `serve_mix`: closed-loop HTTP clients against an in-process
//! `isrf_serve::Server`, Small profile.
//!
//! `workers = max(1, nproc - 1)` and `nproc` client connections, each
//! sending its next job only when the last one is verified, polling status
//! every millisecond through `Client::get`. A pass is a fixed multiset of
//! [`PASS_JOBS`] jobs in a seeded order:
//!
//! * 60% named points with a unique nonce — they simulate;
//! * 20% repeats of a spec the set-up submitted — result-cache hits;
//! * 10% inline sources of the seeded family — parsed, scheduled and
//!   verified cold inside the server;
//! * 5% traced named points, followed by `GET /jobs/:id/trace`;
//! * 5% statically hazardous sources — `422` is the correct answer.
//!
//! Every payload is compared, byte for byte, with the rendering of a direct
//! `PointRunner` run of the same point (inline outputs: with the family's
//! native evaluator). Small points are short, so HTTP, `Json`, admission,
//! the queue and pool, and `run_while` slicing are a large part of a job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use isrf_apps::{Profile, APPS};
use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_serve::{
    analyze_point, AppRef, Client, JobSpec, Json, PointRunner, PointSpec, Server, ServerConfig,
};
use isrf_sim::ExecEngine;

use crate::family::{generate, hazard, Rng, Shape, SHAPES};
use crate::metrics::{median, RunResult};
use crate::spans::{self, Recorder, JOB};
use crate::yardstick::{slowdown, PassTimes, Yardstick};
use crate::{Plan, SETUP_ROUNDS};

/// Jobs of one pass, and how many of each kind.
pub const PASS_JOBS: usize = 200;
const UNIQUE: usize = 120;
const REPEAT: usize = 40;
const INLINE: usize = 20;
const TRACED: usize = 10;
const HAZARD: usize = 10;

/// Passes per second of `--seconds` at the commit the benchmark was sized
/// on (about 180 jobs a second there).
fn passes(plan: &Plan) -> u64 {
    plan.scale(0.9).max(2)
}

/// The server's slice length (`ServerConfig::default`), used by the direct
/// runs too.
const CHUNK_CYCLES: u64 = 50_000;

/// Points whose traces are small enough to fetch in every pass.
const TRACED_POINTS: [(&str, ConfigName); 4] = [
    ("sort", ConfigName::Isrf4),
    ("spmv", ConfigName::Isrf1),
    ("igraph", ConfigName::Base),
    ("rijndael", ConfigName::Cache),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unique,
    Repeat,
    Inline,
    Traced,
    Hazard,
}

enum Expect {
    /// The rendered outcome of basket point `i`'s direct run.
    Point(usize),
    /// That, plus the direct run's Chrome trace.
    Trace(usize),
    /// The words of the one output stream.
    Words(Vec<u32>),
    /// `422` naming this verifier code.
    Refused(&'static str),
}

struct Job {
    kind: Kind,
    body: String,
    expect: Expect,
}

/// A direct, in-process run of one point: the oracle of every served job
/// that names it.
struct Direct {
    spec: PointSpec,
    rendered: String,
    stats: RunStats,
    trace: Option<String>,
}

fn named(app: &str, config: ConfigName) -> PointSpec {
    PointSpec {
        app: AppRef::Named(app.to_string()),
        config,
        profile: Profile::Small,
        engine: ExecEngine::Tape,
    }
}

fn body(spec: &PointSpec, trace: bool, nonce: Option<String>) -> String {
    JobSpec {
        points: vec![spec.clone()],
        trace,
        nonce,
    }
    .to_json()
    .render()
}

fn direct(spec: PointSpec, trace: bool) -> Direct {
    let mut runner = PointRunner::new(&spec, trace).expect("shipped apps verify clean");
    let out = runner
        .run(CHUNK_CYCLES, |_| true)
        .expect("nothing pauses the run");
    Direct {
        spec,
        rendered: out.to_json().render(),
        stats: out.stats,
        trace: out.trace_json,
    }
}

/// The oracle pass: every Small point, and the traced ones again with a
/// recording tracer.
fn oracle(rec: &mut Recorder, yard: &mut Yardstick) -> (Vec<Direct>, Vec<Direct>) {
    rec.span("bench.oracle", |rec| {
        let basket = APPS
            .iter()
            .flat_map(|app| {
                yard.burst(rec);
                ConfigName::ALL.map(|config| direct(named(app, config), false))
            })
            .collect();
        let traced = TRACED_POINTS
            .iter()
            .map(|&(app, config)| direct(named(app, config), true))
            .collect();
        (basket, traced)
    })
    .0
}

/// Shapes small enough that an inline job costs about what a named one does.
fn inline_shapes() -> Vec<Shape> {
    SHAPES.iter().copied().filter(|s| s.size <= 64).collect()
}

/// The jobs of pass `pass`, in order.
fn pass_jobs(seed: u64, pass: u64, basket: &[Direct], traced: &[Direct]) -> Vec<Job> {
    let mut rng = Rng::new(seed, pass);
    let mut jobs = Vec::with_capacity(PASS_JOBS);
    for k in 0..UNIQUE {
        let i = k % basket.len();
        jobs.push(Job {
            kind: Kind::Unique,
            body: body(&basket[i].spec, false, Some(format!("{seed}-{pass}-{k}"))),
            expect: Expect::Point(i),
        });
    }
    for k in 0..REPEAT {
        let i = k % basket.len();
        jobs.push(Job {
            kind: Kind::Repeat,
            body: body(&basket[i].spec, false, None),
            expect: Expect::Point(i),
        });
    }
    let shapes = inline_shapes();
    for k in 0..INLINE {
        let shape = shapes[k % shapes.len()];
        // Indexed sources need an indexed SRF; the rest take any preset.
        let config = match (shape.indexed(), k % 4) {
            (true, n) if n % 2 == 0 => ConfigName::Isrf1,
            (true, _) => ConfigName::Isrf4,
            (false, n) => ConfigName::ALL[n],
        };
        let id = pass * 1000 + k as u64;
        let source = generate(shape, id, k as u32, &mut rng);
        jobs.push(Job {
            kind: Kind::Inline,
            body: body(&source.point(config), false, None),
            expect: Expect::Words(source.expect),
        });
    }
    for k in 0..TRACED {
        let i = k % traced.len();
        jobs.push(Job {
            kind: Kind::Traced,
            body: body(&traced[i].spec, true, None),
            expect: Expect::Trace(i),
        });
    }
    for _ in 0..HAZARD {
        jobs.push(Job {
            kind: Kind::Hazard,
            body: body(&hazard(4 + (rng.next_u64() % 100_000) as u32), false, None),
            expect: Expect::Refused("V303"),
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// What a client saw of one job.
struct Served {
    kind: Kind,
    ok: bool,
    latency_ms: f64,
    trace_fetch_ms: f64,
    polls: u64,
    retries_429: u64,
    finished_ns: u64,
}

/// A job's pass and what became of it.
type Outcome = (usize, Result<Served, String>);

/// The `points` array of a result body, as the server rendered it.
fn points_payload(result: &str) -> Option<&str> {
    let at = result.find("\"points\":[")?;
    result[at + "\"points\":[".len()..].strip_suffix("]}")
}

/// Submit one job, wait for it, fetch what it produced and check it.
fn serve_one(
    client: &mut Client,
    job: &Job,
    basket: &[Direct],
    traced: &[Direct],
    rec: &mut Recorder,
) -> Result<Served, String> {
    let io = |e: std::io::Error| format!("{e}");
    let start = rec.now_ns();
    let mut served = Served {
        kind: job.kind,
        ok: false,
        latency_ms: 0.0,
        trace_fetch_ms: 0.0,
        polls: 0,
        retries_429: 0,
        finished_ns: 0,
    };
    let resp = loop {
        let (resp, _) = rec.span("isrf-serve.submit", |_| client.post("/jobs", &job.body));
        let resp = resp.map_err(io)?;
        if resp.status != 429 {
            break resp;
        }
        served.retries_429 += 1;
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut result = String::new();
    let mut trace = String::new();
    if resp.status == 200 || resp.status == 202 {
        let id = resp
            .json()?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("submit answer has no id")?;
        if resp.status == 202 {
            let status_path = format!("/jobs/{id}");
            loop {
                let (st, _) = rec.span("isrf-serve.poll", |_| client.get(&status_path));
                served.polls += 1;
                let st = st.map_err(io)?.json()?;
                match st.get("status").and_then(Json::as_str) {
                    Some("done") => break,
                    Some("queued" | "running") => std::thread::sleep(Duration::from_millis(1)),
                    other => return Err(format!("job {id} ended as {other:?}")),
                }
            }
        }
        let (r, _) = rec.span("isrf-serve.result", |_| {
            client.get(&format!("/jobs/{id}/result"))
        });
        result = String::from_utf8(r.map_err(io)?.body).map_err(|e| format!("{e}"))?;
        if job.kind == Kind::Traced {
            let (t, ns) = rec.span("isrf-serve.trace_fetch", |_| {
                client.get(&format!("/jobs/{id}/trace"))
            });
            trace = String::from_utf8(t.map_err(io)?.body).map_err(|e| format!("{e}"))?;
            served.trace_fetch_ms = ns as f64 / 1e6;
        }
    }
    served.finished_ns = rec.now_ns();
    served.latency_ms = (served.finished_ns - start) as f64 / 1e6;

    let (ok, _) = rec.span("bench.check", |_| match &job.expect {
        Expect::Point(i) => {
            points_payload(&result) == Some(&basket[*i].rendered)
                && result.contains("\"cached\":true") == (job.kind == Kind::Repeat)
        }
        Expect::Trace(i) => {
            points_payload(&result) == Some(&traced[*i].rendered)
                && Some(&trace) == traced[*i].trace.as_ref()
        }
        Expect::Words(words) => Json::parse(&result).is_ok_and(|doc| {
            let got = doc
                .get("points")
                .and_then(Json::as_arr)
                .and_then(|p| p.first()?.get("outputs")?.as_arr()?.first()?.get("words"))
                .and_then(Json::as_arr);
            got.is_some_and(|got| {
                got.len() == words.len()
                    && got
                        .iter()
                        .zip(words)
                        .all(|(g, w)| g.as_u64() == Some(u64::from(*w)))
            })
        }),
        Expect::Refused(code) => {
            resp.status == 422 && String::from_utf8_lossy(&resp.body).contains(code)
        }
    });
    served.ok = ok;
    Ok(served)
}

/// Counters of `GET /metrics`, by name.
fn scrape(client: &mut Client) -> BTreeMap<String, u64> {
    let text = client
        .get("/metrics")
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect()
}

/// Seconds the workers have been busy since the server started.
fn worker_busy_s(counters: &BTreeMap<String, u64>, workers: usize) -> f64 {
    (0..workers)
        .map(|w| counters[&format!("worker_{w}_busy_micros")])
        .sum::<u64>() as f64
        / 1e6
}

struct Fixture {
    server: Server,
    basket: Vec<Direct>,
    traced: Vec<Direct>,
}

/// Set-up: the oracle pass, a fresh server, and one submission of every
/// basket point, which warms the process's memos and leaves the result
/// cache holding what the repeat jobs will hit.
fn setup(workers: usize, rec: &mut Recorder, yard: &mut Yardstick, res: &mut RunResult) -> Fixture {
    let (basket, traced) = oracle(rec, yard);
    let (server, _) = rec.span("isrf-serve.start", |_| {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port")
    });
    let mut client = Client::new(server.addr());
    for (i, d) in basket.iter().enumerate() {
        yard.burst(rec);
        let job = Job {
            kind: Kind::Unique,
            body: body(&d.spec, false, None),
            expect: Expect::Point(i),
        };
        let served = serve_one(&mut client, &job, &basket, &traced, rec);
        res.check(matches!(&served, Ok(s) if s.ok), || {
            format!("warm-up of {:?}: {:?}", d.spec.app, served.err())
        });
    }
    Fixture {
        server,
        basket,
        traced,
    }
}

pub fn run(plan: &Plan) -> (RunResult, Vec<Recorder>) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = threads.saturating_sub(1).max(1);
    let mut res = RunResult::default();
    let mut rec = Recorder::new(plan.traced, plan.epoch);
    let mut yard = Yardstick::new();

    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(Fixture { server, .. }) = fixture.take() {
            server.stop();
        }
        let (f, ns) = rec.span("setup", |rec| setup(workers, rec, &mut yard, &mut res));
        fixture = Some(f);
        setups.push(ns as f64 / 1e9 / slowdown(&yard.take_bursts()));
    }
    let Fixture {
        server,
        basket,
        traced,
    } = fixture.expect("at least one set-up round");

    let n_passes = passes(plan);
    let passes: Vec<Vec<Job>> = (0..n_passes)
        .map(|pass| pass_jobs(plan.seed, pass, &basket, &traced))
        .collect();

    let mut control = Client::new(server.addr());
    let before = scrape(&mut control);
    let start_ns = rec.now_ns();
    // The clients and this thread meet before and after every pass; between
    // passes the server is idle and this thread reads its counters. Every
    // client reads the yardstick before each of its jobs.
    let gate = Barrier::new(threads + 1);
    let cursors: Vec<AtomicUsize> = passes.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut busy_s = vec![worker_busy_s(&scrape(&mut control), workers)];
    let mut pass_start_ns = Vec::new();
    let per_client: Vec<(Vec<Outcome>, Vec<Vec<u64>>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::new(plan.traced, plan.epoch);
                    let mut client = Client::new(server.addr());
                    let mut yard = Yardstick::new();
                    let mut served = Vec::new();
                    let mut bursts = Vec::new();
                    for (pass, jobs) in passes.iter().enumerate() {
                        gate.wait();
                        loop {
                            let i = cursors[pass].fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            yard.burst(&mut rec);
                            rec.set_job((pass * PASS_JOBS + i) as u32 + 1);
                            let (one, _) = rec.span(JOB, |rec| {
                                serve_one(&mut client, job, &basket, &traced, rec)
                            });
                            served.push((pass, one));
                            rec.set_job(0);
                        }
                        bursts.push(yard.take_bursts());
                        gate.wait();
                    }
                    (served, bursts, rec)
                })
            })
            .collect();
        for _ in &passes {
            gate.wait();
            pass_start_ns.push(rec.now_ns());
            gate.wait();
            busy_s.push(worker_busy_s(&scrape(&mut control), workers));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = (rec.now_ns() - start_ns) as f64 / 1e9;
    let after = scrape(&mut control);

    let mut recorders = vec![];
    let mut served = Vec::new();
    let mut by_pass: Vec<Vec<f64>> = vec![Vec::new(); passes.len()];
    let mut pass_end_ns = pass_start_ns.clone();
    let mut bursts: Vec<Vec<u64>> = vec![Vec::new(); passes.len()];
    for (list, client_bursts, client_rec) in per_client {
        recorders.push(client_rec);
        for (of_pass, b) in bursts.iter_mut().zip(client_bursts) {
            of_pass.extend(b);
        }
        for (pass, one) in list {
            match one {
                Ok(s) => {
                    res.check(s.ok, || {
                        format!("{:?} job: wrong payload or status", s.kind)
                    });
                    by_pass[pass].push(s.latency_ms);
                    pass_end_ns[pass] = pass_end_ns[pass].max(s.finished_ns);
                    served.push(s);
                }
                Err(e) => res.check(false, || e),
            }
        }
    }

    let ms_of = |kind: Kind| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ms)
            .collect()
    };

    // What the named jobs of one pass carry in their payloads. Repeats are
    // answered from the cache: they count as payload, but no worker
    // simulated them.
    let simulated = || {
        (0..UNIQUE)
            .map(|k| &basket[k % basket.len()].stats)
            .chain((0..TRACED).map(|k| &traced[k % traced.len()].stats))
    };
    let payloads = || simulated().chain((0..REPEAT).map(|k| &basket[k % basket.len()].stats));
    let simulated_cycles: u64 = simulated().map(|s| s.cycles).sum();
    let mut times = PassTimes::default();
    for (p, jobs) in by_pass.iter().enumerate() {
        for &ms in jobs {
            times.job(ms);
        }
        times.close_pass(
            &bursts[p],
            (pass_end_ns[p] - pass_start_ns[p]) as f64 / 1e9,
            simulated_cycles,
            busy_s[p + 1] - busy_s[p],
        );
    }

    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
    let sum_workers = |suffix: &str| -> u64 {
        (0..workers)
            .map(|w| delta(&format!("worker_{w}_{suffix}")))
            .sum()
    };
    let busy_s = busy_s[passes.len()] - busy_s[0];

    let m = &mut res.metrics;
    res.notes.extend(times.report(&setups, m));
    m.set(
        "sim_cycles",
        payloads().map(|s| s.cycles).sum::<u64>() as f64,
    );
    m.set(
        "offchip_bytes",
        payloads()
            .map(|s| s.mem.bytes_read + s.mem.bytes_written)
            .sum::<u64>() as f64,
    );
    res.notes.push(format!(
        "{workers} workers serve {threads} closed-loop clients; sim_mcps is the named jobs' \
         simulated cycles per worker-busy second; sim_cycles and offchip_bytes are the named \
         jobs' payloads of one pass"
    ));

    m.set_sim_counters(payloads(), 1);
    m.set("isrf-serve.hit_ms_p50", median(&ms_of(Kind::Repeat)));
    m.set("isrf-serve.miss_ms_p50", median(&ms_of(Kind::Unique)));
    m.set("isrf-serve.reject_ms_p50", median(&ms_of(Kind::Hazard)));
    let fetches: Vec<f64> = served
        .iter()
        .filter(|s| s.kind == Kind::Traced)
        .map(|s| s.trace_fetch_ms)
        .collect();
    m.set("isrf-serve.trace_fetch_ms_p50", median(&fetches));
    let polled = served.iter().filter(|s| s.polls > 0).count().max(1);
    m.set(
        "isrf-serve.polls_per_job",
        served.iter().map(|s| s.polls).sum::<u64>() as f64 / polled as f64,
    );
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.set(
        "isrf-serve.result_cache_hit_ratio",
        ratio(
            delta("serve_result_cache_hits"),
            delta("serve_result_cache_misses"),
        ),
    );
    m.set(
        "isrf-serve.verify_cache_hit_ratio",
        ratio(
            delta("serve_verify_cache_hits"),
            delta("serve_verify_cache_misses"),
        ),
    );
    m.set(
        "isrf-serve.worker_busy_ratio",
        busy_s / (workers as f64 * wall_s),
    );
    m.set(
        "isrf-serve.stolen_ratio",
        sum_workers("stolen") as f64 / sum_workers("items").max(1) as f64,
    );
    m.set(
        "isrf-serve.http_429",
        served.iter().map(|s| s.retries_429).sum::<u64>() as f64,
    );
    m.set(
        "isrf-kernel.sched_cache_hit_ratio",
        ratio(delta("sched_cache_hits"), delta("sched_cache_misses")),
    );
    m.set(
        "isrf-sim.tape_cache_hit_ratio",
        ratio(delta("tape_cache_hits"), delta("tape_cache_misses")),
    );

    if plan.traced {
        // Parent links are per recorder, so weigh each client's coverage by
        // its job time.
        let (inside, total) = recorders.iter().fold((0.0, 0.0), |(inside, total), r| {
            let jobs = spans::job_ns(r.spans()) as f64;
            (
                inside + spans::layer_coverage(r.spans()) * jobs,
                total + jobs,
            )
        });
        m.set("bench.layer_coverage", inside / total);
        m.set("bench.traced_jobs_per_s", times.jobs_per_s());
        let miss_ms = median(&ms_of(Kind::Unique));
        let in_process_ms = replay(passes.iter().flatten(), &mut rec, &mut res);
        let m = &mut res.metrics;
        m.set("isrf-serve.http_overhead_ms_p50", miss_ms - in_process_ms);
        // Of a served miss, the part the in-process layers account for.
        let in_run = spans::share_of_jobs(rec.spans(), "isrf-serve.runner_run");
        m.set("isrf-sim.run_share", in_run * in_process_ms / miss_ms);
    }
    server.stop();
    recorders.insert(0, rec);
    (res, recorders)
}

/// Traced run only: the job list again, in process and on this thread,
/// through the public functions a served job goes through, which attributes
/// service time from outside. Returns the median time of a unique job.
fn replay<'a>(jobs: impl Iterator<Item = &'a Job>, rec: &mut Recorder, res: &mut RunResult) -> f64 {
    let mut unique_ms = Vec::new();
    let mut encode_bytes = 0u64;
    for (i, job) in jobs.enumerate() {
        // Only jobs that simulate say where a miss's time goes.
        if !matches!(job.kind, Kind::Unique | Kind::Inline | Kind::Hazard) {
            continue;
        }
        rec.set_job(i as u32 + 1);
        let ((), ns) = rec.span(JOB, |rec| {
            let (spec, _) = rec.span("isrf-serve.spec_parse", |_| {
                let doc = Json::parse(&job.body).expect("our own rendering parses");
                JobSpec::from_json(&doc).expect("our own specs validate")
            });
            let point = &spec.points[0];
            let (verdict, _) = rec.span("isrf-serve.analyze_point", |_| analyze_point(point));
            if verdict.is_err() {
                return;
            }
            let (runner, _) = rec.span("isrf-serve.runner_new", |_| {
                PointRunner::new(point, spec.trace)
            });
            let mut runner = runner.expect("admitted points build");
            let (out, _) = rec.span("isrf-serve.runner_run", |_| {
                runner
                    .run(CHUNK_CYCLES, |_| true)
                    .expect("nothing pauses the run")
            });
            let (rendered, _) = rec.span("isrf-serve.encode", |_| out.to_json().render());
            encode_bytes += rendered.len() as u64;
        });
        rec.set_job(0);
        if job.kind == Kind::Unique {
            unique_ms.push(ns as f64 / 1e6);
        }
    }
    let us_p50 = |name: &str| median(&spans::durations(rec.spans(), name)) / 1e3;
    let m = &mut res.metrics;
    m.set(
        "isrf-serve.spec_parse_us_p50",
        us_p50("isrf-serve.spec_parse"),
    );
    m.set(
        "isrf-serve.analyze_us_p50",
        us_p50("isrf-serve.analyze_point"),
    );
    m.set(
        "isrf-serve.runner_new_us_p50",
        us_p50("isrf-serve.runner_new"),
    );
    m.set(
        "isrf-serve.runner_run_us_p50",
        us_p50("isrf-serve.runner_run"),
    );
    m.set("isrf-serve.encode_us_p50", us_p50("isrf-serve.encode"));
    m.set("isrf-serve.encode_bytes", encode_bytes as f64);
    median(&unique_ms)
}
