//! End-to-end coverage of the job server over real sockets: submissions
//! match direct in-process runs word-for-word, sweeps shard across
//! workers, memoization serves repeats from cache, the queue bound
//! produces 429 + `Retry-After`, cancellation lands within a slice, and
//! the error paths return the right statuses.

use std::time::Duration;

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{Client, Json, Server, ServerConfig};

fn start(workers: usize, queue_cap: usize, chunk: u64) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        chunk_cycles: chunk,
        snapshot_dir: None,
        limits: Default::default(),
    })
    .expect("bind ephemeral port");
    let client = Client::new(server.addr());
    (server, client)
}

/// Direct in-process run: the oracle the server must match word-for-word.
fn direct(app: &str, cfg: ConfigName, profile: Profile) -> (u64, Vec<Vec<u64>>) {
    let mut pr = prepare_app(app, cfg, profile);
    let stats = pr.machine.run(&pr.program);
    let outs = pr
        .outputs
        .iter()
        .map(|&(base, words)| {
            pr.machine
                .mem()
                .memory()
                .read_block(base, words as usize)
                .into_iter()
                .map(u64::from)
                .collect()
        })
        .collect();
    (stats.cycles, outs)
}

/// Pull `(cycles, outputs-as-words)` out of a result payload point.
fn point_words(point: &Json) -> (u64, Vec<Vec<u64>>) {
    let cycles = point.get("cycles").and_then(Json::as_u64).unwrap();
    let outs = point
        .get("outputs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|o| {
            o.get("words")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|w| w.as_u64().unwrap())
                .collect()
        })
        .collect();
    (cycles, outs)
}

fn submit(client: &mut Client, body: &str) -> (u16, Json) {
    let resp = client.post("/jobs", body).expect("POST /jobs");
    let v = resp.json().expect("response is JSON");
    (resp.status, v)
}

fn fetch_result(client: &mut Client, id: u64) -> Json {
    let status = client
        .wait_job(id, Duration::from_secs(120))
        .expect("job settles");
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("done"),
        "job {id} did not finish: {}",
        status.render()
    );
    let resp = client
        .get(&format!("/jobs/{id}/result"))
        .expect("GET result");
    assert_eq!(resp.status, 200);
    resp.json().expect("result is JSON")
}

#[test]
fn single_job_matches_direct_run() {
    // `chunk_cycles: 0` is clamped to one-cycle slices, not a failed job.
    for chunk in [50_000, 0] {
        let (server, mut client) = start(2, 16, chunk);
        let (status, v) = submit(&mut client, r#"{"app":"sort","config":"ISRF4"}"#);
        assert_eq!(status, 202, "{}", v.render());
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        let result = fetch_result(&mut client, id);
        let points = result.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        let (cycles, outs) = point_words(&points[0]);
        let (want_cycles, want_outs) = direct("sort", ConfigName::Isrf4, Profile::Small);
        assert_eq!(cycles, want_cycles, "chunk {chunk}");
        assert_eq!(outs, want_outs, "chunk {chunk}");
        server.stop();
    }
}

#[test]
fn sweep_shards_and_every_point_matches() {
    let (server, mut client) = start(4, 16, 50_000);
    let body = r#"{"sweep":[
        {"app":"fft2d"},{"app":"rijndael"},{"app":"sort"},
        {"app":"filter"},{"app":"igraph"},
        {"app":"sort","config":"ISRF1"},{"app":"sort","config":"Cache"}
    ]}"#;
    let (status, v) = submit(&mut client, body);
    assert_eq!(status, 202, "{}", v.render());
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    let result = fetch_result(&mut client, id);
    let points = result.get("points").and_then(Json::as_arr).unwrap();
    let expect = [
        ("fft2d", ConfigName::Base),
        ("rijndael", ConfigName::Base),
        ("sort", ConfigName::Base),
        ("filter", ConfigName::Base),
        ("igraph", ConfigName::Base),
        ("sort", ConfigName::Isrf1),
        ("sort", ConfigName::Cache),
    ];
    assert_eq!(points.len(), expect.len());
    for (point, (app, cfg)) in points.iter().zip(expect) {
        let (cycles, outs) = point_words(point);
        let (want_cycles, want_outs) = direct(app, cfg, Profile::Small);
        assert_eq!(cycles, want_cycles, "{app}/{cfg}");
        assert_eq!(outs, want_outs, "{app}/{cfg}");
    }
    server.stop();
}

#[test]
fn repeat_submission_is_served_from_cache() {
    let (server, mut client) = start(2, 16, 50_000);
    let body = r#"{"app":"filter","config":"Base","nonce":"memo-test"}"#;
    let (status, v) = submit(&mut client, body);
    assert_eq!(status, 202);
    let cold_id = v.get("id").and_then(Json::as_u64).unwrap();
    let cold = fetch_result(&mut client, cold_id);
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));

    // Identical spec: completes instantly with cached=true on submit.
    let (status, v) = submit(&mut client, body);
    assert_eq!(status, 200, "{}", v.render());
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
    let warm_id = v.get("id").and_then(Json::as_u64).unwrap();
    assert_ne!(warm_id, cold_id);
    let warm = fetch_result(&mut client, warm_id);
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        cold.get("points").unwrap().render(),
        warm.get("points").unwrap().render(),
        "cached payload must be byte-identical"
    );

    // A different nonce defeats the cache.
    let (status, _) = submit(
        &mut client,
        r#"{"app":"filter","config":"Base","nonce":"other"}"#,
    );
    assert_eq!(status, 202);
    server.stop();
}

#[test]
fn queue_bound_produces_429_with_retry_after() {
    // One worker, queue of one, big Paper-profile jobs: the first job
    // occupies the worker, the second fills the queue, the third bounces.
    let (server, mut client) = start(1, 1, 5_000);
    let body = |i: u32| format!(r#"{{"app":"sort","profile":"paper","nonce":"flood-{i}"}}"#);
    let (status, v) = submit(&mut client, &body(0));
    assert_eq!(status, 202);
    let first = v.get("id").and_then(Json::as_u64).unwrap();
    // The queue slot is free again only once the worker has popped the
    // first job, so wait for that before sending the second.
    let mut polls = 0;
    loop {
        let st = client.get(&format!("/jobs/{first}")).unwrap();
        let st = st.json().unwrap();
        if st.get("status").and_then(Json::as_str) == Some("running") {
            break;
        }
        polls += 1;
        assert!(polls < 30_000, "first job never ran: {}", st.render());
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, v) = submit(&mut client, &body(1));
    assert_eq!(status, 202, "the free slot should admit the second job");
    let second = v.get("id").and_then(Json::as_u64).unwrap();
    let resp = client.post("/jobs", &body(2)).expect("POST /jobs");
    assert_eq!(resp.status, 429, "queue bound never tripped");
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.json().unwrap().get("error").is_some());
    // Cancel everything so shutdown is quick.
    for id in [first, second] {
        let resp = client.delete(&format!("/jobs/{id}")).expect("DELETE");
        assert_eq!(resp.status, 200);
    }
    server.stop();
}

#[test]
fn cancellation_lands_within_a_slice() {
    let (server, mut client) = start(1, 4, 2_000);
    let (status, v) = submit(
        &mut client,
        r#"{"app":"sort","profile":"paper","nonce":"cancel-me"}"#,
    );
    assert_eq!(status, 202);
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    let resp = client.delete(&format!("/jobs/{id}")).unwrap();
    assert_eq!(resp.status, 200);
    let st = client.wait_job(id, Duration::from_secs(30)).unwrap();
    assert_eq!(st.get("status").and_then(Json::as_str), Some("cancelled"));
    // Result of a cancelled job is a 409 conflict.
    let resp = client.get(&format!("/jobs/{id}/result")).unwrap();
    assert_eq!(resp.status, 409);
    server.stop();
}

#[test]
fn source_job_runs_and_traces() {
    let (server, mut client) = start(2, 8, 50_000);
    let body = r#"{
        "source":"kernel triple(istream<int> in, ostream<int> out) { int a, c; while (!eos(in)) { in >> a; c = a * 3 + 1; out << c; } }",
        "records_per_lane": 8, "seed": 7, "trace": true
    }"#;
    let (status, v) = submit(&mut client, body);
    assert_eq!(status, 202, "{}", v.render());
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    let result = fetch_result(&mut client, id);
    let points = result.get("points").and_then(Json::as_arr).unwrap();
    let (_, outs) = point_words(&points[0]);
    assert_eq!(outs.len(), 1);
    let salt = 7u32.wrapping_mul(0x9e37_79b9);
    for (k, &w) in outs[0].iter().enumerate() {
        let a = (k as u32).wrapping_mul(2654435761).wrapping_add(salt);
        assert_eq!(w, u64::from(a.wrapping_mul(3).wrapping_add(1)));
    }
    // The trace endpoint serves a chrome-format event array.
    let resp = client.get(&format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(resp.status, 200);
    let trace = resp.json().expect("trace is JSON");
    assert!(trace.get("traceEvents").is_some() || trace.as_arr().is_some());
    server.stop();
}

/// Inline-source SpMV gather kernel: a pointer stream drives a
/// cross-lane read of a condensed x table (the serve harness binds the
/// `idx_istream` with `table_records_per_lane × lanes` = 512 records, so
/// the `& 511` mask keeps every gather in bounds and verifier-clean).
const SPMV_SRC: &str = "kernel spmv_gather(istream<int> col, istream<int> val, \
     idx_istream<int> x, ostream<int> out) \
     { int c, v, xv, y; while (!eos(col)) { col >> c; val >> v; \
     x[c & 511] >> xv; y = v * xv; out << y; } }";

#[test]
fn source_spmv_sweep_matches_direct_runs() {
    use isrf_serve::{JobSpec, PointRunner};

    let (server, mut client) = start(3, 16, 50_000);
    // Indexed configs only: the gather is V301 on Base/Cache by design
    // (covered by the verifier corpus), and a failed point fails the job.
    let mut body = String::from("{\"sweep\":[");
    for (i, cfg) in ["ISRF1", "ISRF4"].iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"source\":{:?},\"records_per_lane\":16,\"seed\":42,\
             \"config\":\"{cfg}\"}}",
            SPMV_SRC
        ));
    }
    body.push_str("]}");

    let (status, v) = submit(&mut client, &body);
    assert_eq!(status, 202, "{}", v.render());
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    let result = fetch_result(&mut client, id);
    let points = result.get("points").and_then(Json::as_arr).unwrap();
    assert_eq!(points.len(), 2);

    // Oracle: the same specs run directly in-process.
    let spec = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap();
    for (point, ps) in points.iter().zip(&spec.points) {
        let (cycles, outs) = point_words(point);
        let mut runner = PointRunner::new(ps, false).expect("spec prepares");
        let outcome = runner.run(u64::MAX, |_| true).expect("runs to completion");
        assert_eq!(cycles, outcome.stats.cycles, "{}", ps.config);
        let want: Vec<Vec<u64>> = outcome
            .outputs
            .iter()
            .map(|(_, words)| words.iter().map(|&w| u64::from(w)).collect())
            .collect();
        assert_eq!(outs, want, "{}", ps.config);
    }
    server.stop();
}

#[test]
fn bad_source_fails_with_diagnostics() {
    // A source kernel that does not even build (parse error) is rejected
    // at admission with a structured `E000`/`build` pseudo-diagnostic.
    let (server, mut client) = start(1, 4, 50_000);
    let (status, v) = submit(&mut client, r#"{"source":"kernel oops("}"#);
    assert_eq!(status, 422, "{}", v.render());
    let rej = v.get("rejected_points").and_then(Json::as_arr).unwrap();
    let diags = rej[0].get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("E000"));
    assert_eq!(diags[0].get("check").and_then(Json::as_str), Some("build"));

    // A multi-byte character outside a comment is one more lexical error,
    // named whole — the lexer used to slice it in half and panic on the
    // connection thread, which the client saw as a reset — and the
    // connection goes on serving.
    let body = r#"{"source":"kernel k(istream<int> a, ostream<int> o) { int x; while (!eos(a)) { a >> x; € o << x; } }"}"#;
    let (status, v) = submit(&mut client, body);
    assert_eq!(status, 422, "{}", v.render());
    let rej = v.get("rejected_points").and_then(Json::as_arr).unwrap();
    let diags = rej[0].get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("E000"));
    assert_eq!(
        diags[0].get("message").and_then(Json::as_str),
        Some("line 1: unexpected character `€`")
    );
    assert_eq!(client.get("/metrics").unwrap().status, 200);

    // So is an expression nested past the front end's limit: 30 000
    // parentheses fit the 64 KiB a source may take and used to overflow
    // the connection thread's stack, which killed the whole process.
    let (open, close) = ("(".repeat(30_000), ")".repeat(30_000));
    let body = format!(
        r#"{{"source":"kernel k(istream<int> a, ostream<int> o) {{ int x; while (!eos(a)) {{ a >> x; o << {open}x{close}; }} }}"}}"#
    );
    let (status, v) = submit(&mut client, &body);
    assert_eq!(status, 422, "{}", v.render());
    let rej = v.get("rejected_points").and_then(Json::as_arr).unwrap();
    let diags = rej[0].get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(
        diags[0].get("message").and_then(Json::as_str),
        Some("line 1: expression nests deeper than 256 levels")
    );
    assert_eq!(client.get("/metrics").unwrap().status, 200);
    server.stop();
}

/// Pull one counter's value out of the rendered /metrics text.
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        if it.next() == Some(name) {
            it.next().and_then(|v| v.parse().ok())
        } else {
            None
        }
    })
}

#[test]
fn statically_invalid_job_is_rejected_before_queueing() {
    // The pre-admission gate: a kernel whose constant indexed access
    // overruns the bound table is rejected with the verifier's structured
    // V303 diagnostic before anything touches the queue or job table, the
    // verdict is memoized, and the outcome is visible in /metrics.
    let (server, mut client) = start(1, 4, 50_000);
    let src = "kernel bad(istream<int> in, idxl_istream<int> LUT, ostream<int> out) {\n\
               int a, b;\n while (!eos(in)) { in >> a; LUT[100] >> b; out << b; } }";
    let body = format!(
        r#"{{"source":{},"config":"ISRF4","table_records_per_lane":4}}"#,
        Json::str(src).render()
    );
    let (status, v) = submit(&mut client, &body);
    assert_eq!(status, 422, "{}", v.render());
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some("static verification failed")
    );
    assert!(v.get("id").is_none(), "rejected job must not get an id");
    let rej = v.get("rejected_points").and_then(Json::as_arr).unwrap();
    assert_eq!(rej.len(), 1);
    assert_eq!(rej[0].get("point").and_then(Json::as_u64), Some(0));
    let diags = rej[0].get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("V303"));
    assert_eq!(diags[0].get("kernel").and_then(Json::as_str), Some("bad"));
    assert!(diags[0].get("line").and_then(Json::as_u64).is_some());

    // Resubmitting hits the verdict memo, not the analyzer.
    let (status2, _) = submit(&mut client, &body);
    assert_eq!(status2, 422);

    let resp = client.get("/metrics").unwrap();
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(metric(&text, "serve_jobs_rejected_static"), Some(2));
    assert_eq!(metric(&text, "serve_verify_cache_misses"), Some(1));
    assert_eq!(metric(&text, "serve_verify_cache_hits"), Some(1));
    // Nothing was admitted: the queue stayed empty (zero-valued counters
    // are dropped from the rendering) and the job table never got an id.
    assert_eq!(metric(&text, "serve_queue_depth"), None);
    let resp = client.get("/jobs/1").unwrap();
    assert_eq!(
        resp.status, 404,
        "rejected job must not enter the job table"
    );
    server.stop();
}

#[test]
fn error_statuses_are_precise() {
    let (server, mut client) = start(1, 4, 50_000);
    // Malformed JSON body.
    let resp = client.post("/jobs", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    // Valid JSON, invalid spec.
    let resp = client.post("/jobs", r#"{"app":"nope"}"#).unwrap();
    assert_eq!(resp.status, 400);
    // "tape" is the only engine there is.
    let resp = client
        .post("/jobs", r#"{"app":"sort","engine":"interp"}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    // Unknown job.
    let resp = client.get("/jobs/999999").unwrap();
    assert_eq!(resp.status, 404);
    // Non-integer job id.
    let resp = client.get("/jobs/abc").unwrap();
    assert_eq!(resp.status, 400);
    // Unknown route.
    let resp = client.get("/nope").unwrap();
    assert_eq!(resp.status, 404);
    // Result before completion (job still queued/running).
    let (status, v) = submit(
        &mut client,
        r#"{"app":"sort","profile":"paper","nonce":"slow"}"#,
    );
    assert_eq!(status, 202);
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    let resp = client.get(&format!("/jobs/{id}/result")).unwrap();
    assert_eq!(resp.status, 409);
    // Trace on an untraced job.
    let resp = client.get(&format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(resp.status, 404);
    client.delete(&format!("/jobs/{id}")).unwrap();
    server.stop();
}

#[test]
fn metrics_report_queue_cache_and_workers() {
    let (server, mut client) = start(2, 8, 50_000);
    let body = r#"{"app":"filter","nonce":"metrics"}"#;
    let (_, v) = submit(&mut client, body);
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    fetch_result(&mut client, id);
    submit(&mut client, body); // cache hit

    // A worker books an item before its job shows as done.
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    for key in [
        "serve_jobs_submitted",
        "serve_jobs_done",
        "serve_result_cache_hits",
        "serve_queue_cap",
        "tape_cache_",
        "sched_cache_",
        // Which worker ran the job is scheduling-dependent; zero counters
        // are dropped from the rendering, so just require some worker line.
        "worker_",
        "serve_job_latency_ms",
    ] {
        assert!(text.contains(key), "metrics missing {key}:\n{text}");
    }
    server.stop();
}

#[test]
fn memos_and_finished_jobs_stay_bounded_under_endless_submissions() {
    use isrf_serve::server::{FINISHED_BUDGET, RESULT_BUDGET, VERDICT_BUDGET};

    let (server, mut client) = start(2, 8, 50_000);
    // Cheap to simulate, bulky to keep: two output streams of 8192 words
    // render to about 180 KB for about a thousand simulated cycles.
    let spec = |nonce: Option<u64>| {
        let nonce = nonce.map_or(String::new(), |n| format!(r#","nonce":"fill-{n}""#));
        format!(
            r#"{{"source":"kernel two(istream<int> in, ostream<int> a, ostream<int> b) {{ int x, y; while (!eos(in)) {{ in >> x; y = x * 3; a << x; b << y; }} }}","records_per_lane":1024{nonce}}}"#
        )
    };
    let (status, v) = submit(&mut client, &spec(None));
    assert_eq!(status, 202, "{}", v.render());
    let first = v.get("id").and_then(Json::as_u64).unwrap();
    fetch_result(&mut client, first);
    let resp = client.get(&format!("/jobs/{first}/result")).unwrap();
    let job_bytes = resp.body.len() as u64;

    // More nonce'd copies than the finished jobs can retain: each costs what
    // the first did, and two generations' worth retire every older job.
    let fillers = FINISHED_BUDGET / job_bytes + 2;
    assert!(
        fillers * job_bytes > 2 * RESULT_BUDGET,
        "the result memo sweeps too"
    );
    let mut repeats = 0;
    for n in 0..fillers {
        let (status, v) = submit(&mut client, &spec(Some(n)));
        assert_eq!(status, 202, "{}", v.render());
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        let st = client.wait_job(id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.get("status").and_then(Json::as_str), Some("done"));
        if n % 50 == 49 {
            // Hit since the last sweep, so it survives the next: the first
            // spec stays memoized while hundreds of results come and go.
            let (status, v) = submit(&mut client, &spec(None));
            assert_eq!(status, 200, "{}", v.render());
            assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
            repeats += 1;
        }
    }
    assert!(repeats >= 4);
    // The first job aged out; the latest is still there.
    assert_eq!(client.get(&format!("/jobs/{first}")).unwrap().status, 404);
    let last = first + fillers + repeats;
    assert_eq!(client.get(&format!("/jobs/{last}")).unwrap().status, 200);

    let text = String::from_utf8(client.get("/metrics").unwrap().body).unwrap();
    let m = |name: &str| metric(&text, name).unwrap_or(0);
    for (memo, budget) in [
        ("serve_result_cache", RESULT_BUDGET),
        ("serve_verify_cache", VERDICT_BUDGET),
        ("serve_jobs_finished", FINISHED_BUDGET),
        ("sched_cache", isrf_kernel::sched::SCHEDULE_BUDGET),
        ("tape_cache", isrf_sim::tape::TAPE_BUDGET),
    ] {
        let cost = m(&format!("{memo}_cost"));
        assert!(cost <= budget, "{memo}: {cost} resident of {budget}");
        assert!(
            m(&format!("{memo}_entries")) >= 1,
            "{memo} is empty:\n{text}"
        );
    }
    assert!(m("serve_result_cache_evictions") > 0, "{text}");
    assert!(m("serve_jobs_finished_evictions") > 0, "{text}");
    assert_eq!(m("serve_result_cache_hits"), repeats);
    assert_eq!(
        m("serve_jobs_finished_resident"),
        m("serve_jobs_finished_entries")
    );
    assert_eq!(m("serve_jobs_submitted"), 1 + fillers + repeats);
    assert_eq!(
        m("serve_jobs_submitted"),
        m("serve_jobs_done")
            + m("serve_jobs_failed")
            + m("serve_jobs_cancelled")
            + m("serve_jobs_rejected_429")
            + m("serve_jobs_rejected_static")
            + m("serve_jobs_live"),
        "{text}"
    );
    server.stop();
}

#[test]
fn healthz_and_keepalive() {
    let (server, mut client) = start(1, 4, 50_000);
    // Several requests over one kept-alive connection.
    for _ in 0..3 {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
    }
    server.stop();
}
