//! Graceful drain: killing a server mid-run checkpoints in-flight jobs
//! to the snapshot directory, and a fresh server on the same directory
//! resumes them cycle-exactly — the resumed result is word-for-word
//! identical to an uninterrupted run. A file that does not parse is set
//! aside, and a checkpoint the machine rejects costs its progress only.

use std::path::{Path, PathBuf};
use std::time::Duration;

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{AppRef, Client, Json, PointRunner, PointSpec, Server, ServerConfig, Stopped};
use isrf_sim::ExecEngine;

fn snapshot_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("drain-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 8,
        // Small slices so the drain lands mid-run on a long job.
        chunk_cycles: 2_000,
        snapshot_dir: Some(dir.to_path_buf()),
        limits: Default::default(),
    }
}

#[test]
fn drain_mid_run_then_resume_matches_uninterrupted_run() {
    let dir = snapshot_dir("long");
    // A long fig12-style point: sort on the Paper profile.
    let body = r#"{"app":"sort","config":"ISRF4","profile":"paper","nonce":"drain"}"#;

    // --- First server: submit, wait until mid-run, drain. ---
    let server = Server::start(config(&dir)).unwrap();
    let mut client = Client::new(server.addr());
    let resp = client.post("/jobs", body).unwrap();
    assert_eq!(resp.status, 202);
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    // Poll until the job has visibly made progress (some cycles burned).
    // Sanctioned wall-clock reads: a test-harness polling deadline, not
    // anything a result depends on.
    #[allow(clippy::disallowed_methods)]
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let st = client.get(&format!("/jobs/{id}")).unwrap().json().unwrap();
        let status = st.get("status").and_then(Json::as_str).unwrap();
        let cycles = st.get("cycles").and_then(Json::as_u64).unwrap();
        assert_ne!(
            status, "done",
            "job finished before the drain; raise the workload"
        );
        assert_ne!(status, "failed", "{}", st.render());
        if status == "running" && cycles > 10_000 {
            break;
        }
        #[allow(clippy::disallowed_methods)]
        let now = std::time::Instant::now();
        assert!(now < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(2));
    }

    let resp = client.post("/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json().unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("stopped"));
    assert_eq!(v.get("persisted").and_then(Json::as_u64), Some(1));
    server.wait();
    assert!(
        dir.join(format!("job-{id}.json")).exists(),
        "checkpoint file missing"
    );

    // --- Second server on the same directory: the job resumes. ---
    let server = Server::start(config(&dir)).unwrap();
    let mut client = Client::new(server.addr());
    let st = client.wait_job(id, Duration::from_secs(120)).unwrap();
    assert_eq!(
        st.get("status").and_then(Json::as_str),
        Some("done"),
        "{}",
        st.render()
    );
    // The checkpoint file was consumed on restore.
    assert!(!dir.join(format!("job-{id}.json")).exists());

    let resp = client.get(&format!("/jobs/{id}/result")).unwrap();
    assert_eq!(resp.status, 200);
    let result = resp.json().unwrap();
    let point = &result.get("points").and_then(Json::as_arr).unwrap()[0];

    // Oracle: the same point run uninterrupted in-process.
    let mut pr = prepare_app("sort", ConfigName::Isrf4, Profile::Paper);
    let stats = pr.machine.run(&pr.program);
    assert_eq!(
        point.get("cycles").and_then(Json::as_u64),
        Some(stats.cycles),
        "resumed run must be cycle-exact"
    );
    let outs = point.get("outputs").and_then(Json::as_arr).unwrap();
    for (o, &(base, words)) in outs.iter().zip(&pr.outputs) {
        let want: Vec<u64> = pr
            .machine
            .mem()
            .memory()
            .read_block(base, words as usize)
            .into_iter()
            .map(u64::from)
            .collect();
        let got: Vec<u64> = o
            .get("words")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.as_u64().unwrap())
            .collect();
        assert_eq!(got, want, "resumed outputs diverge");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_files_do_not_stop_the_server_starting() {
    let dir = snapshot_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    // An even number of bytes, with the two-byte 'é' off the hex grid.
    std::fs::write(
        dir.join("job-7.json"),
        r#"{"id":7,"spec":{"app":"sort","config":"ISRF4"},"points":["aé1"]}"#,
    )
    .unwrap();
    // Cut off mid-write.
    std::fs::write(dir.join("job-8.json"), r#"{"id":8,"spec":{"app":"so"#).unwrap();

    // The first start sets both aside; the second finds nothing to read.
    for skipped in [Some(2), None] {
        let server = Server::start(config(&dir)).unwrap();
        let mut client = Client::new(server.addr());
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.get("/jobs/7").unwrap().status, 404);
        assert_eq!(client.get("/jobs/8").unwrap().status, 404);
        assert_eq!(metric(&mut client, "serve_restore_skipped"), skipped);
        server.stop();
        for id in [7, 8] {
            assert!(!dir.join(format!("job-{id}.json")).exists());
            assert!(dir.join(format!("job-{id}.json.bad")).exists());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One counter of `GET /metrics` (zero counters are not rendered).
fn metric(client: &mut Client, name: &str) -> Option<u64> {
    let text = String::from_utf8(client.get("/metrics").unwrap().body).unwrap();
    text.lines().find_map(|l| {
        let (key, value) = l.split_once(' ')?;
        (key == name).then(|| value.trim().parse().unwrap())
    })
}

#[test]
fn a_rejected_checkpoint_restarts_its_point_from_scratch() {
    let dir = snapshot_dir("rejected");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = PointSpec {
        app: AppRef::Named("sort".into()),
        config: ConfigName::Isrf4,
        profile: Profile::Small,
        engine: ExecEngine::Tape,
    };
    let mut whole = PointRunner::new(&spec, false).unwrap();
    let want = whole.run(1 << 20, |_| true).unwrap();

    // A real checkpoint, three slices in.
    let mut paused = PointRunner::new(&spec, false).unwrap();
    let mut slices = 0;
    let ran = paused.run(want.stats.cycles / 8, |_| {
        slices += 1;
        slices <= 3
    });
    assert_eq!(
        ran.unwrap_err(),
        Stopped::Paused,
        "the run must pause mid-way"
    );
    let good = paused.checkpoint();
    // Header: the magic (8 bytes), then the version.
    assert_eq!(&good[..8], b"ISRFSNAP");
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x40;
    let mut skewed = good.clone();
    skewed[8] += 1;
    let truncated = good[..good.len() / 2].to_vec();

    let snaps = [good, flipped, skewed, truncated];
    for (id, snap) in snaps.iter().enumerate() {
        let hex: String = snap.iter().map(|b| format!("{b:02x}")).collect();
        std::fs::write(
            dir.join(format!("job-{id}.json")),
            format!(r#"{{"id":{id},"spec":{{"app":"sort","config":"ISRF4"}},"points":["{hex}"]}}"#),
        )
        .unwrap();
    }
    let server = Server::start(config(&dir)).unwrap();
    let mut client = Client::new(server.addr());
    for id in 0..snaps.len() as u64 {
        let st = client.wait_job(id, Duration::from_secs(120)).unwrap();
        assert_eq!(
            st.get("status").and_then(Json::as_str),
            Some("done"),
            "{}",
            st.render()
        );
        let resp = client.get(&format!("/jobs/{id}/result")).unwrap();
        let body = String::from_utf8(resp.body).unwrap();
        assert!(
            body.contains(&want.to_json().render()),
            "job {id}: resumed or restarted, the payload is that of a whole run"
        );
    }
    // The good checkpoint resumed; the other three ran from scratch.
    assert_eq!(metric(&mut client, "serve_restore_restarted"), Some(3));
    assert_eq!(metric(&mut client, "serve_restore_skipped"), None);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_jobs_survive_a_drain_too() {
    let dir = snapshot_dir("queued");
    // One worker, two long jobs: at drain time one is running (gets a
    // checkpoint) and one is still queued (persisted without one, re-run
    // from scratch on restart).
    let mut cfg = config(&dir);
    cfg.workers = 1;
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::new(server.addr());
    let mut ids = Vec::new();
    for i in 0..2 {
        let body =
            format!(r#"{{"app":"sort","config":"ISRF4","profile":"paper","nonce":"q-{i}"}}"#);
        let resp = client.post("/jobs", &body).unwrap();
        assert_eq!(resp.status, 202);
        ids.push(
            resp.json()
                .unwrap()
                .get("id")
                .and_then(Json::as_u64)
                .unwrap(),
        );
    }
    let resp = client.post("/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.json().unwrap().get("persisted").and_then(Json::as_u64),
        Some(2)
    );
    server.wait();

    let server = Server::start(cfg).unwrap();
    let mut client = Client::new(server.addr());
    let want_cycles = {
        let mut pr = prepare_app("sort", ConfigName::Isrf4, Profile::Paper);
        pr.machine.run(&pr.program).cycles
    };
    for id in ids {
        let st = client.wait_job(id, Duration::from_secs(240)).unwrap();
        assert_eq!(
            st.get("status").and_then(Json::as_str),
            Some("done"),
            "{}",
            st.render()
        );
        assert_eq!(st.get("cycles").and_then(Json::as_u64), Some(want_cycles));
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
