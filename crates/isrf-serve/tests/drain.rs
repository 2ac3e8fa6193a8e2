//! Graceful drain: killing a server mid-run checkpoints in-flight jobs
//! to the snapshot directory, and a fresh server on the same directory
//! resumes them cycle-exactly — the resumed result is word-for-word
//! identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::time::Duration;

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{Client, Json, Server, ServerConfig};

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

    let server = Server::start(config(&dir)).unwrap();
    let mut client = Client::new(server.addr());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/jobs/7").unwrap().status, 404);
    assert_eq!(client.get("/jobs/8").unwrap().status, 404);
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
