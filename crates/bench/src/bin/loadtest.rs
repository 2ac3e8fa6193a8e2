//! `loadtest`: drive the real `isrf-serve` binary over TCP and verify what
//! it serves word-for-word against a direct in-process run.
//!
//! ```text
//! loadtest smoke --bin PATH/TO/isrf-serve
//! ```
//!
//! `smoke` is the CI stage: it spawns the given `isrf-serve` binary as a
//! child process with a tiny queue, checks the one-shot-vs-served diff,
//! elicits a 429, exercises cancel and the memoized path, and shuts the
//! child down via `POST /shutdown`. Throughput and latency of the server
//! are measured by `benchmark/`'s `serve_mix` workload, not here.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{Client, Json};

/// Cycles and outputs of a direct one-shot run, as `u64` words per output
/// region.
fn oracle(app: &str, cfg: ConfigName) -> (u64, Vec<Vec<u64>>) {
    let mut pr = prepare_app(app, cfg, Profile::Small);
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

fn result_words(result: &Json) -> Option<(u64, Vec<Vec<u64>>)> {
    let point = result.get("points")?.as_arr()?.first()?;
    let cycles = point.get("cycles")?.as_u64()?;
    let outs = point
        .get("outputs")?
        .as_arr()?
        .iter()
        .map(|o| {
            o.get("words")
                .and_then(Json::as_arr)
                .map(|ws| ws.iter().filter_map(Json::as_u64).collect())
        })
        .collect::<Option<Vec<Vec<u64>>>>()?;
    Some((cycles, outs))
}

fn submit_and_wait(client: &mut Client, body: &str, timeout: Duration) -> Result<Json, String> {
    let resp = client.post("/jobs", body).map_err(|e| format!("{e}"))?;
    if resp.status != 200 && resp.status != 202 {
        return Err(format!(
            "submit rejected with {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let id = resp
        .json()?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("no id in submit response")?;
    let st = client.wait_job(id, timeout).map_err(|e| format!("{e}"))?;
    if st.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("job {id} ended as {}", st.render()));
    }
    let resp = client
        .get(&format!("/jobs/{id}/result"))
        .map_err(|e| format!("{e}"))?;
    if resp.status != 200 {
        return Err(format!("result fetch failed with {}", resp.status));
    }
    resp.json()
}

/// Kills and reaps the spawned server on every exit path, so a failed
/// smoke run never leaves a zombie behind.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn smoke_mode(bin: &str) -> ExitCode {
    let tmp = std::env::temp_dir().join(format!("isrf-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create smoke dir");
    let port_file = tmp.join("port");

    // Tiny queue so backpressure is easy to elicit.
    let mut child = std::process::Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-cap",
            "2",
            "--chunk",
            "5000",
            "--port-file",
        ])
        .arg(&port_file)
        .spawn()
        .map(ChildGuard)
        .expect("spawn isrf-serve");

    // Wait for the listener.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(a) = text.trim().parse() {
                break a;
            }
        }
        if Instant::now() > deadline {
            eprintln!("smoke: server never wrote its port file");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut client = Client::new(addr);

    // 1. Served results match the one-shot path word-for-word.
    for (app, cfg) in [("sort", ConfigName::Isrf4), ("filter", ConfigName::Base)] {
        let body = format!(r#"{{"app":"{app}","config":"{cfg}"}}"#);
        let result = match submit_and_wait(&mut client, &body, Duration::from_secs(120)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("smoke: {app}/{cfg} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if result_words(&result).as_ref() != Some(&oracle(app, cfg)) {
            eprintln!("smoke: {app}/{cfg} diverged from the one-shot run");
            return ExitCode::FAILURE;
        }
        println!("smoke: {app}/{cfg} matches the one-shot run");
    }

    // 2. Identical resubmission is served from the cache.
    let resp = client
        .post("/jobs", r#"{"app":"sort","config":"ISRF4"}"#)
        .expect("resubmit");
    let cached = resp
        .json()
        .ok()
        .and_then(|v| v.get("cached").and_then(Json::as_bool));
    if resp.status != 200 || cached != Some(true) {
        eprintln!("smoke: resubmission was not served from cache");
        return ExitCode::FAILURE;
    }
    println!("smoke: memoized resubmission served from cache");

    // 3. Flood Paper-profile jobs to trip the queue bound.
    let mut flooded = Vec::new();
    let mut saw_429 = false;
    for i in 0..8 {
        let body = format!(r#"{{"app":"sort","profile":"paper","nonce":"flood-{i}"}}"#);
        let resp = client.post("/jobs", &body).expect("flood submit");
        match resp.status {
            202 => flooded.push(
                resp.json()
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_u64)
                    .unwrap(),
            ),
            429 => {
                if resp.header("retry-after").is_none() {
                    eprintln!("smoke: 429 without Retry-After");
                    return ExitCode::FAILURE;
                }
                saw_429 = true;
            }
            other => {
                eprintln!("smoke: flood submit got {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !saw_429 {
        eprintln!("smoke: queue bound never produced a 429");
        return ExitCode::FAILURE;
    }
    println!("smoke: queue bound produced 429 + Retry-After");

    // 4. Cancel the flood (exercises DELETE mid-run).
    for id in &flooded {
        let resp = client.delete(&format!("/jobs/{id}")).expect("cancel");
        if resp.status != 200 {
            eprintln!("smoke: cancel of job {id} got {}", resp.status);
            return ExitCode::FAILURE;
        }
    }
    println!("smoke: cancelled {} flooded jobs", flooded.len());

    // 5. Clean shutdown via the API; the child must exit 0.
    let resp = client.post("/shutdown", "").expect("shutdown");
    if resp.status != 200 {
        eprintln!("smoke: shutdown got {}", resp.status);
        return ExitCode::FAILURE;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.0.try_wait().expect("wait on child") {
            Some(status) if status.success() => break,
            Some(status) => {
                eprintln!("smoke: server exited with {status}");
                return ExitCode::FAILURE;
            }
            None if Instant::now() > deadline => {
                eprintln!("smoke: server did not exit after shutdown");
                return ExitCode::FAILURE;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("smoke: server drained and exited cleanly");
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("loadtest: {msg}");
    eprintln!("usage: loadtest smoke --bin PATH");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["smoke", "--bin", bin] => smoke_mode(bin),
        _ => usage("expected `smoke --bin PATH`"),
    }
}
