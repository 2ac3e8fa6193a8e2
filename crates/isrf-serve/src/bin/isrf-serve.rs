//! The `isrf-serve` binary: start the batch simulation server and run
//! until a `POST /shutdown` drains it.
//!
//! ```text
//! isrf-serve [--addr 127.0.0.1:0] [--workers N] [--queue-cap N]
//!            [--chunk CYCLES] [--snapshot-dir DIR] [--port-file PATH]
//! ```
//!
//! `--port-file` writes the bound address (host:port, one line) once the
//! listener is up — `tests/serve.rs` uses it with `--addr 127.0.0.1:0` to
//! avoid port collisions.

use std::path::PathBuf;
use std::process::ExitCode;

use isrf_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: isrf-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--chunk CYCLES] [--snapshot-dir DIR] [--port-file PATH]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = val(),
            "--workers" => cfg.workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => cfg.queue_cap = val().parse().unwrap_or_else(|_| usage()),
            "--chunk" => cfg.chunk_cycles = val().parse().unwrap_or_else(|_| usage()),
            "--snapshot-dir" => cfg.snapshot_dir = Some(PathBuf::from(val())),
            "--port-file" => port_file = Some(PathBuf::from(val())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("isrf-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    println!("isrf-serve listening on {addr}");
    if let Some(path) = port_file {
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, format!("{addr}\n")).is_err()
            || std::fs::rename(&tmp, &path).is_err()
        {
            eprintln!("isrf-serve: could not write port file");
            return ExitCode::FAILURE;
        }
    }
    server.wait();
    println!("isrf-serve stopped");
    ExitCode::SUCCESS
}
