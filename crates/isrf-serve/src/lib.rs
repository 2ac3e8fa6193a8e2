//! `isrf-serve`: a long-running batch simulation server for the ISRF
//! reproduction.
//!
//! The server accepts simulation jobs — a named benchmark app or an
//! inline KernelC-subset kernel, times a machine configuration and sizing
//! profile — over a hand-rolled HTTP/1.1 + JSON
//! wire protocol (the build environment has no tokio/hyper/serde), and
//! runs them on a work-stealing worker pool:
//!
//! - **Sharded sweeps** — a sweep job's points fan out onto the accepting
//!   worker's deque and siblings steal them, so one big sweep saturates
//!   the pool while small jobs still slip through the global injector.
//! - **Backpressure** — admission is bounded (`queue_cap`); beyond it
//!   `POST /jobs` answers `429` with `Retry-After` instead of buffering
//!   without limit.
//! - **Memoization** — whole-job results are cached by the same stable
//!   128-bit content hash the schedule/tape memos use, so a repeated
//!   submission completes instantly; an optional `nonce` defeats the
//!   cache deliberately.
//! - **Cycle-exact control** — points execute in bounded cycle slices of
//!   [`isrf_sim::Machine::step`] ([`PointRunner::run`]), so `DELETE`
//!   (cancel) and `POST /shutdown` (drain) take effect within one slice;
//!   drain checkpoints in-flight machines with `Machine::save_state` and
//!   the next start resumes them exactly where they stopped. A simulation
//!   that fails — a deadlocked kernel, say — comes back from `step` as a
//!   typed [`isrf_sim::SimError`] whose text is the job's `failed` message.
//!
//! Endpoints: `POST /jobs`, `GET /jobs/:id`, `GET /jobs/:id/result`,
//! `GET /jobs/:id/trace`, `DELETE /jobs/:id`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod http;
pub mod pool;
pub mod server;
pub mod spec;

pub use client::{Client, ClientResponse};
pub use exec::{analyze_point, PointOutcome, PointRunner, Stopped};
pub use http::{Limits, Request, Response};
pub use isrf_trace::json::{Json, JsonError};
pub use pool::{Pool, WorkerHandle, WorkerStats};
pub use server::{Server, ServerConfig};
pub use spec::{AppRef, JobSpec, PointSpec};
