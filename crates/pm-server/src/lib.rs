//! The multi-tenant election session server.
//!
//! Everything below the transport is the workspace's existing machinery —
//! owned steppable executions
//! ([`LeaderElection::start_owned`](pm_core::api::LeaderElection::start_owned)),
//! the cooperative [`SessionScheduler`](pm_core::session::SessionScheduler),
//! declarative [`ScenarioSpec`](pm_scenarios::ScenarioSpec)s and their
//! `pm_faults` fault scripts. This crate adds the wire:
//!
//! * [`protocol`] — the line-delimited JSON [`Request`]/[`Response`] verbs
//!   (`submit`, `status`, `watch`, `run`, `fault`, `pause`, `resume`,
//!   `cancel`, `checkpoint`, `restore`, `sessions`, `stats`, `metrics`,
//!   `shutdown`), documented with examples in `PROTOCOL.md` at the
//!   repository root.
//! * [`server`] — [`ServerCore`]: the transport-agnostic request handler
//!   multiplexing every live session through one fair scheduler, so no
//!   session starves another while a request pumps. The core also owns the
//!   operational envelope: session budgets and idle-TTL eviction
//!   ([`ServerLimits`]), interval autosave with baseline re-anchoring, and
//!   crash recovery from a persist directory.
//! * [`persist`] — durable checkpoint files: atomic temp-file-plus-rename
//!   writes (never torn), a startup scan that reports corrupt files as
//!   typed errors instead of dying on them.
//! * [`transport`] — the stdio and TCP servers (std-only, fully offline).
//!   TCP serves every connection on its own thread over the shared core,
//!   with read timeouts, accept-error backoff, and graceful shutdown.
//! * [`http`] — an optional hand-rolled HTTP/1.1 GET-only sidecar
//!   ([`ServeOptions`]) so `curl` and Prometheus can scrape `/healthz`,
//!   `/metrics`, `/stats` and `/trace` without speaking the line protocol.
//! * [`telemetry`] — the shared [`pm_telemetry`] registry and its
//!   hot-path handles: per-verb latency histograms, sweep and checkpoint
//!   timings, byte and connection counters, and harvested per-phase
//!   election profiles, all scrapeable via the `metrics` verb.
//! * [`client`] — the scripted client behind `pm-scenarios client`:
//!   replays a `.jsonl` request script against server child processes,
//!   restarting them on demand to prove checkpoints survive process death.
//!   Retries requests the server rejects with the retryable `Busy`.
//!
//! The crate also owns the workspace CLI binary (`pm-scenarios`), which
//! gains `serve`, `client` and `load` subcommands next to the corpus
//! tooling.

pub mod client;
pub mod http;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod transport;

pub use client::run_script;
pub use persist::{PersistDir, PersistError};
pub use protocol::{Request, Response, ServerStats, SessionCheckpoint, SessionSummary};
pub use server::{ServerCore, ServerLimits};
pub use telemetry::ServerTelemetry;
pub use transport::{
    serve, serve_stdio, serve_stdio_with, serve_tcp, serve_tcp_with, ServeOptions,
};
