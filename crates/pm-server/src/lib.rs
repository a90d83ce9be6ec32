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
//!   ([`ServerLimits`]), interval autosave of replay checkpoints, and
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
//! * [`client`] — the reference protocol client. [`Client`] sends each
//!   request line in one write (`TCP_NODELAY` on TCP) and resends the
//!   retryable `Busy` under one backoff policy; [`ServerProcess`] spawns a
//!   `serve` child, learns its announced addresses and reaps it. On them
//!   sit the `load` generator, the server test suites, and [`run_script`],
//!   the scripted client behind `pm-scenarios client`: it replays a
//!   `.jsonl` request script against server child processes, restarting
//!   them on demand to prove checkpoints survive process death.
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

pub use client::{run_script, Client, ServerProcess};
pub use persist::{PersistDir, PersistError};
pub use protocol::{Request, Response, ServerStats, SessionCheckpoint, SessionSummary};
pub use server::{ServerCore, ServerLimits};
pub use telemetry::ServerTelemetry;
pub use transport::{
    serve, serve_stdio, serve_stdio_with, serve_tcp, serve_tcp_with, ServeOptions, MAX_LINE_BYTES,
    WRITE_TIMEOUT,
};

/// Test doubles shared by the unit tests.
#[cfg(test)]
mod testing {
    use std::io::{self, Write};

    /// A writer that records every `write` call as its own buffer.
    #[derive(Default)]
    pub(crate) struct Writes(pub(crate) Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
