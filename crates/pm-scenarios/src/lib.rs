//! Declarative scenarios for the leader-election workspace.
//!
//! The paper's evaluation (Table 1) sweeps algorithms across shape families
//! and variant knobs; this crate turns that axis into *data*:
//!
//! * [`generators`] — the shape registry: a serializable [`GeneratorSpec`]
//!   naming every workload family (deterministic and seeded-random), and the
//!   single re-export surface for the underlying builder functions.
//! * [`spec`] — [`ScenarioSpec`]: one election run as a JSON value (shape,
//!   algorithm, scheduler, [`RunOptions`](pm_core::api::RunOptions) knobs,
//!   and the `pm_faults::FaultPlan` fired mid-run by a caller-side
//!   `pm_faults::FaultScript` loop over the steppable
//!   [`Execution`](pm_core::api::Execution) handle).
//! * [`family`] — scenario families: [`FamilySpec`] parameter grids
//!   (sizes × seeds) that expand into concrete scenarios at load time.
//! * [`corpus`] — the committed scenario corpus (`corpus/scenarios.json`,
//!   concrete scenarios plus family grids) and suite selection.
//! * [`runner`] — drives suites through one
//!   [`SessionScheduler`](pm_core::session::SessionScheduler), each scenario
//!   a session under its fault script, and serializes the per-scenario
//!   [`RunReport`](pm_core::api::RunReport)s.
//!
//! The `pm-scenarios` binary (owned by the `pm-server` crate, next to the
//! session server's `serve`/`client` subcommands) exposes all of it on the
//! command line:
//!
//! ```text
//! pm-scenarios list                 # every scenario of the corpus
//! pm-scenarios render smoke-annulus # ASCII-render a scenario's shape
//! pm-scenarios run smoke            # run a suite, emit RunReport JSON
//! ```

pub mod corpus;
pub mod family;
pub mod generators;
pub mod runner;
pub mod spec;

pub use corpus::{builtin_corpus, builtin_entries, load_embedded, load_file, select, suite_tags};
pub use family::{CorpusEntry, FamilySpec};
pub use generators::GeneratorSpec;
pub use runner::{report_json, run_suite, ScenarioReport};
pub use spec::{AlgorithmSpec, ScenarioSpec};
