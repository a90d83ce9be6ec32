//! End-to-end and per-layer benchmark of the election library and the
//! session server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload blob --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every election input comes from [`Inputs`]: numbered streams of
//! scenarios drawn from `--seed`. A run sets up [`SETUPS`] times and
//! reports the median set-up time. A set-up elects a warm-up input
//! in-process, starts an in-process TCP session server, connects the
//! clients and serves the warm-up input once, so lazy initialisation on
//! either path lands in set-up. The measured `--seconds` then alternate
//! between in-process elections through the library ([`library`]) and
//! closed-loop client sessions through the server ([`service`]). The
//! library phase also times a fixed reference work, which tracks how fast
//! the shared host runs at the moment, and scales its CPU times by it.
//! Every report must satisfy the election predicate. After the measured
//! time, every served input is elected again in-process, and the served
//! report must equal that one. The last line of stdout is the JSON result:
//! end-to-end metrics with `--trace 0`, per-layer metrics (phase profiling
//! on, the server's telemetry scraped) with `--trace 1`.

mod library;
mod service;
mod stats;

use pm_scenarios::{GeneratorSpec, ScenarioSpec};
use stats::{median, Metric, Outcome, SplitMix};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One workload: the shapes both paths elect on, and the service traffic.
/// `BENCHMARK.json` records why each exists, and `README.md` where its
/// sizes and client count come from.
struct Workload {
    name: &'static str,
    /// One scenario's shape, from a seeded draw. A generator that ignores
    /// the draw repeats one input; the others never repeat one.
    generator: fn(u64) -> GeneratorSpec,
    /// Concurrent closed-loop protocol clients.
    clients: usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "blob",
        generator: |seed| GeneratorSpec::SimplyConnectedBlob { n: 2000, seed },
        clients: 1,
    },
    Workload {
        name: "holey",
        generator: |seed| GeneratorSpec::HoleyHexagon {
            radius: 25,
            hole_pct: 12,
            seed,
        },
        clients: 4,
    },
    Workload {
        name: "tiny",
        generator: |_| GeneratorSpec::Hexagon { radius: 2 },
        clients: 32,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// The measured time alternates between the library and the service phase
/// this many times, half to each, so that a slow stretch of a shared host
/// lands on both, and each library round's reference time follows the
/// host's speed as it changes.
const ROUNDS: u32 = 10;

const USAGE: &str =
    "usage: perfbench --workload <blob|holey|tiny> --seed <n> --seconds <s> --trace <0|1>";

/// The run's election inputs: numbered streams of scenarios drawn from the
/// run seed. Set-up, the library phase and each client draw from a stream
/// of their own, so what one elects does not depend on how far the others
/// got.
#[derive(Clone, Copy)]
pub struct Inputs {
    generator: fn(u64) -> GeneratorSpec,
    seed: u64,
}

impl Inputs {
    /// The stream set-up draws its warm-up inputs from.
    pub const WARM_UP: u64 = 0;
    /// The stream the library phase draws from.
    pub const LIBRARY: u64 = 1;

    /// The stream protocol client `c` draws from.
    pub fn client(c: usize) -> u64 {
        2 + c as u64
    }

    /// Input `index` of `stream`: the workload's shape at a draw of its
    /// own, named after the shape, with the default algorithm (the paper
    /// pipeline), scheduler and options. Equal shapes make equal inputs.
    pub fn scenario(&self, stream: u64, index: u64) -> ScenarioSpec {
        let generator = (self.generator)(SplitMix(self.seed ^ (stream << 48) ^ index).next());
        ScenarioSpec::new(generator.to_string(), generator)
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(found.ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let positive = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite());
                seconds =
                    Some(positive.ok_or(format!("--seconds {value}: not a positive number"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = Inputs {
        generator: workload.generator,
        seed: args.seed,
    };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        if let Some(server) = ready.take() {
            service::Server::stop(server)?;
        }
        let began = Instant::now();
        let warm_up = inputs.scenario(Inputs::WARM_UP, i);
        let expected = library::elect(&warm_up, false)?.report;
        let mut server = service::Server::start(workload.clients)?;
        server.warm_up(&warm_up, &expected)?;
        setup_s.push(began.elapsed().as_secs_f64());
        ready = Some(server);
    }
    let mut server = ready.expect("SETUPS is positive");

    let half = Duration::from_secs_f64(args.seconds / f64::from(2 * ROUNDS));
    let mut library = library::LibraryRun::default();
    let mut service = service::ServiceRun::default();
    for _ in 0..ROUNDS {
        library.measure(&inputs, half, args.trace);
        server.measure(&mut service, &inputs, half);
    }
    let server_side = if args.trace {
        Some(server.scrape()?)
    } else {
        None
    };
    server.stop()?;
    service.check();
    eprintln!(
        "perfbench: {} elections, {} sessions, {SETUPS} set-ups; reference work {:.3} ms",
        library.attempted,
        service.attempted,
        library.reference_ms()
    );

    let metrics = match server_side {
        None => {
            let mut metrics = vec![library.end_to_end()];
            metrics.extend(service.end_to_end());
            metrics.push(Metric::new("setup_s", "s", median(&setup_s)));
            metrics
        }
        Some(server_side) => {
            let mut metrics = library.layer_metrics();
            metrics.extend(service.layer_metrics(&server_side));
            metrics
        }
    };
    Ok(Outcome {
        attempted: library.attempted + service.attempted,
        failed: library.failed + service.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
