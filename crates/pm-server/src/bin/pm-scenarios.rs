//! The workspace CLI: corpus tooling plus the session server.
//!
//! ```text
//! pm-scenarios list   [--corpus FILE]
//! pm-scenarios suites [--corpus FILE]
//! pm-scenarios render <name>  [--corpus FILE]
//! pm-scenarios run <suite>    [--corpus FILE] [--threads N] [--out FILE]
//! pm-scenarios trace <name>   [--corpus FILE] [--json]
//! pm-scenarios profile <name> [--corpus FILE] [--out FILE] [--folded FILE]
//! pm-scenarios serve  [--stdio | --tcp ADDR] [--http ADDR] [--slice N]
//!                     [--threads N] [--persist-dir DIR] [--autosave-ms N]
//!                     [--ttl-ms N] [--max-sessions N]
//! pm-scenarios client --script FILE [--threads N] [--persist-dir DIR] ...
//! pm-scenarios load   [--sessions N] [--clients N] [--max-sessions N]
//! pm-scenarios regen
//! ```
//!
//! `run` prints a human-readable summary to stderr and the `RunReport` JSON
//! array to stdout (or `--out FILE`). `trace` steps one scenario through
//! the resumable `Execution` handle, printing a status line per round (and
//! per fault firing); with `--json` it emits one `ExecutionStatus`
//! JSON line per completed round — the exact shape the server's `watch`
//! verb streams — followed by the final `RunReport` JSON line. `serve`
//! speaks the line-delimited JSON protocol of `PROTOCOL.md` over
//! stdin/stdout (default) or TCP; `client` replays a `.jsonl` request
//! script against freshly spawned `serve --stdio` children (restarting them
//! at `!restart` directives) and prints the response transcript. `load`
//! spawns its own TCP server and floods it from concurrent client threads,
//! then reports sessions/s and the `Busy` resends it took — see
//! `crates/pm-server/scripts/load_test.sh`. Both drive the server through
//! `pm_server::Client` and `pm_server::ServerProcess`. `regen` rewrites the
//! committed corpus and the smoke golden file from the built-in corpus (a
//! dev tool; a test pins the committed files to the code).
//!
//! `serve` durability knobs: `--persist-dir DIR` autosaves every session
//! checkpoint into DIR and recovers them on startup; `--autosave-ms N`
//! sets the housekeeping cadence; `--ttl-ms N` evicts sessions no request
//! has touched for N milliseconds; `--max-sessions N` rejects `submit` and
//! `restore` with the retryable `Busy` response once N sessions are live.
//!
//! Observability: every subcommand accepts `--log-level
//! error|warn|info|debug` (default `info`) and `--log-json` (JSON-lines
//! log records on stderr instead of human text). `profile` runs one
//! scenario under the span recorder and the phase profiler and writes
//! a Chrome trace-event file (`--out`, default `<name>.trace.json`; load
//! in Perfetto or `chrome://tracing`) plus optional folded-stack lines for
//! flamegraph tooling (`--folded FILE`), and prints per-phase and
//! per-round summary tables. A running server exposes the full metric
//! registry via the protocol's `metrics` verb — JSON and Prometheus text
//! exposition from one snapshot; with `serve --http ADDR` the same
//! snapshot (plus `/healthz`, `/stats`, and the live trace as `/trace`) is
//! scrapeable over plain HTTP; see PROTOCOL.md.

use pm_amoebot::ascii::render_shape;
use pm_core::api::StepOutcome;
use pm_faults::FaultScript;
use pm_scenarios::corpus::{self, FAULTS, SMOKE};
use pm_scenarios::{report_json, run_suite, select, suite_tags, GeneratorSpec, ScenarioSpec};
use pm_server::{Client, Request, Response, ServeOptions, ServerCore, ServerLimits, ServerProcess};
use pm_telemetry::{info, logging, trace, Level};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::time::Duration;

struct Args {
    command: String,
    operand: Option<String>,
    corpus: Option<PathBuf>,
    out: Option<PathBuf>,
    script: Option<PathBuf>,
    folded: Option<PathBuf>,
    tcp: Option<String>,
    http: Option<String>,
    threads: usize,
    slice: u64,
    json: bool,
    log_level: Level,
    log_json: bool,
    persist_dir: Option<PathBuf>,
    autosave_ms: u64,
    ttl_ms: Option<u64>,
    max_sessions: Option<usize>,
    sessions: usize,
    clients: usize,
}

const USAGE: &str =
    "usage: pm-scenarios <list|suites|render <name>|run <suite>|trace <name>|profile <name>\
|serve|client|load|regen> \
                     [--corpus FILE] [--threads N] [--out FILE] [--json] \
                     [--folded FILE] [--stdio] [--tcp ADDR] [--http ADDR] [--slice N] \
                     [--script FILE] \
                     [--persist-dir DIR] [--autosave-ms N] [--ttl-ms N] [--max-sessions N] \
                     [--sessions N] [--clients N] \
                     [--log-level error|warn|info|debug] [--log-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut parsed = Args {
        command,
        operand: None,
        corpus: None,
        out: None,
        script: None,
        folded: None,
        tcp: None,
        http: None,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        slice: 64,
        json: false,
        log_level: Level::Info,
        log_json: false,
        persist_dir: None,
        autosave_ms: 500,
        ttl_ms: None,
        max_sessions: None,
        sessions: 1000,
        clients: 32,
    };
    fn number<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String> {
        value
            .ok_or(format!("{flag} needs a number"))?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => {
                parsed.corpus = Some(PathBuf::from(
                    args.next().ok_or("--corpus needs a file argument")?,
                ))
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(
                    args.next().ok_or("--out needs a file argument")?,
                ))
            }
            "--script" => {
                parsed.script = Some(PathBuf::from(
                    args.next().ok_or("--script needs a file argument")?,
                ))
            }
            "--folded" => {
                parsed.folded = Some(PathBuf::from(
                    args.next().ok_or("--folded needs a file argument")?,
                ))
            }
            "--tcp" => parsed.tcp = Some(args.next().ok_or("--tcp needs an address")?),
            "--http" => parsed.http = Some(args.next().ok_or("--http needs an address")?),
            // The default transport; accepted so invocations can be
            // explicit about it.
            "--stdio" => parsed.tcp = None,
            "--threads" => parsed.threads = number(args.next(), "--threads")?,
            "--slice" => parsed.slice = number(args.next(), "--slice")?,
            "--persist-dir" => {
                parsed.persist_dir = Some(PathBuf::from(
                    args.next().ok_or("--persist-dir needs a directory")?,
                ))
            }
            "--autosave-ms" => parsed.autosave_ms = number(args.next(), "--autosave-ms")?,
            "--ttl-ms" => parsed.ttl_ms = Some(number(args.next(), "--ttl-ms")?),
            "--max-sessions" => parsed.max_sessions = Some(number(args.next(), "--max-sessions")?),
            "--sessions" => parsed.sessions = number(args.next(), "--sessions")?,
            "--clients" => parsed.clients = number(args.next(), "--clients")?,
            "--json" => parsed.json = true,
            "--log-level" => {
                let level = args.next().ok_or("--log-level needs a level")?;
                parsed.log_level =
                    Level::parse(&level).ok_or(format!("--log-level: unknown level `{level}`"))?;
            }
            "--log-json" => parsed.log_json = true,
            other if parsed.operand.is_none() && !other.starts_with("--") => {
                parsed.operand = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn load_corpus(args: &Args) -> Result<Vec<ScenarioSpec>, String> {
    match &args.corpus {
        Some(path) => corpus::load_file(path),
        None => corpus::load_embedded(),
    }
}

fn cmd_list(specs: &[ScenarioSpec]) {
    println!(
        "{:<32} {:<28} {:>6} {:<20} {:<18} {:>7}",
        "name", "generator", "n", "algorithm", "scheduler", "faults"
    );
    for spec in specs {
        println!(
            "{:<32} {:<28} {:>6} {:<20} {:<18} {:>7}",
            spec.name,
            spec.generator.to_string(),
            spec.build_shape().len(),
            spec.algorithm.name(),
            spec.scheduler.name(),
            spec.faults.processes.len(),
        );
    }
}

fn cmd_render(specs: &[ScenarioSpec], name: &str) -> Result<(), String> {
    let spec = specs
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` (try `pm-scenarios list`)"))?;
    let shape = spec.build_shape();
    println!(
        "{} — {} (n = {}, algorithm = {}, scheduler = {})",
        spec.name,
        spec.generator,
        shape.len(),
        spec.algorithm.name(),
        spec.scheduler.name(),
    );
    for process in &spec.faults.processes {
        println!("fault: {process}");
    }
    println!("{}", render_shape(&shape));
    Ok(())
}

fn cmd_run(specs: &[ScenarioSpec], args: &Args, suite: &str) -> Result<(), String> {
    let selected = select(specs, suite);
    if selected.is_empty() {
        return Err(format!(
            "suite `{suite}` selects no scenarios (suites: {}, or a scenario name / `all`)",
            suite_tags(specs).join(", ")
        ));
    }
    let reports = run_suite(&selected, args.threads.max(1));
    eprintln!(
        "{:<32} {:>6} {:>8} {:>12} {:>9} {:>8} {:<8}",
        "scenario", "n", "rounds", "activations", "leaders", "faults", "outcome"
    );
    let mut failures = 0usize;
    for r in &reports {
        let (rounds, activations, leaders, outcome) = match &r.report {
            Some(report) => (
                report.total_rounds.to_string(),
                report.activations.to_string(),
                report.leaders.to_string(),
                "ok".to_string(),
            ),
            None => {
                failures += 1;
                (
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    r.error.clone().unwrap_or_else(|| "error".into()),
                )
            }
        };
        eprintln!(
            "{:<32} {:>6} {:>8} {:>12} {:>9} {:>8} {:<8}",
            r.scenario, r.n, rounds, activations, leaders, r.faults, outcome
        );
    }
    eprintln!(
        "{} scenario(s), {} ok, {} error(s)",
        reports.len(),
        reports.len() - failures,
        failures
    );
    let json = report_json(&reports);
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }
    // Error entries are legitimate data for assumption-violation scenarios,
    // so they do not affect the exit status; only smoke promises all-ok
    // (CI pins that via the golden diff).
    Ok(())
}

/// Steps one scenario round by round through the resumable `Execution`
/// handle, printing a status line per step — the caller-driven loop the
/// steppable API exists for, on the command line. With `json`, stdout
/// carries one `ExecutionStatus` JSON line per completed round (the shape
/// the server's `watch` verb streams) and the final `RunReport` JSON line;
/// the human framing moves to stderr.
fn cmd_trace(specs: &[ScenarioSpec], name: &str, json: bool) -> Result<(), String> {
    let spec = specs
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` (try `pm-scenarios list`)"))?;
    spec.check_faults()?;
    let shape = spec.build_shape();
    let header = format!(
        "tracing {} — {} (n = {}, algorithm = {}, scheduler = {}, {} fault process(es))",
        spec.name,
        spec.generator,
        shape.len(),
        spec.algorithm.name(),
        spec.scheduler.name(),
        spec.faults.processes.len(),
    );
    if json {
        eprintln!("{header}");
    } else {
        println!("{header}");
    }
    let mut scheduler = spec.scheduler.build();
    let mut execution = spec
        .algorithm
        .instance()
        .start(&shape, &mut *scheduler, &spec.options)
        .map_err(|e| format!("start: {e}"))?;
    let mut script = FaultScript::new(spec.faults.clone());
    let report = loop {
        // The caller owns the loop: fire due fault processes against the
        // live system, then pump one step.
        let fired_now = script.apply_due(&mut execution);
        if fired_now > 0 && !json {
            let status = execution.status();
            println!(
                "  !! {fired_now} fault process(es) fired before round {}; {} particle(s) remain",
                status.next_round.unwrap_or(status.rounds_in_phase),
                status.decided + status.undecided
            );
        }
        match execution
            .step_round()
            .map_err(|e| format!("execution failed: {e}"))?
        {
            StepOutcome::PhaseStarted { phase } => {
                if !json {
                    println!("phase {phase}: started");
                }
            }
            StepOutcome::RoundCompleted { phase, rounds } => {
                let status = execution.status();
                if json {
                    let line = serde_json::to_string(&status)
                        .map_err(|e| format!("serialize status: {e}"))?;
                    println!("{line}");
                } else {
                    println!(
                        "phase {phase}: round {rounds:>5}  decided {:>6}  undecided {:>6}  total rounds {:>6}",
                        status.decided, status.undecided, status.total_rounds
                    );
                }
            }
            StepOutcome::PhaseEnded { report } => {
                if !json {
                    println!(
                        "phase {}: ended after {} round(s), {} activation(s), {} move(s)",
                        report.name, report.rounds, report.activations, report.moves
                    );
                }
            }
            StepOutcome::Finished(report) => break report,
        }
    };
    if json {
        let line = serde_json::to_string(&report).map_err(|e| format!("serialize report: {e}"))?;
        println!("{line}");
        return Ok(());
    }
    if script.fired() > 0 {
        println!(
            "faults: {} firing(s) — {} removed, {} added, {} corrupted, {} relocated",
            script.fired(),
            script.removed(),
            script.added(),
            script.corrupted(),
            script.relocated()
        );
    }
    println!(
        "finished: {} leader(s) at {}, {} follower(s), {} undecided, {} total round(s), connected = {}",
        report.leaders,
        report.leader,
        report.followers,
        report.undecided,
        report.total_rounds,
        report.final_connected
    );
    println!(
        "report: n = {} -> {} surviving particle(s), peak memory {} bit(s)/particle",
        report.n,
        report.final_positions.len(),
        report.peak_memory_bits
    );
    Ok(())
}

/// Runs one scenario under the span recorder and the phase profiler,
/// writes the drained trace as a Chrome trace-event file (plus optional
/// folded stacks), and prints per-phase and per-round summary tables. The
/// run is single-threaded and caller-driven, so the trace shows the full
/// session → phase → round hierarchy with adversarial firings as instant
/// events inside the phase that absorbed them.
fn cmd_profile(specs: &[ScenarioSpec], name: &str, args: &Args) -> Result<(), String> {
    let spec = specs
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` (try `pm-scenarios list`)"))?;
    spec.check_faults()?;
    if !trace::install(trace::DEFAULT_CAPACITY) {
        return Err("a trace recorder is already installed".to_string());
    }
    // Uninstall even on error — a stray recorder must not outlive the run.
    let result = profile_run(spec);
    let traced = trace::uninstall().unwrap_or_default();
    let report = result?;

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{name}.trace.json")));
    std::fs::write(&out, traced.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!(
        "wrote {} ({} event(s), {} dropped) — load in Perfetto or chrome://tracing",
        out.display(),
        traced.events.len(),
        traced.dropped
    );
    if let Some(folded) = &args.folded {
        std::fs::write(folded, traced.to_folded())
            .map_err(|e| format!("write {}: {e}", folded.display()))?;
        eprintln!(
            "wrote {} (folded stacks for flamegraph tooling)",
            folded.display()
        );
    }

    println!(
        "{:<12} {:>8} {:>8} {:>12} {:>8} {:>12}",
        "phase", "steps", "rounds", "activations", "moves", "wall µs"
    );
    for phase in &report.profile {
        println!(
            "{:<12} {:>8} {:>8} {:>12} {:>8} {:>12}",
            phase.name,
            phase.steps,
            phase.rounds,
            phase.activations,
            phase.moves,
            phase.wall_nanos / 1_000
        );
    }

    // Per-round critical path, from the trace's `round` spans (span_at
    // pushes Begin and End with one id, so pair them by id).
    let mut begun: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut rounds: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for event in traced.events.iter().filter(|e| e.cat == "round") {
        match event.kind {
            trace::EventKind::Begin => {
                begun.insert(event.id, event.ts_us);
            }
            trace::EventKind::End => {
                let Some(start) = begun.remove(&event.id) else {
                    continue;
                };
                let duration = event.ts_us.saturating_sub(start);
                let (count, total, max) = rounds.entry(event.name.to_string()).or_insert((0, 0, 0));
                *count += 1;
                *total += duration;
                *max = (*max).max(duration);
            }
            trace::EventKind::Instant => {}
        }
    }
    let grand_total: u64 = rounds.values().map(|(_, total, _)| *total).sum();
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>10} {:>8}",
        "rounds", "count", "total µs", "mean µs", "max µs", "share %"
    );
    for (phase, (count, total, max)) in &rounds {
        println!(
            "{:<12} {:>8} {:>12} {:>10} {:>10} {:>7.1}%",
            phase,
            count,
            total,
            total / count.max(&1),
            max,
            100.0 * *total as f64 / grand_total.max(1) as f64
        );
    }
    Ok(())
}

/// The instrumented drive loop behind [`cmd_profile`]: session and phase
/// guard spans from the caller's side, round spans and phase-boundary
/// instants from `Execution::step_round` itself, adversarial firings from
/// the script.
fn profile_run(spec: &ScenarioSpec) -> Result<pm_core::api::RunReport, String> {
    let shape = spec.build_shape();
    let mut scheduler = spec.scheduler.build();
    let mut execution = spec
        .algorithm
        .instance()
        .start(&shape, &mut *scheduler, &spec.options)
        .map_err(|e| format!("start: {e}"))?;
    execution.enable_profiling();
    let mut script = FaultScript::new(spec.faults.clone());
    let _session = trace::span("session", format!("session:{}", spec.name));
    let mut phase_span: Option<pm_telemetry::SpanGuard> = None;
    loop {
        script.apply_due(&mut execution);
        match execution
            .step_round()
            .map_err(|e| format!("execution failed: {e}"))?
        {
            StepOutcome::PhaseStarted { phase } => {
                // take() first: the previous guard must End before the new
                // phase Begins, or the spans would nest instead of chain.
                drop(phase_span.take());
                phase_span = Some(trace::span("phase", format!("phase:{phase}")));
            }
            StepOutcome::RoundCompleted { .. } => {}
            StepOutcome::PhaseEnded { .. } => drop(phase_span.take()),
            StepOutcome::Finished(report) => return Ok(report),
        }
    }
}

/// Serves the session protocol over stdin/stdout (default) or TCP, with
/// the durability and resource-bound knobs applied. With `--http`, the
/// observability listener rides alongside and the trace recorder, the
/// core's uptime clock and the scrape surfaces all share one epoch
/// `Instant`, so `/stats` uptime and `/trace` timestamps agree.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut core = ServerCore::new(args.slice.max(1), args.threads.max(1));
    core.set_limits(ServerLimits {
        max_sessions: args.max_sessions,
        idle_ttl: args.ttl_ms.map(Duration::from_millis),
    });
    core.set_autosave_interval(Duration::from_millis(args.autosave_ms.max(1)));
    if args.http.is_some() {
        let epoch = std::time::Instant::now();
        if !trace::install_at(trace::DEFAULT_CAPACITY, epoch) {
            return Err("a trace recorder is already installed".to_string());
        }
        core.set_epoch(epoch);
    }
    if let Some(dir) = &args.persist_dir {
        let (restored, rejected) = core.attach_persistence(dir.clone())?;
        info!(
            "pm_scenarios::serve",
            "recovered {restored} session(s) from {} ({rejected} rejected)",
            dir.display()
        );
    }
    let options = ServeOptions {
        http: args.http.as_deref(),
    };
    let served = match &args.tcp {
        Some(addr) => pm_server::serve_tcp_with(core, addr, options)
            .map(|_| ())
            .map_err(|e| format!("serve --tcp {addr}: {e}")),
        None => {
            pm_server::serve_stdio_with(core, options).map_err(|e| format!("serve --stdio: {e}"))
        }
    };
    let _ = trace::uninstall();
    served
}

/// The `serve --stdio` command line matching this invocation's knobs —
/// what `client` spawns (and respawns at `!restart`).
fn serve_command(args: &Args) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = vec![
        exe.display().to_string(),
        "serve".to_string(),
        "--stdio".to_string(),
        "--slice".to_string(),
        args.slice.to_string(),
        "--threads".to_string(),
        args.threads.to_string(),
        "--autosave-ms".to_string(),
        args.autosave_ms.to_string(),
    ];
    if let Some(dir) = &args.persist_dir {
        command.push("--persist-dir".to_string());
        command.push(dir.display().to_string());
    }
    if let Some(ttl) = args.ttl_ms {
        command.push("--ttl-ms".to_string());
        command.push(ttl.to_string());
    }
    if let Some(max) = args.max_sessions {
        command.push("--max-sessions".to_string());
        command.push(max.to_string());
    }
    command.push("--log-level".to_string());
    command.push(args.log_level.as_str().to_string());
    if args.log_json {
        command.push("--log-json".to_string());
    }
    Ok(command)
}

/// Replays a request script against `serve --stdio` child processes,
/// printing the response transcript to stdout.
fn cmd_client(args: &Args) -> Result<(), String> {
    let path = args
        .script
        .as_ref()
        .ok_or("client needs --script FILE (a .jsonl request script)")?;
    let script =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let command = serve_command(args)?;
    let stdout = std::io::stdout();
    pm_server::run_script(&command, &script, &mut stdout.lock())
}

/// Floods a freshly spawned TCP server with many small sessions from
/// concurrent client threads, asserting fairness (every session completes
/// with a unique leader) and bounded memory (each client cancels its
/// finished sessions, and the final `stats` verb confirms no session is
/// left live). The budget deliberately sits below the client count so the
/// retryable `Busy` path is exercised under real contention; the summary
/// reports how many resends it took.
fn cmd_load(args: &Args) -> Result<(), String> {
    let sessions = args.sessions.max(1);
    let clients = args.clients.max(1);
    let budget = args.max_sessions.unwrap_or((clients / 2).max(2));
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let server = ServerProcess::spawn(&[
        exe.display().to_string(),
        "serve".to_string(),
        "--tcp".to_string(),
        "127.0.0.1:0".to_string(),
        "--slice".to_string(),
        args.slice.to_string(),
        "--threads".to_string(),
        args.threads.to_string(),
        "--max-sessions".to_string(),
        budget.to_string(),
    ])?;

    let completed = AtomicUsize::new(0);
    let busy_retries = AtomicU64::new(0);
    let failures = std::sync::Mutex::new(Vec::new());
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (server, completed, busy_retries, failures) =
                (&server, &completed, &busy_retries, &failures);
            scope.spawn(move || {
                let run = |conn: &mut Client| -> Result<(), String> {
                    // Client `c` owns sessions c, c+clients, c+2*clients, …
                    for index in (client..sessions).step_by(clients) {
                        let spec = ScenarioSpec::new(
                            format!("load-{index}"),
                            GeneratorSpec::Hexagon { radius: 2 },
                        );
                        let submitted = conn.request(&Request::Submit { spec })?;
                        let Response::Submitted { session, .. } = submitted else {
                            return Err(format!(
                                "load-{index}: expected Submitted, got {submitted:?}"
                            ));
                        };
                        match conn.request(&Request::Run { session })? {
                            Response::Done { report, .. } if report.unique_leader() => {}
                            other => {
                                return Err(format!(
                                    "load-{index}: expected unique leader, got {other:?}"
                                ))
                            }
                        }
                        // Cancelling finished sessions is what keeps the
                        // server's live set (and memory) bounded.
                        match conn.request(&Request::Cancel { session })? {
                            Response::Cancelled { .. } => completed.fetch_add(1, SeqCst),
                            other => return Err(format!("load-{index}: cancel got {other:?}")),
                        };
                    }
                    Ok(())
                };
                let outcome = server.connect().and_then(|mut conn| {
                    let outcome = run(&mut conn);
                    busy_retries.fetch_add(conn.busy_retries(), SeqCst);
                    outcome
                });
                if let Err(error) = outcome {
                    failures.lock().expect("no holder panics").push(error);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let stats = match server.connect()?.request(&Request::Stats)? {
        Response::Stats { stats } => stats,
        other => return Err(format!("expected Stats, got {other:?}")),
    };
    server.shutdown()?;

    let failures = failures.into_inner().expect("no holder panics");
    let completed = completed.into_inner();
    eprintln!(
        "load: {completed}/{sessions} session(s) completed by {clients} client(s) in {:.2}s \
         ({:.0}/s); budget {budget}, live at end {}, sweeps {}, busy-retries {}",
        elapsed.as_secs_f64(),
        completed as f64 / elapsed.as_secs_f64().max(0.001),
        stats.sessions,
        stats.sweeps,
        busy_retries.into_inner(),
    );
    if let Some(error) = failures.first() {
        return Err(format!(
            "{} client(s) failed; first: {error}",
            failures.len()
        ));
    }
    if completed != sessions {
        return Err(format!(
            "fairness violated: {completed}/{sessions} sessions completed"
        ));
    }
    if stats.sessions != 0 {
        return Err(format!(
            "memory bound violated: {} session(s) still live after every client cancelled its own",
            stats.sessions
        ));
    }
    if stats.sweeps == 0 {
        return Err("the scheduler never swept".to_string());
    }
    if stats.bytes_read == 0 || stats.bytes_written == 0 {
        return Err(format!(
            "byte accounting broken: {} read / {} written after {completed} sessions",
            stats.bytes_read, stats.bytes_written
        ));
    }
    // The control connection that asked for the stats was still open.
    if stats.active_connections < 1 {
        return Err(format!(
            "connection accounting broken: {} active at stats time",
            stats.active_connections
        ));
    }
    Ok(())
}

/// Rewrites the committed corpus and smoke golden file from the built-in
/// corpus (paths resolved relative to the pm-scenarios crate, which owns
/// the corpus even though this binary lives in pm-server).
fn cmd_regen() -> Result<(), String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../pm-scenarios");
    let entries = pm_scenarios::builtin_entries();
    let mut corpus_json =
        serde_json::to_string_pretty(&entries).map_err(|e| format!("serialize corpus: {e}"))?;
    corpus_json.push('\n');
    let corpus_path = root.join("corpus/scenarios.json");
    std::fs::write(&corpus_path, corpus_json)
        .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;
    eprintln!("wrote {}", corpus_path.display());

    let corpus = pm_scenarios::builtin_corpus();
    for (suite, file) in [(SMOKE, "golden/smoke.json"), (FAULTS, "golden/faults.json")] {
        let selected = select(&corpus, suite);
        let golden = report_json(&run_suite(&selected, 1));
        let golden_path = root.join(file);
        if let Some(parent) = golden_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
        std::fs::write(&golden_path, golden)
            .map_err(|e| format!("write {}: {e}", golden_path.display()))?;
        eprintln!("wrote {}", golden_path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    logging::init(args.log_level, args.log_json);
    let result = match args.command.as_str() {
        "regen" => cmd_regen(),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "load" => cmd_load(&args),
        command => match load_corpus(&args) {
            Err(e) => Err(e),
            Ok(specs) => match (command, args.operand.as_deref()) {
                ("list", _) => {
                    cmd_list(&specs);
                    Ok(())
                }
                ("suites", _) => {
                    for tag in suite_tags(&specs) {
                        println!("{tag}");
                    }
                    println!("all");
                    Ok(())
                }
                ("render", Some(name)) => cmd_render(&specs, name),
                ("render", None) => Err("render needs a scenario name".to_string()),
                ("run", Some(suite)) => cmd_run(&specs, &args, suite),
                ("run", None) => Err("run needs a suite name (try `smoke` or `all`)".to_string()),
                ("trace", Some(name)) => cmd_trace(&specs, name, args.json),
                ("trace", None) => Err("trace needs a scenario name".to_string()),
                ("profile", Some(name)) => cmd_profile(&specs, name, &args),
                ("profile", None) => Err("profile needs a scenario name".to_string()),
                (other, _) => Err(format!("unknown command `{other}`\n{USAGE}")),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
