//! `sof` — the unified scenario CLI.
//!
//! ```text
//! sof run <preset|spec.toml|spec.json> [options]   run a scenario
//! sof list                                         list bundled presets
//! sof validate <preset|file>... | --all            check specs without running
//! ```
//!
//! `sof run` emits the structured `RunReport` as JSON lines by default
//! (deterministic for a fixed seed and any `--threads`); pass
//! `--format markdown` for the legacy figure tables.

use sof_graph::PathEngineStats;
use sof_spec::overrides::{apply_overrides, Overrides};
use sof_spec::{
    render_markdown, run_churn_stream, run_spec, write_jsonl, Detail, RunOptions, RunReport,
    ScenarioSpec, Workload,
};
use std::io::Write;
use std::path::Path;
use std::process::exit;

const USAGE: &str = "sof — Service Overlay Forest scenarios

Usage:
  sof run <preset|spec.toml|spec.json> [options]
  sof list
  sof validate <preset|file>... | --all
  sof bench-snapshot [--out FILE] [--reps N] [--threads N] [--entry NAME]...
  sof serve [--addr HOST:PORT] [--ttl-secs N] [--stdin]
  sof help

Run options:
  --format <jsonl|markdown>  output format (default jsonl)
  --seeds <N>                override the averaging width
  --seed <N>                 override the base RNG seed
  --limit <N>                truncate every sweep axis to its first N values
  --solvers <A,B,...>        override the solver set
  --nodes <N>                resize the topology (inet family only)
  --requests <N>             override every online group's arrival count
  --groups <N>               override the concurrent-group count (churn-at-scale)
  --events <N>               override the event budget (churn-at-scale)
  --window <N>               override the window size (churn-at-scale)
  --threads <N>              worker threads (0 = all cores; overrides SOF_THREADS)
  --timings                  include wall-clock measurements in the JSONL output

Presets are bundled spec files (see `sof list`); anything containing a
path separator or ending in .toml/.json is read from disk.

churn-at-scale workloads stream their records (meta, windows, optional
per-event samples, summary) to stdout incrementally in jsonl format —
memory stays bounded no matter how many events the budget allows.

`sof bench-snapshot` runs a fixed miniature preset set and writes a JSON
wall-clock snapshot (the `BENCH_*.json` perf trajectory; CI uploads one
per run and diffs it against the committed snapshot).

`sof serve` runs sofd, the long-running embedding daemon: a JSON control
plane over HTTP/1.1 (see docs/DAEMON.md). It prints the bound address,
then serves until POST /v1/shutdown arrives; --ttl-secs gives sessions a
default idle TTL the janitor enforces (0 = never), and --stdin also stops
the daemon when stdin reaches EOF (for supervisors holding a pipe —
unsafe as a default, since a backgrounded daemon's stdin is often
/dev/null, which is EOF immediately).";

fn fatal(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

/// Resolves a run target: a bundled preset name, or a spec file —
/// anything containing a path separator, ending in .toml/.json, or naming
/// an existing file is read from disk.
fn resolve(target: &str) -> Result<ScenarioSpec, String> {
    let looks_like_path = target.contains('/')
        || target.ends_with(".toml")
        || target.ends_with(".json")
        || Path::new(target).exists();
    if looks_like_path {
        return ScenarioSpec::from_path(Path::new(target)).map_err(|e| e.to_string());
    }
    match sof_spec::presets::preset(target) {
        Some(Ok(s)) => Ok(s),
        Some(Err(e)) => Err(format!("bundled preset '{target}' is invalid: {e}")),
        None => Err(format!(
            "unknown preset '{target}' (run `sof list`, or pass a spec file path)"
        )),
    }
}

/// Applies one `--flag value` pair onto `Overrides`; `false` means the
/// flag is not an override flag. Shared by `sof run` and
/// `sof bench-snapshot` so the two can never drift apart.
fn override_flag(overrides: &mut Overrides, flag: &str, val: &str) -> bool {
    match flag {
        "--seeds" => overrides.seeds = Some(parse_num(val, flag)),
        "--seed" => overrides.seed = Some(parse_num(val, flag)),
        "--limit" => overrides.limit = Some(parse_num(val, flag) as usize),
        "--solvers" => {
            overrides.solvers = Some(val.split(',').map(|s| s.trim().to_string()).collect())
        }
        "--nodes" => overrides.nodes = Some(parse_num(val, flag) as usize),
        "--requests" => overrides.requests = Some(parse_num(val, flag) as usize),
        "--groups" => overrides.groups = Some(parse_num(val, flag) as usize),
        "--events" => overrides.events = Some(parse_num(val, flag)),
        "--window" => overrides.window = Some(parse_num(val, flag)),
        _ => return false,
    }
    true
}

fn cmd_run(args: Vec<String>) {
    let mut format = "jsonl".to_string();
    let mut overrides = Overrides::default();
    let mut threads: Option<usize> = None;
    let mut timings = false;
    let mut target: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fatal(format!("flag '{flag}' is missing its value")))
        };
        match arg.as_str() {
            "--format" => format = value("--format"),
            "--seeds" | "--seed" | "--limit" | "--solvers" | "--nodes" | "--requests"
            | "--groups" | "--events" | "--window" => {
                let v = value(&arg);
                override_flag(&mut overrides, &arg, &v);
            }
            "--threads" => threads = Some(parse_num(&value("--threads"), "--threads") as usize),
            "--timings" => timings = true,
            other if other.starts_with("--") => fatal(format!("unknown flag '{other}'")),
            _ => {
                if target.is_some() {
                    fatal(format!("unexpected extra argument '{arg}'"));
                }
                target = Some(arg);
            }
        }
    }
    let Some(target) = target else {
        fatal("`sof run` needs a preset name or spec file (see `sof list`)");
    };
    if let Some(t) = threads {
        sof_par::set_threads(t);
    }
    let mut spec = resolve(&target).unwrap_or_else(|e| fatal(e));
    for name in apply_overrides(&mut spec, &overrides) {
        eprintln!(
            "warning: --{name} does not apply to a '{}' workload and was ignored",
            spec.workload.kind()
        );
    }
    if let Err(e) = spec.validate() {
        fatal(e);
    }
    let opts = RunOptions {
        threads: 0,
        timings,
    };
    match format.as_str() {
        "jsonl" | "json" => {
            // churn-at-scale streams: records hit stdout the moment the
            // runner produces them instead of accumulating a report.
            if matches!(spec.workload, Workload::ChurnAtScale(_)) {
                let out = std::io::BufWriter::new(std::io::stdout());
                match run_churn_stream(&spec, &opts, out) {
                    Ok(summary) => {
                        let _ = std::io::stdout().flush();
                        eprintln!(
                            "{} events in {} windows, stop: {}",
                            summary.events,
                            summary.windows,
                            summary.stop.as_str()
                        );
                    }
                    Err(e) => fatal(e),
                }
                return;
            }
            let report = match run_spec(&spec, &opts) {
                Ok(r) => r,
                Err(e) => fatal(e),
            };
            for w in report.warnings() {
                eprintln!("warning: {w}");
            }
            print!("{}", write_jsonl(&report, timings));
        }
        "markdown" | "md" => {
            let report = match run_spec(&spec, &opts) {
                Ok(r) => r,
                Err(e) => fatal(e),
            };
            for w in report.warnings() {
                eprintln!("warning: {w}");
            }
            print!("{}", render_markdown(&report));
        }
        other => fatal(format!(
            "unknown format '{other}' (expected 'jsonl' or 'markdown')"
        )),
    }
}

fn parse_num(v: &str, flag: &str) -> u64 {
    v.parse()
        .unwrap_or_else(|_| fatal(format!("invalid value '{v}' for flag '{flag}'")))
}

/// The fixed preset set of the perf trajectory (`BENCH_*.json`): one
/// online workload (engine + incremental path), comparison sweeps at
/// miniature scale (engine across solvers), the exact solver (relaxation
/// memo + pool), and a large-topology point. Entries mirror the CI golden
/// invocations, so every timed run is also output-pinned.
const BENCH_PRESETS: &[(&str, &str, &str)] = &[
    ("fig12-online-r8", "fig12", "--requests 8"),
    ("fig9-sweep", "fig9", "--seeds 1 --limit 1"),
    (
        "fig8-sweep",
        "fig8",
        "--seeds 2 --limit 2 --solvers SOFDA,eNEMP,eST,ST",
    ),
    ("table1-exact", "table1", "--limit 1"),
    ("fig10-inet300", "fig10", "--seeds 1 --limit 1 --nodes 300"),
    ("table2-exact", "table2", "--seeds 2"),
    (
        "churn-at-scale",
        "churn-at-scale",
        "--groups 200 --events 4000 --window 1000",
    ),
    // The survivability subsystem: a three-policy comparison over one
    // failure trace (failure application, protection prewarm, recovery).
    ("failures-recovery", "churn-failures-protected", ""),
];

/// Sums the `PathEngine` counters over every online session in the
/// report. `None` when the report has no online sections (sweeps don't
/// surface per-session engine stats).
fn engine_counters(report: &RunReport) -> Option<PathEngineStats> {
    let mut any = false;
    let mut sum = PathEngineStats::default();
    for section in &report.sections {
        if let Detail::Online(d) = &section.detail {
            for s in &d.sessions {
                any = true;
                sum += s.engine;
            }
        }
    }
    any.then_some(sum)
}

fn cmd_bench_snapshot(args: Vec<String>) {
    let mut out: Option<String> = None;
    let mut reps = 3usize;
    let mut threads: Option<usize> = None;
    let mut only: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fatal(format!("flag '{flag}' is missing its value")))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--reps" => reps = parse_num(&value("--reps"), "--reps") as usize,
            "--threads" => threads = Some(parse_num(&value("--threads"), "--threads") as usize),
            "--entry" => only.push(value("--entry")),
            other => fatal(format!("unknown flag '{other}' for bench-snapshot")),
        }
    }
    if reps == 0 {
        fatal("--reps must be at least 1");
    }
    // Perf iteration on one preset shouldn't re-run the whole suite:
    // --entry (repeatable) narrows the snapshot to the named entries.
    for name in &only {
        if !BENCH_PRESETS.iter().any(|&(n, _, _)| n == name) {
            fatal(format!(
                "unknown bench entry '{name}' (entries: {})",
                BENCH_PRESETS
                    .iter()
                    .map(|&(n, _, _)| n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    let wanted = |name: &str| only.is_empty() || only.iter().any(|n| n == name);
    if let Some(t) = threads {
        sof_par::set_threads(t);
    }
    let opts = RunOptions {
        threads: 0,
        timings: true,
    };
    let mut entries: Vec<String> = Vec::new();
    for &(name, preset, flags) in BENCH_PRESETS {
        if !wanted(name) {
            continue;
        }
        let mut spec = resolve(preset).unwrap_or_else(|e| fatal(e));
        let mut overrides = Overrides::default();
        let mut flag_it = flags.split_whitespace();
        while let Some(flag) = flag_it.next() {
            let val = flag_it.next().unwrap_or_default();
            if !override_flag(&mut overrides, flag, val) {
                fatal(format!("internal bench preset uses unknown flag '{flag}'"));
            }
        }
        apply_overrides(&mut spec, &overrides);
        if let Err(e) = spec.validate() {
            fatal(format!("bench preset {name}: {e}"));
        }
        let mut wall_ms = Vec::with_capacity(reps);
        let mut last_report: Option<RunReport> = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            match run_spec(&spec, &opts) {
                Ok(r) => last_report = Some(r),
                Err(e) => fatal(format!("bench preset {name}: {e}")),
            }
            wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let engine = last_report
            .as_ref()
            .and_then(engine_counters)
            .map(|e| (e.hits, e.misses, e.stale, e.repairs, e.partial_repairs));
        let engine_note = engine
            .map(|(h, m, s, r, p)| {
                format!("  engine hits {h} / misses {m} / stale {s} / repairs {r} / partial {p}")
            })
            .unwrap_or_default();
        // Churn-at-scale entries also report throughput: the event budget
        // divided by each rep's wall clock.
        let events_per_sec: Option<Vec<f64>> = match &spec.workload {
            Workload::ChurnAtScale(s) => Some(
                wall_ms
                    .iter()
                    .map(|ms| s.events as f64 / (ms / 1e3))
                    .collect(),
            ),
            _ => None,
        };
        let throughput_note = events_per_sec
            .as_ref()
            .and_then(|eps| eps.last())
            .map(|eps| format!("  {eps:.0} events/s"))
            .unwrap_or_default();
        eprintln!(
            "{name:<16} {}{engine_note}{throughput_note}",
            wall_ms
                .iter()
                .map(|ms| format!("{ms:.0} ms"))
                .collect::<Vec<_>>()
                .join("  ")
        );
        let values = wall_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(",");
        let engine_json = engine
            .map(|(h, m, s, r, p)| {
                format!(
                    ",\"engine\":{{\"hits\":{h},\"misses\":{m},\"stale\":{s},\"repairs\":{r},\"partial_repairs\":{p}}}"
                )
            })
            .unwrap_or_default();
        let throughput_json = events_per_sec
            .map(|eps| {
                format!(
                    ",\"events_per_sec\":[{}]",
                    eps.iter()
                        .map(|e| format!("{e:.1}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .unwrap_or_default();
        entries.push(format!(
            "    {{\"name\":\"{name}\",\"preset\":\"{preset}\",\"args\":\"{flags}\",\"wall_ms\":[{values}]{engine_json}{throughput_json}}}"
        ));
    }
    let threads_used = sof_par::current_threads();
    let entries = entries.join(",\n");
    let json = format!(
        "{{\n  \"kind\": \"sof-bench-snapshot\",\n  \"threads\": {threads_used},\n  \"reps\": {reps},\n  \"entries\": [\n{entries}\n  ]\n}}\n"
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                fatal(format!("writing {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn cmd_serve(args: Vec<String>) {
    let mut config = sof_daemon::ServerConfig {
        addr: "127.0.0.1:8080".into(),
        ..sof_daemon::ServerConfig::default()
    };
    let mut watch_stdin = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fatal(format!("flag '{flag}' is missing its value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--ttl-secs" => {
                let secs = parse_num(&value("--ttl-secs"), "--ttl-secs");
                config.default_ttl = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--stdin" => watch_stdin = true,
            other => fatal(format!("unknown flag '{other}' for serve")),
        }
    }
    let handle = match sof_daemon::Server::start(config) {
        Ok(h) => h,
        Err(e) => fatal(format!("bind failed: {e}")),
    };
    // The address line goes to stdout so scripts can capture the resolved
    // ephemeral port; everything else is stderr commentary.
    println!("listening on {}", handle.base_url());
    let _ = std::io::stdout().flush();
    if watch_stdin {
        eprintln!("stop with POST /v1/shutdown or by closing stdin");
        // Opt-in only: a backgrounded daemon's stdin is usually /dev/null,
        // which reads as EOF immediately and would stop it at startup.
        let stop = handle.stop_signal();
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin();
            while !matches!(stdin.read(&mut sink), Ok(0) | Err(_)) {}
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    } else {
        eprintln!("stop with POST /v1/shutdown");
    }
    while !handle.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.stop();
    eprintln!("shutdown complete");
}

fn cmd_list() {
    println!("bundled presets:");
    for name in sof_spec::presets::preset_names() {
        let spec = sof_spec::presets::preset(name)
            .expect("listed preset exists")
            .expect("bundled presets are valid");
        let failures = match &spec.workload {
            Workload::Online { failures, .. } => failures.is_some(),
            Workload::ChurnAtScale(s) => s.failures.is_some(),
            _ => false,
        };
        println!(
            "  {name:<24} {:<16} {:<9} {}",
            spec.workload.kind(),
            if failures { "failures" } else { "-" },
            spec.description
        );
    }
    println!("\nrun one with `sof run <name>`; validate a file with `sof validate <path>`.");
}

fn cmd_validate(args: Vec<String>) {
    let targets: Vec<String> = if args.iter().any(|a| a == "--all") {
        sof_spec::presets::preset_names()
            .into_iter()
            .map(String::from)
            .collect()
    } else if args.is_empty() {
        fatal("`sof validate` needs preset names / spec files, or --all");
    } else {
        args
    };
    let mut failed = false;
    for target in &targets {
        match resolve(target) {
            Ok(spec) => {
                // The round trip is part of the contract: serializing and
                // re-parsing must be the identity.
                match ScenarioSpec::from_toml(&spec.to_toml()) {
                    Ok(again) if again == spec => println!("{target}: ok ({})", spec.name),
                    Ok(_) => {
                        eprintln!("{target}: round trip changed the spec (internal bug)");
                        failed = true;
                    }
                    Err(e) => {
                        eprintln!("{target}: round trip failed: {e}");
                        failed = true;
                    }
                }
            }
            // Every `resolve` error already names its target.
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("{USAGE}");
        return;
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "list" => cmd_list(),
        "validate" => cmd_validate(args),
        "bench-snapshot" => cmd_bench_snapshot(args),
        "serve" => cmd_serve(args),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => fatal(format!("unknown command '{other}' (try `sof help`)")),
    }
}
