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

use sof_spec::overrides::{apply_overrides, Overrides};
use sof_spec::{
    render_markdown, run_churn_stream, run_spec, write_jsonl, RunOptions, ScenarioSpec, Workload,
};
use std::io::Write;
use std::path::Path;
use std::process::exit;

const USAGE: &str = "sof — Service Overlay Forest scenarios

Usage:
  sof run <preset|spec.toml|spec.json> [options]
  sof list
  sof validate <preset|file>... | --all
  sof serve [--addr HOST:PORT] [--ttl-secs N] [--stdin]
  sof help

Run options:
  --format <jsonl|markdown>  output format (default jsonl)
  --seeds <N>                override the averaging width
  --seed <N>                 override the base RNG seed
  --limit <N>                truncate every sweep axis to its first N values
  --solvers <A,B,...>        override the solver set
  --nodes <N>                resize the inet topologies a spec builds (ignored elsewhere)
  --requests <N>             override every online group's arrival count
  --groups <N>               override the concurrent-group count (churn-at-scale)
  --events <N>               override the event budget (churn-at-scale)
  --window <N>               override the window size (churn-at-scale)
  --threads <N>              worker threads (0 = all cores; overrides SOF_THREADS)
  --timings                  add wall-clock times to the JSONL output (counts are
                             always in it)

Presets are bundled spec files (see `sof list`); anything containing a
path separator or ending in .toml/.json is read from disk.

churn-at-scale workloads stream their records (meta, windows, optional
per-event samples, summary) to stdout incrementally in jsonl format —
memory stays bounded no matter how many events the budget allows.

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
            "--seeds" => overrides.seeds = Some(parse_num(&value(&arg), &arg)),
            "--seed" => overrides.seed = Some(parse_num(&value(&arg), &arg)),
            "--limit" => overrides.limit = Some(parse_num(&value(&arg), &arg) as usize),
            "--solvers" => {
                let v = value(&arg);
                overrides.solvers = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--nodes" => overrides.nodes = Some(parse_num(&value(&arg), &arg) as usize),
            "--requests" => overrides.requests = Some(parse_num(&value(&arg), &arg) as usize),
            "--groups" => overrides.groups = Some(parse_num(&value(&arg), &arg) as usize),
            "--events" => overrides.events = Some(parse_num(&value(&arg), &arg)),
            "--window" => overrides.window = Some(parse_num(&value(&arg), &arg)),
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
            "warning: --{name} does not apply to spec '{}' (a '{}' workload) and was ignored",
            spec.name,
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
        "serve" => cmd_serve(args),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => fatal(format!("unknown command '{other}' (try `sof help`)")),
    }
}
