//! The repo benchmark: four workloads, six end-to-end metrics and a
//! layer-replay trace. `README.md` beside this crate says what each
//! workload is for and how the numbers are estimated; `BENCHMARK.json` at
//! the repository root is the contract the driver runs it by.

mod compare;
mod daemon;
mod engine;
mod metrics;
mod oneshot;
mod online;
mod stats;
mod trace;
mod workload;

use metrics::WORKLOADS;
use sof_spec::value::{parse_json, write_json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{drive, RunPlan, Scale, Workload};

const USAGE: &str = "\
usage: sof_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--check] [--out FILE]
       sof_benchmark compare A.json B.json

Without --workload every workload runs, each in a child process.
  --workload NAME  oneshot-kstroll | oneshot-inet5k | online-inet10k | daemon-mixed
  --seed N         seeds every generator (default 13)
  --seconds S      measure for S seconds per workload (default 30)
  --trace 0|1      0: end-to-end metrics; 1: traced run, per-layer metrics and
                   out/trace-<workload>.jsonl (default 0)
  --check          smoke mode: miniature sizes, two rounds, traced and untraced
  --out FILE       also store the full records (metrics, noise, exact counts)
compare prints, per workload and end-to-end metric, how B differs from A and
whether that is inside the metric's bound; it exits 1 if anything is outside.";

/// Parsed command line of a run.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 13,
        seconds: 30.0,
        trace: false,
        check: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number of seconds")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--check" => parsed.check = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// Where trace files and the child processes' records go.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn build(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "oneshot-kstroll" => Box::new(oneshot::Oneshot::kstroll(seed, scale)),
        "oneshot-inet5k" => Box::new(oneshot::Oneshot::inet5k(seed, scale)),
        "online-inet10k" => Box::new(online::Online::inet10k(seed, scale)),
        "daemon-mixed" => Box::new(daemon::Daemon::mixed(seed, scale)),
        other => unreachable!("workload {other} passed parse_args"),
    }
}

fn write_records(path: &Path, records: Vec<Value>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = Value::table();
    file.set("workloads", Value::Array(records));
    std::fs::write(path, write_json(&file) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process. The result line is the last thing
/// printed. Returns whether every check passed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let scale = match (args.check, args.trace) {
        (true, _) => Scale::Check,
        (false, true) => Scale::Traced,
        (false, false) => Scale::Full,
    };
    let plan = RunPlan {
        seconds: args.seconds,
        trace: args.trace,
        check: args.check,
    };
    let mut tracer = Tracer::new(Instant::now());
    let report = drive(build(name, args.seed, scale).as_mut(), plan, &mut tracer)?;
    report.print_human(name);
    if args.trace {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    if let Some(out) = &args.out {
        write_records(out, vec![report.record(name, args.seed)])?;
    }
    println!("{}", write_json(&report.result_line()));
    Ok(report.correct)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is the workload's and not the sum of all before it.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let traces: &[bool] = if args.check {
        &[false, true]
    } else {
        std::slice::from_ref(&args.trace)
    };
    let mut records = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        for &trace in traces {
            let record = out_dir().join(format!("record-{name}-{}.json", u8::from(trace)));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&record);
            if args.check {
                child.arg("--check");
            }
            let status = child
                .status()
                .map_err(|e| format!("starting {name}: {e}"))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&record)
                .map_err(|e| format!("{name} left no record at {}: {e}", record.display()))?;
            let file = parse_json(&text).map_err(|e| format!("{}: {e}", record.display()))?;
            if let Some(Value::Array(rows)) = file.get("workloads") {
                records.extend(rows.iter().cloned());
            }
        }
    }
    if let Some(out) = &args.out {
        write_records(out, records)?;
    }
    Ok(all_correct)
}

/// Keeps glibc's allocator to one arena. By default a thread that finds
/// the arenas busy is given one of its own, so which arena the daemon
/// workload's large allocations grow depends on how its threads are
/// scheduled: its `peak_rss_mb` read 9.6 to 12.6 MB in ten runs of the same
/// code, and 6.8 to 7.2 MB with one arena (at 3 % of its `ops_per_s`). The
/// solver workloads run one thread and are not affected.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's own tuning call; no other thread exists
    // yet, and a refused setting (return 0) leaves the default in place.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas() {}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare_files(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &parsed.workload {
        Some(name) => run_one(name, &parsed),
        None => run_all(&parsed),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(&[
            "--workload",
            "online-inet10k",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("online-inet10k"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 30.0, true));
        assert!(!parsed.check && parsed.out.is_none());
        assert_eq!(parse_args(&[]).unwrap().seed, 13);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--sede", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
