//! What every workload has in common: a fixed, seeded op script replayed
//! in rounds from fresh state, the best-of-R estimator over those rounds,
//! the checks that every round produced the same outputs, and the report.

use crate::metrics::{better_of, END_TO_END, PER_LAYER};
use crate::stats::{best_of, mean, median, percentile, spread};
use crate::trace::Tracer;
use sof_spec::value::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one replay of the script produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Seconds each step of set-up took, in order, from the round's start
    /// to its first timed op. The steps are the same in every round.
    pub setup_steps: Vec<f64>,
    /// Seconds the timed ops took: their sum for a single driver, the wall
    /// clock of the timed phase when two drivers run side by side.
    pub wall_s: f64,
    /// Latency of each op in script order (ms).
    pub op_ms: Vec<f64>,
    /// Class of each op where a workload has classes (rebuild or not, which
    /// route). It must repeat in every round.
    pub class: Vec<u8>,
    /// Sum of the forest cost of every successful embed.
    pub cost_sum: f64,
    /// Successful embeds behind `cost_sum`.
    pub embeds: u64,
    /// Ops that errored, were refused, or failed their validity check.
    pub failed: u64,
    /// Exact counts (engine tiers, candidate chains, bytes, …). They must
    /// repeat bit for bit in every round.
    pub counts: BTreeMap<&'static str, u64>,
    /// What only a traced round observes (layer replays, server totals).
    /// They must repeat bit for bit in every traced round.
    pub facts: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Seconds from the round's start to its first timed op.
    pub fn setup_s(&self) -> f64 {
        self.setup_steps.iter().sum()
    }

    /// Adds `n` to the exact count `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// The exact count `key`, 0 when never counted.
    pub fn counted(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// `counted(key) ÷ ops`.
    pub fn per_op(&self, key: &str) -> f64 {
        self.counted(key) as f64 / self.op_ms.len() as f64
    }

    /// The entries of `values`, one per op, whose op is of class `class`.
    pub fn of_class(&self, values: &[f64], class: u8) -> Vec<f64> {
        values
            .iter()
            .zip(&self.class)
            .filter(|(_, &c)| c == class)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Adds `v` to the traced-round fact `key`.
    pub fn fact(&mut self, key: &'static str, v: f64) {
        *self.facts.entry(key).or_insert(0.0) += v;
    }

    /// The traced-round fact `key`, 0 when never noted.
    pub fn noted(&self, key: &str) -> f64 {
        self.facts.get(key).copied().unwrap_or(0.0)
    }
}

/// Times the steps of a round's set-up, one after the other, for
/// [`Round::setup_steps`].
pub struct SetupClock {
    since: Instant,
    /// Seconds each finished step took.
    pub steps: Vec<f64>,
}

impl SetupClock {
    /// Starts the first step now.
    pub fn start() -> SetupClock {
        SetupClock {
            since: Instant::now(),
            steps: Vec::new(),
        }
    }

    /// Ends the current step now and starts the next.
    pub fn step(&mut self) {
        self.step_at(Instant::now());
    }

    /// Ends the current step at `now` and starts the next there.
    pub fn step_at(&mut self, now: Instant) {
        self.steps.push((now - self.since).as_secs_f64());
        self.since = now;
    }
}

/// How much of a workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the end-to-end metrics are defined on.
    Full,
    /// A prefix of the same script, for traced runs: a traced round also
    /// replays every layer, so it takes two to three times as long per op.
    Traced,
    /// Miniature sizes for `--check`.
    Check,
}

impl Scale {
    /// Chooses among three sizes.
    pub fn pick<T>(self, full: T, traced: T, check: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Traced => traced,
            Scale::Check => check,
        }
    }
}

/// A workload: one script, replayed from fresh state as often as asked.
pub trait Workload {
    /// Replays the script once. With a recording tracer the round also
    /// replays each layer on its own (see the workload's module).
    ///
    /// # Errors
    ///
    /// A message when the round could not run at all (a port that cannot be
    /// bound, a session that cannot be set up). Ops that fail are counted
    /// in [`Round::failed`] instead.
    fn round(&mut self, tracer: &mut Tracer) -> Result<Round, String>;

    /// Ops per second from the rounds and their per-op best latencies. A
    /// single closed-loop driver completes `ops ÷ Σ best` per second.
    fn ops_per_s(&self, _rounds: &[Round], best_ms: &[f64]) -> f64 {
        best_ms.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3)
    }

    /// This workload's per-layer metrics, from a traced round (they all
    /// counted the same), the traced rounds' per-op best latencies and
    /// their spans. Metrics it does not name read 0.
    fn layers(&self, r: &Round, best_ms: &[f64], tracer: &Tracer) -> Vec<(&'static str, f64)>;
}

/// How long and in which mode to run.
#[derive(Clone, Copy, Debug)]
pub struct RunPlan {
    /// Measure for this long; rounds are started while one more still fits.
    pub seconds: f64,
    /// Alternate untraced and traced rounds and report per-layer metrics.
    pub trace: bool,
    /// Smoke mode: exactly two rounds (or pairs), whatever `seconds` says.
    pub check: bool,
}

/// Everything one run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Whether every check passed and every round agreed with the first.
    pub correct: bool,
    /// Ops attempted in one round.
    pub attempted: u64,
    /// Ops that failed in one round.
    pub failed: u64,
    /// `(name, value, unit)`: end-to-end metrics, or per-layer when traced.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Rounds behind the estimate (untraced ones; as many traced again).
    pub rounds: usize,
    /// Median round wall ÷ best round wall: how loud the machine was.
    pub noise_ratio: f64,
    /// `(max − min) ÷ median` across rounds of each per-round timing.
    pub round_spread: Vec<(&'static str, f64)>,
    /// Exact counts of one round.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Why two rounds of one script disagree, if they do.
fn disagreement(first: &Round, other: &Round) -> Option<String> {
    if first.cost_sum.to_bits() != other.cost_sum.to_bits() {
        return Some(format!("cost_sum {} != {}", first.cost_sum, other.cost_sum));
    }
    if first.class != other.class {
        return Some("ops changed class".to_string());
    }
    if (first.embeds, first.failed) != (other.embeds, other.failed) {
        return Some(format!(
            "embeds/failed {}/{} != {}/{}",
            first.embeds, first.failed, other.embeds, other.failed
        ));
    }
    first
        .counts
        .iter()
        .find(|(k, v)| other.counts.get(*k) != Some(v))
        .map(|(k, v)| format!("count {k}: {v} != {:?}", other.counts.get(k)))
        .or_else(|| {
            (first.counts.len() != other.counts.len()).then(|| "different count keys".to_string())
        })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` under `plan` and reduces the rounds to a [`Report`].
/// With `plan.trace` the spans end up in `tracer`.
///
/// # Errors
///
/// The first round that could not run.
pub fn drive(
    workload: &mut dyn Workload,
    plan: RunPlan,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(plan.seconds);
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let pass = Instant::now();
        plain.push(workload.round(&mut Tracer::off())?);
        if plan.trace {
            tracer.set_round(traced.len() as u32);
            traced.push(workload.round(tracer)?);
        }
        longest = longest.max(pass.elapsed());
        let enough = plain.len() >= 2;
        let fits = started.elapsed() + longest <= budget;
        if enough && (plan.check || !fits) {
            break;
        }
    }

    let first = &plain[0];
    let mut correct = first.failed == 0;
    for (i, other) in plain.iter().chain(&traced).enumerate().skip(1) {
        if let Some(why) = disagreement(first, other) {
            eprintln!("round {i} disagrees with round 0: {why}");
            correct = false;
        }
    }
    let fact_bits = |r: &Round| -> Vec<(&'static str, u64)> {
        r.facts.iter().map(|(k, v)| (*k, v.to_bits())).collect()
    };
    for (i, other) in traced.iter().enumerate().skip(1) {
        if fact_bits(&traced[0]) != fact_bits(other) {
            eprintln!("traced round {i} observed other facts than traced round 0");
            correct = false;
        }
    }

    let plain_best = best_of(plain.iter().map(|r| r.op_ms.as_slice()));
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let best_wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let per_round = |f: &dyn Fn(&Round) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let round_spread = vec![
        ("setup_s", spread(&per_round(&|r| r.setup_s()))),
        ("wall_s", spread(&walls)),
        ("op_ms_p50", spread(&per_round(&|r| median(&r.op_ms)))),
        (
            "op_ms_p95",
            spread(&per_round(&|r| percentile(&r.op_ms, 0.95))),
        ),
    ];

    let metrics = if plan.trace {
        let traced_best = best_of(traced.iter().map(|r| r.op_ms.as_slice()));
        let mut values: BTreeMap<&str, f64> = workload
            .layers(&traced[0], &traced_best, tracer)
            .into_iter()
            .collect();
        values.insert("trace.op_ms", mean(&traced_best));
        values.insert(
            "trace.overhead_ratio",
            traced_best.iter().sum::<f64>() / plain_best.iter().sum::<f64>(),
        );
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == *name),
                "layer metric {name} is not in the table"
            );
        }
        PER_LAYER
            .iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                (d.name.to_string(), v, d.unit)
            })
            .collect()
    } else {
        // Set-up is estimated like the ops: the best of each step.
        let setup: f64 = best_of(plain.iter().map(|r| r.setup_steps.as_slice()))
            .iter()
            .sum();
        let value = |name: &str| match name {
            "setup_s" => setup,
            "ops_per_s" => workload.ops_per_s(&plain, &plain_best),
            "op_ms_p50" => median(&plain_best),
            "op_ms_p95" => percentile(&plain_best, 0.95),
            "cost_mean" => first.cost_sum / first.embeds.max(1) as f64,
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), value(d.name), d.unit))
            .collect()
    };

    Ok(Report {
        correct,
        attempted: first.op_ms.len() as u64,
        failed: first.failed,
        metrics,
        rounds: plain.len(),
        noise_ratio: median(&walls) / best_wall,
        round_spread,
        counts: first.counts.clone(),
    })
}

impl Report {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Value {
        let mut metrics = Value::table();
        for (name, value, unit) in &self.metrics {
            let mut m = Value::table();
            m.set("value", Value::Float(*value));
            m.set("unit", Value::Str((*unit).to_string()));
            metrics.set(name, m);
        }
        let mut line = Value::table();
        line.set("correct", Value::Bool(self.correct));
        line.set("attempted", Value::Int(self.attempted as i64));
        line.set("failed", Value::Int(self.failed as i64));
        line.set("metrics", metrics);
        line
    }

    /// The full record `--out` stores: the result line's content plus the
    /// noise self-report and the exact counts, for `compare` and for the
    /// reader of a later A/B.
    pub fn record(&self, workload: &str, seed: u64) -> Value {
        let mut rec = self.result_line();
        rec.set("workload", Value::Str(workload.to_string()));
        rec.set("seed", Value::Int(seed as i64));
        rec.set("rounds", Value::Int(self.rounds as i64));
        rec.set("noise_ratio", Value::Float(self.noise_ratio));
        let mut spreads = Value::table();
        for (name, v) in &self.round_spread {
            spreads.set(name, Value::Float(*v));
        }
        rec.set("round_spread", spreads);
        let mut counts = Value::table();
        for (name, v) in &self.counts {
            counts.set(name, Value::Int(*v as i64));
        }
        rec.set("counts", counts);
        rec
    }

    /// Every metric by name with its unit, then the noise self-report.
    pub fn print_human(&self, workload: &str) {
        println!("workload {workload}: {} rounds", self.rounds);
        for (name, value, unit) in &self.metrics {
            let better = better_of(name).as_str();
            println!("  {name:<32} {value:>16.6} {unit:<6} ({better} is better)");
        }
        println!(
            "  noise_ratio {:.4} (median round wall / best round wall)",
            self.noise_ratio
        );
        for (name, v) in &self.round_spread {
            println!("  spread across rounds: {name:<12} {:.4}", v);
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three ops whose latencies the test dictates round by round.
    struct Scripted {
        rounds: Vec<Vec<f64>>,
        next: usize,
        cost: Vec<f64>,
    }

    impl Workload for Scripted {
        fn round(&mut self, _tracer: &mut Tracer) -> Result<Round, String> {
            let call = self.next;
            let i = call.min(self.rounds.len() - 1);
            self.next += 1;
            let mut r = Round {
                setup_steps: vec![0.5 + i as f64, 0.25 - 0.125 * i as f64],
                wall_s: self.rounds[i].iter().sum::<f64>() / 1e3,
                op_ms: self.rounds[i].clone(),
                cost_sum: self.cost[call.min(self.cost.len() - 1)],
                embeds: 3,
                ..Round::default()
            };
            r.count("calls", 7);
            Ok(r)
        }

        fn layers(&self, _: &Round, _: &[f64], _: &Tracer) -> Vec<(&'static str, f64)> {
            vec![("core.rest_ms", 1.5)]
        }
    }

    fn check_plan(trace: bool) -> RunPlan {
        RunPlan {
            seconds: 0.0,
            trace,
            check: true,
        }
    }

    #[test]
    fn end_to_end_values_come_from_per_op_minima() {
        let mut w = Scripted {
            rounds: vec![vec![10.0, 40.0, 20.0], vec![12.0, 30.0, 10.0]],
            next: 0,
            cost: vec![60.0],
        };
        let report = drive(&mut w, check_plan(false), &mut Tracer::off()).unwrap();
        assert!(report.correct);
        assert_eq!((report.rounds, report.attempted, report.failed), (2, 3, 0));
        let get = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        // best = [10, 30, 10]
        assert_eq!(get("op_ms_p50"), 10.0);
        assert_eq!(get("op_ms_p95"), 30.0);
        assert_eq!(get("ops_per_s"), 3.0 / 0.05);
        // steps [0.5, 0.25] and [1.5, 0.125]: the best of each
        assert_eq!(get("setup_s"), 0.625);
        assert_eq!(get("cost_mean"), 20.0);
        assert!(get("peak_rss_mb") > 0.0);
        let names: Vec<_> = report.metrics.iter().map(|m| m.0.as_str()).collect();
        let table: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, table);
        assert_eq!(report.noise_ratio, 0.07 / 0.052);
    }

    #[test]
    fn a_round_with_another_cost_makes_the_run_incorrect() {
        let mut w = Scripted {
            rounds: vec![vec![1.0, 1.0, 1.0]],
            next: 0,
            cost: vec![60.0, 60.000000001],
        };
        let report = drive(&mut w, check_plan(false), &mut Tracer::off()).unwrap();
        assert!(!report.correct);
    }

    #[test]
    fn traced_runs_print_every_layer_metric_and_zero_the_rest() {
        let mut w = Scripted {
            rounds: vec![vec![2.0, 2.0, 2.0]],
            next: 0,
            cost: vec![6.0],
        };
        let mut tracer = Tracer::new(Instant::now());
        let report = drive(&mut w, check_plan(true), &mut tracer).unwrap();
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        let get = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(get("core.rest_ms"), 1.5);
        assert_eq!(get("trace.op_ms"), 2.0);
        assert_eq!(get("trace.overhead_ratio"), 1.0);
        assert_eq!(get("daemon.parse_us"), 0.0);
        let line = report.result_line();
        let Value::Table(keys) = &line else {
            panic!("result line is a table")
        };
        let keys: Vec<_> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
