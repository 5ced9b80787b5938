//! `compare A.json B.json`: how the records of run B differ from run A's,
//! per workload and end-to-end metric, against each metric's bound.

use crate::metrics::{Better, END_TO_END};
use sof_spec::value::{parse_json, Value};
use std::path::Path;

/// One workload × metric pairing of the two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// What was compared: a metric name, or `exact` for the counts.
    pub what: String,
    /// A's and B's values.
    pub values: (f64, f64),
    /// By how much of A's value B is worse (negative: better).
    pub worse_by: f64,
    /// Whether that is within the bound.
    pub inside: bool,
}

fn records(file: &Value) -> Result<&[Value], String> {
    match file.get("workloads") {
        Some(Value::Array(rows)) => Ok(rows),
        _ => Err("no 'workloads' array (is this an --out file?)".into()),
    }
}

fn text<'a>(record: &'a Value, key: &str) -> Option<&'a str> {
    match record.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn metric(record: &Value, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares every untraced record of `a` with the record of the same
/// workload in `b`. With equal seeds the two runs replayed the same
/// scripts, so cost and every exact count must be identical as well.
///
/// # Errors
///
/// A record of `a` that `b` lacks, or a file of another shape.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let untraced = |r: &&Value| metric(r, END_TO_END[0].name).is_some();
    for ra in records(a)?.iter().filter(untraced) {
        let workload = text(ra, "workload").ok_or("a record without a workload name")?;
        let rb = records(b)?
            .iter()
            .filter(untraced)
            .find(|r| text(r, "workload") == Some(workload))
            .ok_or(format!("{workload} is missing from the second file"))?;
        for def in END_TO_END {
            let (va, vb) = match (metric(ra, def.name), metric(rb, def.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{workload}: {} is missing", def.name)),
            };
            let rel = (vb - va) / va;
            let worse_by = match def.better {
                Better::Lower => rel,
                Better::Higher => -rel,
            };
            rows.push(Row {
                workload: workload.to_string(),
                what: def.name.to_string(),
                values: (va, vb),
                worse_by,
                inside: worse_by <= def.bound,
            });
        }
        if ra.get("seed") == rb.get("seed") {
            let same = ["counts", "attempted", "failed"]
                .iter()
                .all(|key| ra.get(key) == rb.get(key));
            let (ca, cb) = (metric(ra, "cost_mean"), metric(rb, "cost_mean"));
            rows.push(Row {
                workload: workload.to_string(),
                what: "exact".into(),
                values: (ca.unwrap_or(0.0), cb.unwrap_or(0.0)),
                worse_by: 0.0,
                inside: same && ca.map(f64::to_bits) == cb.map(f64::to_bits),
            });
        }
    }
    Ok(rows)
}

/// Reads two `--out` files, prints the comparison and returns whether
/// everything is inside its bound.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(&read(a)?, &read(b)?)?;
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for row in &rows {
        let verdict = match (row.what.as_str(), row.inside) {
            ("exact", true) => "cost and counts identical",
            ("exact", false) => "COST OR COUNTS DIFFER",
            (_, true) => "inside bound",
            (_, false) => "OUTSIDE BOUND",
        };
        println!(
            "{:<16} {:<12} {:>16.6} {:>16.6} {:>8.2}%  {verdict}",
            row.workload,
            row.what,
            row.values.0,
            row.values.1,
            row.worse_by * 100.0
        );
    }
    Ok(rows.iter().all(|r| r.inside))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Report;

    /// An `--out` file with one record whose timings are scaled by
    /// `slowdown` (throughput by its inverse).
    fn file(slowdown: f64, seed: u64, cost: f64) -> Value {
        let report = Report {
            correct: true,
            attempted: 200,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.5 * slowdown, "s"),
                ("ops_per_s".into(), 40.0 / slowdown, "1/s"),
                ("op_ms_p50".into(), 20.0 * slowdown, "ms"),
                ("op_ms_p95".into(), 50.0 * slowdown, "ms"),
                ("cost_mean".into(), cost, "cost"),
                ("peak_rss_mb".into(), 100.0, "MB"),
            ],
            rounds: 4,
            noise_ratio: 1.0,
            round_spread: vec![],
            counts: [("engine.hits", 7)].into_iter().collect(),
        };
        let mut file = Value::table();
        file.set(
            "workloads",
            Value::Array(vec![report.record("oneshot-kstroll", seed)]),
        );
        file
    }

    fn bound(name: &str) -> f64 {
        END_TO_END.iter().find(|d| d.name == name).unwrap().bound
    }

    #[test]
    fn a_regression_past_the_bound_is_flagged_and_one_short_of_it_passes() {
        let base = file(1.0, 13, 14.5);
        let over = compare(&base, &file(1.0 + bound("op_ms_p50") + 0.01, 13, 14.5)).unwrap();
        let flagged: Vec<_> = over.iter().filter(|r| !r.inside).map(|r| &r.what).collect();
        assert!(flagged.iter().any(|w| *w == "op_ms_p50"), "{flagged:?}");
        assert!(flagged.iter().any(|w| *w == "op_ms_p95"), "{flagged:?}");

        let under = compare(&base, &file(1.0 + bound("op_ms_p50") - 0.01, 13, 14.5)).unwrap();
        assert!(under.iter().all(|r| r.inside), "{under:?}");
        // Getting faster is never a regression, however far.
        let faster = compare(&base, &file(0.5, 13, 14.5)).unwrap();
        assert!(faster.iter().all(|r| r.inside));
    }

    #[test]
    fn throughput_is_worse_when_it_falls() {
        let rows = compare(&file(1.0, 13, 14.5), &file(1.5, 13, 14.5)).unwrap();
        let ops = rows.iter().find(|r| r.what == "ops_per_s").unwrap();
        assert!((ops.worse_by - (1.0 - 1.0 / 1.5)).abs() < 1e-12);
        assert!(!ops.inside);
    }

    #[test]
    fn with_one_seed_the_cost_must_be_identical() {
        let drifted = compare(&file(1.0, 13, 14.5), &file(1.0, 13, 14.500000001)).unwrap();
        let exact = drifted.iter().find(|r| r.what == "exact").unwrap();
        assert!(!exact.inside);
        // Other seeds are other inputs: only the bound applies.
        let other_seed = compare(&file(1.0, 13, 14.5), &file(1.0, 14, 14.6)).unwrap();
        assert!(other_seed.iter().all(|r| r.inside && r.what != "exact"));
    }

    #[test]
    fn a_workload_missing_from_b_is_an_error() {
        let mut empty = Value::table();
        empty.set("workloads", Value::Array(vec![]));
        assert!(compare(&file(1.0, 13, 14.5), &empty).is_err());
    }
}
