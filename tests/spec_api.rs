//! Acceptance tests for the declarative spec layer: preset round trips,
//! strict rejection of malformed specs, golden-report stability, and
//! thread-count-independent reports.

use proptest::prelude::*;
use sof::spec::{presets, run_spec, write_jsonl, RunOptions, ScenarioSpec, Workload};

/// Every bundled preset parses, validates, survives a TOML **and** a JSON
/// round trip unchanged, and keeps its file name as its spec name.
#[test]
fn bundled_presets_round_trip_losslessly() {
    assert!(presets::PRESETS.len() >= 9, "all figures + demos bundled");
    for (name, src) in presets::PRESETS {
        let spec = ScenarioSpec::from_toml(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&spec.name, name);
        let toml_again = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
        assert_eq!(spec, toml_again, "{name}: TOML round trip");
        let json_again = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, json_again, "{name}: JSON round trip");
    }
}

/// Unknown keys anywhere in a spec are rejected, naming the key path.
#[test]
fn unknown_keys_are_rejected_everywhere() {
    for (name, src) in presets::PRESETS {
        let poisoned = format!("{src}\n[workload]\nbogus_key_xyz = 1\n");
        // Appending re-opens [workload]; a duplicate-table conflict or an
        // unknown-key rejection are both hard failures — what must never
        // happen is silent acceptance.
        let err = ScenarioSpec::from_toml(&poisoned)
            .err()
            .unwrap_or_else(|| panic!("{name}: bogus key silently accepted"));
        let msg = err.to_string();
        assert!(
            msg.contains("bogus_key_xyz") || msg.contains("duplicate"),
            "{name}: unhelpful error: {msg}"
        );
    }
}

/// The fig7 golden file stays in lockstep with the engine (the full set is
/// diffed in CI; fig7 is cheap enough for the test suite).
#[test]
fn fig7_matches_its_committed_golden_report() {
    let spec = presets::preset("fig7").unwrap().unwrap();
    let report = run_spec(&spec, &RunOptions::default()).unwrap();
    let golden = std::fs::read_to_string("crates/spec/specs/golden/fig7.jsonl")
        .expect("committed golden file");
    assert_eq!(write_jsonl(&report, false), golden);
}

/// Reports are bit-identical for any worker-thread count.
#[test]
fn spec_reports_are_thread_count_independent() {
    let spec = ScenarioSpec::from_toml(
        r#"
name = "threads"
[params]
vm_count = 10
sources = 4
destinations = 3
[workload]
kind = "sweep"
solvers = ["SOFDA", "eST"]
seeds = 3
seed = 77
[[workload.axes]]
field = "destinations"
values = [2, 3]
"#,
    )
    .unwrap();
    let outputs: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let report = run_spec(
                &spec,
                &RunOptions {
                    threads,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            write_jsonl(&report, false)
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

/// A spec can ask the exact Steiner solver for more terminals than it
/// spans: Dreyfus–Wagner inside SOFDA on Cogent with 20 destinations. The
/// solve is refused with an error, so the sweep leaves that cell empty, as
/// it does for `CPLEX*` past its envelope; the run used to panic.
#[test]
fn an_exact_steiner_spec_past_its_terminal_cap_leaves_the_cell_empty() {
    let spec = ScenarioSpec::from_toml(
        r#"
name = "dw-cap"
[topology]
name = "cogent"
[params]
destinations = 20
[sofda]
steiner = "dreyfus-wagner"
[workload]
kind = "sweep"
solvers = ["SOFDA"]
seeds = 1
[[workload.axes]]
field = "destinations"
values = [4, 20]
"#,
    )
    .unwrap();
    let report = run_spec(&spec, &RunOptions::default()).unwrap();
    let rows: Vec<String> = write_jsonl(&report, false)
        .lines()
        .filter(|line| line.contains("\"type\":\"row\""))
        .map(str::to_owned)
        .collect();
    assert_eq!(rows.len(), 2, "{rows:?}");
    assert!(!rows[0].contains("\"value\":null"), "4 destinations solve");
    assert!(rows[1].contains("\"x\":20.0"), "{}", rows[1]);
    assert!(rows[1].contains("\"value\":null"), "{}", rows[1]);
}

/// An online spec with failure injection runs end to end and reports the
/// injections; the whole scenario lives in the spec alone.
#[test]
fn online_spec_with_failures_runs_from_data_alone() {
    let spec = ScenarioSpec::from_toml(
        r#"
name = "faulty"
[topology]
name = "testbed"
[online]
drift_policy = "cost"
[workload]
kind = "online"
seed = 3
solvers = ["SOFDA"]
[[workload.groups]]
requests = 8
vms_per_dc = 1
churn = { sources = [1, 2], destinations = [2, 4], leaves = [0, 1], joins = [0, 1] }
[workload.failures]
every = 3
"#,
    )
    .unwrap();
    let report = run_spec(&spec, &RunOptions::default()).unwrap();
    let jsonl = write_jsonl(&report, false);
    assert!(jsonl.contains("\"name\":\"vm_failures\""), "{jsonl}");
    let sof::spec::Detail::Online(d) = &report.sections[0].detail else {
        panic!("expected online detail");
    };
    assert!(d.vm_failures >= 1, "failures injected at arrivals 3 and 6");
    let stats = &d.sessions[0].session;
    assert_eq!(
        stats.full_solves + stats.incremental_events + d.failures,
        8,
        "every arrival accounted for"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized specs of every workload kind round-trip losslessly
    /// through TOML and JSON.
    #[test]
    fn random_sweep_specs_round_trip(
        kind in 0usize..7,
        seed in 0u64..100_000,
        seeds in 1u64..9,
        vm_count in 1usize..60,
        chain in 1usize..8,
        axis_len in 1usize..6,
    ) {
        let values: Vec<usize> = (0..axis_len).map(|i| 2 + i * 3).collect();
        let values_str = values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let axis = |table: &str, field: &str| {
            format!("{table}\nfield = \"{field}\"\nvalues = [{values_str}]\n")
        };
        let (name, workload) = match kind {
            0 => ("cost-curve", format!("points = {vm_count}\nstep = 0.{seeds}\n")),
            1 => ("sweep", format!(
                "solvers = [\"SOFDA\"]\nseeds = {seeds}\nseed = {seed}\n{}",
                axis("[[workload.axes]]", "destinations")
            )),
            2 => ("grid", format!(
                "solver = \"eST\"\nseeds = {seeds}\nseed = {seed}\nmetrics = [\"used_vms\"]\n{}{}",
                axis("[workload.rows]", "setup_scale"),
                axis("[workload.cols]", "sources")
            )),
            3 => ("runtime", format!(
                "seed = {seed}\nsizes = [{}]\nsources = [{values_str}]\n",
                10 + vm_count
            )),
            4 => ("qoe", format!("solvers = [\"eST\"]\nseeds = {seeds}\nseed = {seed}\n")),
            5 => ("online", format!(
                "seed = {seed}\n[[workload.groups]]\nrequests = {axis_len}\n\
                 topology = \"testbed\"\nchurn = {{ sources = [1, {chain}], destinations = [2, 3], \
                 chain_len = {chain}, leaves = [0, 1], joins = [0, {axis_len}] }}\n\
                 [workload.failures]\nevery = {chain}\n"
            )),
            _ => ("churn-at-scale", format!(
                "seed = {seed}\ngroups = {vm_count}\nwindow = {seeds}\nmax_seconds = {chain}.5\n\
                 [workload.churn]\nchain_len = {chain}\nlifetime = [{axis_len}, {}]\n\
                 [workload.converge]\npatience = {chain}\n",
                axis_len + vm_count
            )),
        };
        let src = format!(
            "name = \"rand\"\nlabel = \"R {seed}\"\n\
             [params]\nvm_count = {vm_count}\nchain_len = {chain}\n\
             [workload]\nkind = \"{name}\"\n{workload}"
        );
        let spec = ScenarioSpec::from_toml(&src).unwrap();
        prop_assert_eq!(&ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), &spec);
        prop_assert_eq!(&ScenarioSpec::from_json(&spec.to_json()).unwrap(), &spec);
        prop_assert_eq!(spec.workload.kind(), name);
        prop_assert_eq!(spec.params.vm_count, vm_count);
        if kind > 0 {
            prop_assert_eq!(spec.workload.seed(), seed);
        }
        if let Workload::Sweep { seeds: s, ref axes, .. } = spec.workload {
            prop_assert_eq!(s, seeds);
            prop_assert_eq!(&axes[0].values, &values);
        }
    }

    /// Out-of-range numbers are rejected, never silently clamped.
    #[test]
    fn negative_and_zero_values_are_rejected(bad in -9i64..1) {
        let src = format!(
            "name = \"bad\"\n[workload]\nkind = \"sweep\"\n\
             solvers = [\"SOFDA\"]\nseeds = {bad}\n"
        );
        let err = ScenarioSpec::from_toml(&src).unwrap_err().to_string();
        prop_assert!(
            err.contains("seeds"),
            "error should name the key: {}", err
        );
    }
}
