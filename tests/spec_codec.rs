//! The one field list per table is the contract (`sof_spec::field`): for
//! every workload kind, a *maximal* spec — every key present, every
//! optional one at a non-default value — round-trips, degrades key by key,
//! and names exactly the keys it emits when it rejects an unknown one. A
//! field added to a reader but not to a writer (or the reverse) cannot
//! happen any more; a field added to a declaration but not to these specs,
//! or not to SPEC_FORMAT.md, fails here.

use sof::spec::value::{parse_json, parse_toml, write_json, write_toml, Value};
use sof::spec::ScenarioSpec;
use std::collections::{BTreeMap, BTreeSet};

/// The tables every kind shares, each key away from its default. (Sizes
/// are picked so that the spec still validates with any one key gone: the
/// specs are parsed here, never run.)
const COMMON: &str = r#"
label = "Max"
title = "every key of every table"
description = "a maximal spec"
topology = { name = "inet", nodes = 6000, links = 13000, dcs = 50, seed = 9 }
params = { vm_count = 9, sources = 3, destinations = 4, chain_len = 2, setup_scale = 1.5 }
sofda = { steiner = "takahashi", stroll = "greedy", shorten = false, source_setup_cost = 0.5 }
online = { drift = 2.5 }
"#;

/// The failure axis of the two kinds that take one; `online` runs one
/// policy and has no domains, `churn-at-scale` compares two policies over a
/// scope that adds domains.
const FAILURES: &str = r#"
[workload.failures]
every = 3
count = 2
process = "periodic"
rate = 0.25
scope = ["link", "vm"]
repair = [1, 4]
policies = ["reactive", "backup-paths"]
seed = 17
events = [{ at = 2, element = "vm:12", repair = 3 }]
"#;

/// `(kind, the [workload] table)`, one per workload kind.
const WORKLOADS: &[(&str, &str)] = &[
    ("cost-curve", "points = 12\nstep = 0.1\ncapacity = 2.0"),
    (
        "sweep",
        r##"solvers = ["SOFDA", "eST"]
seeds = 2
seed = 42
axes = [{ field = "destinations", values = [2, 4], label = "#dests" }]"##,
    ),
    (
        "grid",
        r#"solver = "eST"
seeds = 2
seed = 43
metrics = ["used_vms", "cost"]
rows = { field = "setup_scale", values = [1, 2], label = "multiple" }
cols = { field = "chain_len", values = [2, 3], label = "|C|" }"#,
    ),
    (
        "runtime",
        "solver = \"eST\"\nseed = 44\nsizes = [100, 200]\nsources = [2, 4]",
    ),
    ("qoe", "solvers = [\"SOFDA\"]\nseeds = 3\nseed = 45"),
    (
        "online",
        r#"seed = 46
solvers = ["SOFDA", "eST"]
[[workload.groups]]
requests = 4
scratch = true
vms_per_dc = 2
topology = { name = "inet", nodes = 6000, links = 13000, dcs = 50, seed = 3 }
churn = { sources = [1, 2], destinations = [2, 3], chain_len = 2, demand_mbps = 4.0, leaves = [0, 1], joins = [0, 2] }"#,
    ),
    (
        "churn-at-scale",
        r#"seed = 47
solver = "eST"
groups = 6
events = 60
window = 12
emit = "events"
vms_per_dc = 2
gateway_links = 3
pair_cost = [[1.0, 2.5, 4.0], [2.5, 1.0, 2.0], [4.0, 2.0, 1.0]]
max_seconds = 30.0
regions = [{ name = "us-west", nodes = 6, dcs = 2 }, { name = "eu-north", nodes = 5, dcs = 3 }, { name = "ap-east", nodes = 4, dcs = 2 }]
churn = { viewers = [2, 4], sources = [1, 1], chain_len = 1, demand_mbps = 4.0, leaves = [0, 1], joins = [0, 2], lifetime = [5, 9], roam = 0.5 }
converge = { epsilon = 0.01, patience = 4 }"#,
    ),
];

/// Keys without which the table they sit in does not parse; every other
/// key is optional. (Paths lose their `[i]`; `workload.groups` is the
/// online kind's group list — churn-at-scale's is an optional count.)
const REQUIRED: &str = "name workload topology.name workload.kind \
    workload.axes.field workload.axes.values \
    workload.rows workload.rows.field workload.rows.values \
    workload.cols workload.cols.field workload.cols.values \
    workload.groups workload.groups.requests workload.groups.topology.name \
    workload.groups.churn workload.groups.churn.sources workload.groups.churn.destinations \
    workload.groups.churn.leaves workload.groups.churn.joins \
    workload.regions.name workload.regions.nodes \
    workload.failures.events.at workload.failures.events.element";

/// Optional to the codec (it defaults to `[]`), refused by `validate()`.
const NEEDED_BY_VALIDATE: (&str, &str) = ("sweep", "workload.solvers");

/// Every maximal spec as `(kind, TOML)`.
fn maximal_specs() -> Vec<(&'static str, String)> {
    let spec = |&(kind, workload): &(&'static str, &str)| {
        let failures = match kind {
            "online" => FAILURES
                .replace("process = \"periodic\"", "process = \"poisson\"")
                .replace(
                    "policies = [\"reactive\", \"backup-paths\"]",
                    "policies = [\"standby-forest\"]",
                ),
            "churn-at-scale" => FAILURES.replace(
                "scope = [\"link\", \"vm\"]",
                "scope = [\"link\", \"vm\", \"domain\"]",
            ),
            _ => String::new(),
        };
        let src = format!(
            "name = \"max-{kind}\"\n{COMMON}\n[workload]\nkind = \"{kind}\"\n{workload}\n{failures}"
        );
        (kind, src)
    };
    WORKLOADS.iter().map(spec).collect()
}

/// One step into a [`Value`] tree.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

fn path_string(path: &[Step]) -> String {
    let mut out = String::new();
    for step in path {
        match step {
            Step::Key(k) if out.is_empty() => out.push_str(k),
            Step::Key(k) => out.push_str(&format!(".{k}")),
            Step::Index(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

type Entries = Vec<(String, Value)>;

/// A copy of `root` whose table at `path` went through `edit`.
fn edited(root: &Value, path: &[Step], edit: &dyn Fn(&mut Entries)) -> Value {
    let mut copy = root.clone();
    match (&mut copy, path.split_first()) {
        (Value::Table(entries), None) => edit(entries),
        (Value::Table(entries), Some((Step::Key(k), rest))) => {
            let slot = &mut entries.iter_mut().find(|(key, _)| key == k).unwrap().1;
            *slot = edited(slot, rest, edit);
        }
        (Value::Array(items), Some((Step::Index(i), rest))) => {
            items[*i] = edited(&items[*i], rest, edit);
        }
        (other, step) => panic!("{step:?} into a {}", other.type_name()),
    }
    copy
}

type Tables = Vec<(Vec<Step>, BTreeSet<String>)>;

/// Every table of the tree (tables in arrays included), root first, as
/// `(path, key set)`.
fn tables(v: &Value) -> Tables {
    fn walk(v: &Value, path: &mut Vec<Step>, out: &mut Tables) {
        let children: Vec<(Step, &Value)> = match v {
            Value::Table(entries) => {
                out.push((
                    path.clone(),
                    entries.iter().map(|(k, _)| k.clone()).collect(),
                ));
                let steps = entries.iter().map(|(k, c)| (Step::Key(k.clone()), c));
                steps.collect()
            }
            Value::Array(items) => {
                let child = |(i, c)| (Step::Index(i), c);
                items.iter().enumerate().map(child).collect()
            }
            _ => Vec::new(),
        };
        for (step, child) in children {
            path.push(step);
            walk(child, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(v, &mut Vec::new(), &mut out);
    out
}

/// (a) TOML and JSON round trips are the identity.
#[test]
fn maximal_specs_round_trip() {
    for (kind, src) in maximal_specs() {
        let spec = ScenarioSpec::from_toml(&src).unwrap_or_else(|e| panic!("{kind}: {e}\n{src}"));
        assert_eq!(spec.workload.kind(), kind);
        let toml = spec.to_toml();
        assert_eq!(
            ScenarioSpec::from_toml(&toml).unwrap(),
            spec,
            "{kind}\n{toml}"
        );
        let json = spec.to_json();
        assert_eq!(
            ScenarioSpec::from_json(&json).unwrap(),
            spec,
            "{kind}\n{json}"
        );
        // The Value layer agrees with itself on the emitted tree too.
        let emitted = spec.to_value();
        assert_eq!(
            parse_toml(&write_toml(&emitted)).unwrap(),
            emitted,
            "{kind}"
        );
        assert_eq!(
            parse_json(&write_json(&emitted)).unwrap(),
            emitted,
            "{kind}"
        );
    }
}

/// The specs really are maximal: each spells every key its tables emit. A
/// field added to a declaration fails here until it is added above (and,
/// by the last test, to SPEC_FORMAT.md).
#[test]
fn maximal_specs_spell_every_emitted_key() {
    for (kind, src) in maximal_specs() {
        let key_sets = |v: &Value| -> BTreeMap<String, BTreeSet<String>> {
            let named = |(path, keys): (Vec<Step>, _)| (path_string(&path), keys);
            tables(v).into_iter().map(named).collect()
        };
        let written = key_sets(&parse_toml(&src).unwrap());
        let emitted = key_sets(&ScenarioSpec::from_toml(&src).unwrap().to_value());
        let why = "not maximal (or emits a key it does not read)";
        assert_eq!(written, emitted, "{kind}: {why}");
    }
}

/// (b) Removing any single key either still parses (optional) or reports
/// `'path.key' is required` — and which is which is pinned.
#[test]
fn every_key_is_optional_or_reported_as_required() {
    for (kind, src) in maximal_specs() {
        let original = parse_toml(&src).unwrap();
        for (table, keys) in tables(&original) {
            for key in keys {
                let without = edited(&original, &table, &|t| t.retain(|(k, _)| *k != key));
                let mut full = table.clone();
                full.push(Step::Key(key.clone()));
                let at = path_string(&full);
                let unindexed: String = at
                    .split('[')
                    .map(|s| s.split_once(']').map_or(s, |(_, rest)| rest))
                    .collect();
                let result = ScenarioSpec::from_value(&without);
                let count = unindexed == "workload.groups" && kind != "online";
                if REQUIRED.split_whitespace().any(|k| k == unindexed) && !count {
                    let err = result.expect_err(&at).to_string();
                    assert_eq!(err, format!("'{at}' is required"), "{kind}");
                } else if (kind, at.as_str()) == NEEDED_BY_VALIDATE {
                    let err = result.expect_err(&at).to_string();
                    assert!(
                        err.contains("must name at least one solver"),
                        "{kind}: {err}"
                    );
                } else {
                    result.unwrap_or_else(|e| panic!("{kind}: without optional '{at}': {e}"));
                }
            }
        }
    }
}

/// (c) An unknown key in any table is rejected, and the "valid keys here"
/// it lists are exactly the keys that table emits — reader and writer
/// cannot drift apart.
#[test]
fn unknown_key_errors_list_exactly_the_emitted_keys() {
    for (kind, src) in maximal_specs() {
        let emitted = ScenarioSpec::from_toml(&src).unwrap().to_value();
        for (table, keys) in tables(&emitted) {
            let poisoned = edited(&emitted, &table, &|t| {
                t.push(("zzz_unknown".into(), Value::Int(1)));
            });
            let err = ScenarioSpec::from_value(&poisoned).unwrap_err().to_string();
            let mut bogus = table.clone();
            bogus.push(Step::Key("zzz_unknown".into()));
            let prefix = format!("unknown key '{}' (valid keys here: ", path_string(&bogus));
            let listed = err
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(')'))
                .unwrap_or_else(|| panic!("{kind}: expected \"{prefix}…)\", got \"{err}\""));
            let listed: BTreeSet<String> = listed.split(", ").map(String::from).collect();
            assert_eq!(listed, keys, "{kind}: '{}'", path_string(&table));
        }
    }
}

/// Every key a spec can carry has a table row in SPEC_FORMAT.md: a line
/// whose first cell is a code span ending in the key (`` `seed` ``,
/// `` `[workload.churn]` ``, `` `[[workload.failures.events]]` ``).
#[test]
fn spec_format_md_has_a_row_for_every_key() {
    let doc = std::fs::read_to_string("SPEC_FORMAT.md").expect("SPEC_FORMAT.md at the repo root");
    let documented: BTreeSet<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .map(|span| span.trim_matches(|c| c == '[' || c == ']'))
        .filter_map(|span| span.rsplit('.').next())
        .collect();
    let mut missing = BTreeSet::new();
    for (_, src) in maximal_specs() {
        let emitted = ScenarioSpec::from_toml(&src).unwrap().to_value();
        let keys = tables(&emitted).into_iter().flat_map(|(_, keys)| keys);
        missing.extend(keys.filter(|key| !documented.contains(key.as_str())));
    }
    assert!(
        missing.is_empty(),
        "SPEC_FORMAT.md has no table row for: {missing:?}"
    );
}

/// A document's integers are `i64`, so a seed past `i64::MAX` is one no
/// file can say: `validate()` refuses it by name — it used to be written
/// as `-1`, which the spec's own reader then refused — and the largest
/// seed a file can say reads back as itself.
#[test]
fn integers_a_document_cannot_hold_are_refused_by_name() {
    use sof::spec::overrides::{apply_overrides, Overrides};
    let (_, sweep) = &maximal_specs()[1];
    let mut spec = ScenarioSpec::from_toml(sweep).unwrap();
    let seeded = |seed: u64| Overrides {
        seed: Some(seed),
        ..Overrides::default()
    };
    apply_overrides(&mut spec, &seeded(i64::MAX as u64));
    spec.validate().unwrap();
    assert!(spec.to_json().contains("\"seed\":9223372036854775807"));
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
    for seed in [i64::MAX as u64 + 1, u64::MAX] {
        apply_overrides(&mut spec, &seeded(seed));
        assert_eq!(
            spec.validate().unwrap_err().to_string(),
            "'workload.seed' must be at most 9223372036854775807"
        );
    }
    // The same rule for the other integers that are not sizes of something.
    let (_, scale) = maximal_specs().pop().unwrap();
    for at in [
        "workload.events",
        "workload.window",
        "workload.failures.seed",
    ] {
        let mut spec = ScenarioSpec::from_toml(&scale).unwrap();
        let sof::spec::Workload::ChurnAtScale(s) = &mut spec.workload else {
            panic!("the last maximal spec is churn-at-scale");
        };
        match at {
            "workload.events" => s.events = u64::MAX,
            "workload.window" => s.window = u64::MAX,
            _ => s.failures.as_mut().unwrap().seed = u64::MAX,
        }
        assert_eq!(
            spec.validate().unwrap_err().to_string(),
            format!("'{at}' must be at most 9223372036854775807")
        );
    }
}

/// The one writer's float, escape, separator and key-order rules are the
/// goldens': every committed line parses and writes back as itself. (Fails
/// when floats are formatted with `{}` instead of `{:?}` — `4.0` becomes
/// `4` — or when tables stop keeping insertion order.)
#[test]
fn every_golden_line_reserialises_byte_for_byte() {
    let dir = "crates/spec/specs/golden";
    let mut lines = 0;
    for entry in std::fs::read_dir(dir).expect("the golden directory") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "jsonl") {
            continue;
        }
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            let value = parse_json(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(write_json(&value), line, "{}", path.display());
            lines += 1;
        }
    }
    assert!(lines >= 374, "only {lines} golden lines found");
}
