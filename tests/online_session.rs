//! Acceptance tests for the incremental `OnlineSession` engine: on a seeded
//! small instance the incremental path must stay validator-feasible after
//! every event, actually use the incremental operations, and keep its
//! accumulated cost within a bounded factor of the from-scratch path.

use sof::core::{DriftPolicy, EmbedMode, OnlineConfig, OnlineSession, Request, SofdaConfig};
use sof::sim::{ChurnParams, ChurnStream, WorkloadParams};
use sof::topo::{build_instance, softlayer, ScenarioParams};

fn churn_events(count: usize, seed: u64) -> Vec<Request> {
    let params = ChurnParams {
        base: WorkloadParams {
            sources: (4, 6),
            destinations: (6, 9),
            chain_len: 3,
            demand_mbps: 5.0,
        },
        leaves: (1, 2),
        joins: (1, 2),
    };
    let mut stream = ChurnStream::new(params, 27, seed);
    let mut events = vec![stream.current().clone()];
    while events.len() < count {
        events.push(stream.next_request());
    }
    events
}

fn session(mode: EmbedMode, seed: u64) -> OnlineSession {
    let topo = softlayer();
    let mut p = ScenarioParams::paper_defaults().with_seed(seed);
    p.vm_count = topo.dc_nodes.len() * 5;
    p.chain_len = 3;
    OnlineSession::new(
        build_instance(&topo, &p),
        sof::solvers::by_name("SOFDA").expect("registered"),
        SofdaConfig::default().with_seed(seed),
        OnlineConfig::default().with_mode(mode),
    )
}

#[test]
fn incremental_stays_feasible_and_tracks_from_scratch_cost() {
    let events = churn_events(14, 41);
    let mut scratch = session(EmbedMode::FromScratch, 41);
    let mut incremental = session(EmbedMode::Incremental, 41);
    for request in &events {
        scratch.arrive(request.clone()).unwrap();
        incremental.arrive(request.clone()).unwrap();
        // The incremental path's standing forest validates after every event…
        incremental
            .forest()
            .expect("standing forest")
            .validate(incremental.instance())
            .unwrap();
        // …and serves exactly the requested group.
        let mut served: Vec<_> = incremental
            .forest()
            .unwrap()
            .walks
            .iter()
            .map(|w| w.destination)
            .collect();
        served.sort_unstable();
        served.dedup();
        let mut wanted = request.destinations.clone();
        wanted.sort_unstable();
        assert_eq!(served, wanted);
    }
    // The engine really took the incremental path, not rebuild-every-time.
    let st = incremental.stats();
    assert_eq!(st.arrivals, events.len());
    assert!(
        st.incremental_events > st.full_solves,
        "incremental path unused: {st:?}"
    );
    assert_eq!(scratch.stats().full_solves, events.len());
    // Accumulated cost stays within a bounded factor of from-scratch.
    let (inc, scr) = (incremental.accumulated_cost(), scratch.accumulated_cost());
    assert!(inc > 0.0 && scr > 0.0);
    assert!(
        inc <= scr * 2.5 + 1e-6,
        "incremental accumulated {inc} way above from-scratch {scr}"
    );
    assert!(
        scr <= inc * 2.5 + 1e-6,
        "from-scratch accumulated {scr} way above incremental {inc}"
    );
}

#[test]
fn online_session_is_deterministic() {
    let run = || {
        let events = churn_events(8, 17);
        let mut s = session(EmbedMode::Incremental, 17);
        for request in &events {
            s.arrive(request.clone()).unwrap();
        }
        (s.accumulated_cost(), s.stats().full_solves)
    };
    assert_eq!(run(), run());
}

/// Coverage for the churn rule's full-rebuild fallback
/// (`DriftPolicy::ChurnCount`, set explicitly: the default rebuilds on
/// cost): a seeded high-churn stream (3–5 viewers in and out per event
/// against a 6–9 viewer group) with a tight drift threshold of 0.5·|D|
/// **provably** crosses the threshold. The test mirrors the engine's
/// drift arithmetic event by event — whenever accumulated churn since the
/// last solve reaches the threshold the engine *must* rebuild — and
/// checks the standing forest stays feasible after every rebuild.
#[test]
fn high_churn_crosses_drift_threshold_and_rebuilds() {
    let drift = 0.5;
    let params = ChurnParams {
        base: WorkloadParams {
            sources: (4, 6),
            destinations: (6, 9),
            chain_len: 3,
            demand_mbps: 5.0,
        },
        leaves: (3, 5),
        joins: (3, 5),
    };
    let mut stream = ChurnStream::new(params, 27, 97);
    let topo = softlayer();
    let mut p = ScenarioParams::paper_defaults().with_seed(97);
    p.vm_count = topo.dc_nodes.len() * 5;
    p.chain_len = 3;
    let mut session = OnlineSession::new(
        build_instance(&topo, &p),
        sof::solvers::by_name("SOFDA").expect("registered"),
        SofdaConfig::default().with_seed(97),
        OnlineConfig {
            rebuild_drift: drift,
            drift_policy: DriftPolicy::ChurnCount,
            ..OnlineConfig::default()
        },
    );

    let mut prev: Vec<_> = Vec::new();
    let mut churn_since_solve = 0usize;
    let mut predicted_rebuilds = 0usize;
    for step in 0..12 {
        let request = if step == 0 {
            stream.current().clone()
        } else {
            stream.next_request()
        };
        // Mirror the engine's drift bookkeeping: symmetric-difference churn
        // of this event plus churn accumulated since the last full solve.
        let old: std::collections::BTreeSet<_> = prev.iter().copied().collect();
        let new: std::collections::BTreeSet<_> = request.destinations.iter().copied().collect();
        let event_churn = old.symmetric_difference(&new).count();
        let threshold = drift * new.len().max(1) as f64;
        let must_rebuild = step == 0 || (churn_since_solve + event_churn) as f64 >= threshold;

        let report = session.arrive(request.clone()).unwrap();
        if must_rebuild {
            predicted_rebuilds += 1;
            assert!(
                report.rebuilt,
                "step {step}: churn {churn_since_solve}+{event_churn} crossed \
                 {threshold} but the engine did not rebuild"
            );
        }
        churn_since_solve = if report.rebuilt {
            0
        } else {
            churn_since_solve + event_churn
        };
        // Post-rebuild (and post-join/leave) costs stay feasible.
        assert!(report.forest_cost.is_finite() && report.forest_cost > 0.0);
        session
            .forest()
            .expect("standing forest")
            .validate(session.instance())
            .unwrap();
        prev = request.destinations;
    }
    // The stream provably crossed the threshold after the initial embed…
    assert!(
        predicted_rebuilds > 1,
        "high-churn stream never crossed the drift threshold; weaken the scenario"
    );
    // …and the engine's counters agree: every predicted rebuild ran a full
    // solve, and churn-heavy events still left room for incremental work.
    assert!(session.stats().full_solves >= predicted_rebuilds);
    assert!(session.stats().arrivals == 12);
}
