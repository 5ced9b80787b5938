//! Acceptance tests for the incremental `OnlineSession` engine: on a seeded
//! small instance the incremental path must stay validator-feasible after
//! every event, actually use the incremental operations, and keep its
//! accumulated cost within a bounded factor of the from-scratch path.

use sof::core::{EmbedMode, OnlineConfig, OnlineSession, Request, SofdaConfig};
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
