//! Parallel-vs-serial equivalence suite: the parallel layers introduced by
//! `sof_par` — per-seed sweep averaging, the `SessionPool`, and the exact
//! solver's forked branch evaluation — must produce results **identical**
//! to the serial path for any thread count: costs bit-equal, forests
//! structurally equal.
//!
//! Every test runs the same computation at threads ∈ {1, 2, 8} and
//! compares against the 1-thread result with exact (bit-level) equality.
//! Thread counts are passed explicitly (never through the process-global
//! `--threads`/`SOF_THREADS` override) so the tests cannot race each other.

use sof::core::{
    solve_sofda, Network, OnlineConfig, OnlineSession, Request, ServiceChain, ServiceForest,
    SessionEvent, SessionPool, SofInstance, Sofda, SofdaConfig,
};
use sof::exact::solve_exact_with;
use sof::graph::{generators, Cost, CostRange, NodeId, Rng64};
use sof::sim::{ChurnParams, ChurnStream, WorkloadParams};
use sof::spec::oneshot::{average_with, standard_axes, sweep_tables};
use sof::topo::{build_instance, cogent, softlayer, ScenarioParams};

const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn comparison_sweeps_are_thread_count_independent() {
    let topo = softlayer();
    let algos = sof::solvers::comparison_set(false);
    let sweep = |threads: usize| {
        sweep_tables(
            &topo,
            &ScenarioParams::paper_defaults(),
            &SofdaConfig::default(),
            &algos,
            &standard_axes(1),
            2,
            1000,
            threads,
        )
    };
    let serial = sweep(1);
    assert!(!serial.is_empty() && serial.iter().all(|t| !t.rows.is_empty()));
    // Something actually solved: at least one mean cost present.
    assert!(serial
        .iter()
        .flat_map(|t| t.rows.iter().flatten())
        .any(Option::is_some));
    for threads in THREADS {
        let parallel = sweep(threads);
        // SweepTable: PartialEq compares every mean cost bit-for-bit.
        assert_eq!(parallel, serial, "threads={threads}");
    }
}

#[test]
fn average_is_bit_equal_across_thread_counts() {
    let topo = softlayer();
    let make = |seed: u64| {
        let mut p = ScenarioParams::paper_defaults().with_seed(seed);
        p.destinations = 4;
        p.sources = 5;
        p.vm_count = 12;
        build_instance(&topo, &p)
    };
    let sofda = Sofda;
    let (serial_cost, serial_vms, _) =
        average_with(&sofda, 6, 300, &SofdaConfig::default(), make, 1).unwrap();
    for threads in THREADS {
        let (cost, vms, _) =
            average_with(&sofda, 6, 300, &SofdaConfig::default(), make, threads).unwrap();
        // Means fold in seed order, so even the f64 rounding is identical.
        assert_eq!(cost.to_bits(), serial_cost.to_bits(), "threads={threads}");
        assert_eq!(vms.to_bits(), serial_vms.to_bits(), "threads={threads}");
    }
}

fn churn_session(seed: u64) -> (OnlineSession, ChurnStream) {
    let topo = softlayer();
    let mut p = ScenarioParams::paper_defaults().with_seed(seed);
    p.vm_count = topo.dc_nodes.len() * 5;
    p.chain_len = 3;
    let session = OnlineSession::new(
        build_instance(&topo, &p),
        Box::new(Sofda),
        SofdaConfig::default().with_seed(seed),
        OnlineConfig::default(),
    );
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
    (session, ChurnStream::new(params, 27, seed))
}

/// Replays `events` arrivals of per-group churn through a fresh pool of
/// `groups` sessions on `threads` workers; returns per-session accumulated
/// costs and final standing forests.
fn run_pool(groups: u64, events: usize, threads: usize) -> (Vec<f64>, Vec<ServiceForest>) {
    let (sessions, mut streams): (Vec<OnlineSession>, Vec<ChurnStream>) =
        (0..groups).map(|g| churn_session(50 + g)).unzip();
    let mut pool = SessionPool::new(sessions).with_threads(threads);
    for step in 0..events {
        let arrivals: Vec<Option<SessionEvent>> = streams
            .iter_mut()
            .map(|s| {
                let request = if step == 0 {
                    s.current().clone()
                } else {
                    s.next_request()
                };
                Some(SessionEvent::Arrive(request))
            })
            .collect();
        let answers = pool.apply(&arrivals);
        assert!(
            answers.iter().all(|r| matches!(r, Some(Ok(_)))),
            "threads={threads}"
        );
    }
    let sessions = pool.sessions();
    let costs = sessions
        .iter()
        .map(OnlineSession::accumulated_cost)
        .collect();
    let forests = sessions
        .iter()
        .map(|s| s.forest().expect("standing forest").clone())
        .collect();
    (costs, forests)
}

#[test]
fn session_pool_matches_serial_sessions() {
    let (serial_costs, serial_forests) = run_pool(5, 6, 1);
    assert!(serial_costs.iter().all(|&c| c > 0.0));
    for threads in THREADS {
        let (costs, forests) = run_pool(5, 6, threads);
        let bits: Vec<u64> = costs.iter().map(|c| c.to_bits()).collect();
        let serial_bits: Vec<u64> = serial_costs.iter().map(|c| c.to_bits()).collect();
        assert_eq!(bits, serial_bits, "threads={threads}");
        // Structural equality: same walks, same VNF placements.
        assert_eq!(forests, serial_forests, "threads={threads}");
    }
}

fn exact_instance(seed: u64, dests: usize) -> SofInstance {
    let mut rng = Rng64::seed_from(seed);
    let g = generators::gnp_connected(16, 0.2, CostRange::new(1.0, 6.0), &mut rng);
    let mut net = Network::all_switches(g);
    let picks = rng.sample_indices(16, 4 + 2 + dests);
    for &v in &picks[..4] {
        net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
    }
    SofInstance::new(
        net,
        Request::new(
            vec![NodeId::new(picks[4]), NodeId::new(picks[5])],
            picks[6..6 + dests]
                .iter()
                .map(|&i| NodeId::new(i))
                .collect(),
            ServiceChain::with_len(2),
        ),
    )
    .unwrap()
}

#[test]
fn exact_solver_matches_serial_search_exactly() {
    for seed in [2u64, 9, 23] {
        let inst = exact_instance(seed, 5);
        let serial = solve_exact_with(&inst, 200, 1).unwrap();
        serial.forest.validate(&inst).unwrap();
        for threads in THREADS {
            let parallel = solve_exact_with(&inst, 200, threads).unwrap();
            // Identical search: same incumbent, same bound, same node
            // count, structurally identical forest.
            assert_eq!(parallel.cost, serial.cost, "seed={seed} threads={threads}");
            assert_eq!(
                parallel.cost.value().to_bits(),
                serial.cost.value().to_bits(),
                "seed={seed} threads={threads}"
            );
            assert_eq!(parallel.lower_bound, serial.lower_bound);
            assert_eq!(parallel.optimal, serial.optimal);
            assert_eq!(
                parallel.nodes_explored, serial.nodes_explored,
                "seed={seed} threads={threads}: exploration order diverged"
            );
            assert_eq!(
                parallel.forest, serial.forest,
                "seed={seed} threads={threads}"
            );
        }
    }
}

/// The exact k-stroll's work witness on Fig. 9's regime (Cogent, 35 VMs,
/// chain of 4, 14 sources — the first four `oneshot-kstroll` instances at
/// benchmark seed 13): `SolveStats::stroll_nodes` repeats exactly from run
/// to run and at every thread count, and equals, instance by instance, the
/// count the recursive search expanded when the cost-to-go bound landed
/// (614 792 nodes in all; the three bounds it replaced expanded 8 077 924
/// on the same instances). Fails when the bound is weakened — dropping the
/// recursion's `w ∉ {v, t}` exclusion, which keeps every result and so
/// passes every equivalence test, reads 1 633 412 — and when the flattened
/// leaf scan miscounts its leaves, which wall-clock on a shared CI box
/// cannot show.
#[test]
fn stroll_nodes_are_exact_and_under_their_ceiling() {
    const MEASURED: [u64; 4] = [154_351, 144_776, 194_415, 121_250];
    let topo = cogent();
    let instances: Vec<SofInstance> = (0..4)
        .map(|i| {
            build_instance(
                &topo,
                &ScenarioParams {
                    vm_count: 35,
                    sources: 14,
                    destinations: 6,
                    chain_len: 4,
                    setup_scale: 1.0,
                    seed: 13 * 1_000_003 + i,
                },
            )
        })
        .collect();
    let nodes_at = |threads: usize| -> Vec<u64> {
        sof::par::par_map_indexed(&instances, threads, |_, inst| {
            let out = solve_sofda(inst, &SofdaConfig::default()).unwrap();
            out.forest.validate(inst).unwrap();
            out.stats.stroll_nodes
        })
        .unwrap()
    };
    let serial = nodes_at(1);
    assert_eq!(serial, MEASURED, "DFS nodes per instance");
    for threads in THREADS {
        assert_eq!(nodes_at(threads), serial, "threads={threads}");
    }
}

/// Why a chain is, or is not, optimal: `SolveStats::stroll_handovers`
/// counts the k-stroll searches a solve's node budget handed to greedy
/// insertion. It is 0 on every solve of Fig. 9's chain axis (Cogent, paper
/// defaults, chains of 3…7 at seed 2000 — the long end is where the old
/// work estimate gave up on the exact search), so those chains are
/// optimal; a chain of 12 spends the budget, hands the rest over, and
/// still embeds. Both counters repeat exactly at any thread
/// count. Fails when `dfs` never tests the budget (the chain-12 solve
/// does not return in this test's lifetime) and when a spent context
/// keeps searching instead of handing over.
#[test]
fn stroll_handovers_are_zero_on_the_paper_axis_and_count_past_the_budget() {
    let topo = cogent();
    let instances: Vec<SofInstance> = [3, 4, 5, 6, 7, 12]
        .into_iter()
        .map(|chain_len| {
            let mut p = ScenarioParams::paper_defaults().with_seed(2000);
            p.chain_len = chain_len;
            build_instance(&topo, &p)
        })
        .collect();
    let stats_at = |threads: usize| -> Vec<(u64, u64, u64)> {
        sof::par::par_map_indexed(&instances, threads, |_, inst| {
            let out = solve_sofda(inst, &SofdaConfig::default()).unwrap();
            out.forest.validate(inst).unwrap();
            (
                out.stats.stroll_nodes,
                out.stats.stroll_handovers,
                out.cost.total().value().to_bits(),
            )
        })
        .unwrap()
    };
    let serial = stats_at(1);
    assert_eq!(stats_at(4), serial);
    let (paper, long) = serial.split_at(5);
    for (chain_len, &(nodes, handovers, _)) in (3..).zip(paper) {
        assert!(
            nodes > 0 && nodes < sof::kstroll::AUTO_NODE_BUDGET / 4,
            "chain {chain_len}: {nodes} nodes"
        );
        assert_eq!(handovers, 0, "chain {chain_len}");
    }
    // Spent to within the leaves of the one expansion in flight (25 VMs).
    let (nodes, handovers, _) = long[0];
    let past = nodes.checked_sub(sof::kstroll::AUTO_NODE_BUDGET);
    assert!(past.is_some_and(|p| p < 25), "{nodes} nodes");
    assert!(handovers > 0);
}
