//! `online-inet10k`: one op is one `OnlineSession::arrive` of the next
//! churn snapshot, round-robin over eight SOFDA sessions on a 10 000-node
//! Inet graph.
//!
//! This is the regime the path engine's invalidation tiers were built for
//! (few links repriced per arrival): shortest-path queries are interleaved
//! with congestion repricing, so an arrival meets stale trees and the
//! engine revalidates, repairs or recomputes them. Incremental arrivals
//! decide the median; the arrivals that rebuild decide the tail.
//!
//! Group sizes are smaller than Fig. 12's on purpose. With 20–40 viewers
//! and 2–5 joining and leaving per event, the per-graph cost journal (256
//! records) overflows between two queries of the same tree and the engine
//! never repairs anything: measured 0 partial repairs in 200 events. With
//! 8 viewers, one leaving and one joining per event, it repairs a third to
//! a half of the trees it finds stale, on every seed tried.
//!
//! Exactly one viewer leaves and one joins per event, so a group stays at
//! 8 and a session (default `OnlineConfig`: rebuild once churn reaches
//! twice the group) rebuilds on every eighth arrival, on every seed. With
//! 1–2 leaving and 1–2 joining, 28 to 43 of 200 arrivals rebuilt depending
//! on the seed, and since a rebuild costs twenty incremental arrivals that
//! alone spread `ops_per_s` by 14 % across ten seeds, at any script length.
//! There are eight sessions rather than four because what a forest costs
//! follows where its group sits: with four, `cost_mean` spread by 16 %.

use crate::engine;
use crate::stats::mean;
use crate::trace::Tracer;
use crate::workload::{Round, Scale, SetupClock, Workload};
use sof_core::{OnlineConfig, OnlineSession, Request, Sofda, SofdaConfig};
use sof_graph::ShortestPaths;
use sof_sim::{ChurnParams, ChurnStream, WorkloadParams};
use sof_topo::{build_instance, inet_sized, ScenarioParams};
use std::hint::black_box;
use std::time::Instant;

/// Sizes of the online workload.
#[derive(Clone, Copy, Debug)]
pub struct Online {
    nodes: usize,
    dcs: usize,
    sessions: usize,
    ops: usize,
    seed: u64,
}

const CHURN: ChurnParams = ChurnParams {
    base: WorkloadParams {
        sources: (6, 6),
        destinations: (8, 8),
        chain_len: 3,
        demand_mbps: 5.0,
    },
    leaves: (1, 1),
    joins: (1, 1),
};

impl Online {
    /// `online-inet10k` at the given scale.
    pub fn inet10k(seed: u64, scale: Scale) -> Online {
        let (nodes, dcs) = match scale {
            Scale::Check => (1500, 60),
            _ => (10_000, 400),
        };
        Online {
            nodes,
            dcs,
            sessions: scale.pick(8, 8, 4),
            ops: scale.pick(128, 64, 24),
            seed,
        }
    }

    /// The op script: `(session, snapshot)` pairs, a pure function of the
    /// seed. The first element holds each session's initial group.
    pub fn script(&self) -> (Vec<Request>, Vec<(usize, Request)>) {
        let mut streams: Vec<ChurnStream> = (0..self.sessions)
            .map(|s| {
                let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(s as u64);
                ChurnStream::new(CHURN, self.nodes, seed)
            })
            .collect();
        let initial = streams.iter().map(|s| s.current().clone()).collect();
        let events = (0..self.ops)
            .map(|i| {
                let s = i % self.sessions;
                (s, streams[s].next_request())
            })
            .collect();
        (initial, events)
    }
}

impl Workload for Online {
    fn round(&mut self, tracer: &mut Tracer) -> Result<Round, String> {
        sof_par::set_threads(1);
        let mut round = Round::default();
        let (initial, events) = self.script();

        // Set-up steps: the topology, then each session with its first embed.
        let mut setup = SetupClock::start();
        let topo = inet_sized(self.nodes, self.nodes * 2, self.dcs, self.seed);
        setup.step();
        let mut sessions = Vec::with_capacity(self.sessions);
        for (s, first) in initial.into_iter().enumerate() {
            // The builder draws placeholder endpoints; the first arrival
            // replaces them with the group.
            let params = ScenarioParams {
                vm_count: 40,
                sources: 1,
                destinations: 1,
                chain_len: CHURN.base.chain_len,
                setup_scale: 1.0,
                seed: self
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(100 + s as u64),
            };
            let mut session = OnlineSession::new(
                build_instance(&topo, &params),
                Box::new(Sofda),
                SofdaConfig::default(),
                OnlineConfig::default(),
            );
            session
                .arrive(first)
                .map_err(|e| format!("session {s}: initial embed failed: {e}"))?;
            sessions.push(session);
            setup.step();
        }
        round.setup_steps = setup.steps;

        if tracer.is_on() {
            let network = &sessions[0].instance().network;
            let vm = *network.vms().first().ok_or("network without VMs")?;
            tracer.span("graph.cold_tree", Some(0), |_| {
                black_box(ShortestPaths::from_source(network.graph(), vm));
            });
        }

        for (i, (s, request)) in events.into_iter().enumerate() {
            let session = &mut sessions[s];
            let before = session.instance().network.paths().stats();
            let t = Instant::now();
            let arrived = tracer.span("core.arrive", Some(i as u32), |_| session.arrive(request));
            round.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            engine::count(
                &mut round,
                before,
                session.instance().network.paths().stats(),
            );

            let standing_ok = session
                .forest()
                .is_some_and(|f| f.validate(session.instance()).is_ok());
            match arrived {
                Ok(report) if standing_ok => {
                    round.cost_sum += report.forest_cost;
                    round.embeds += 1;
                    round.count("rebuilt", u64::from(report.rebuilt));
                    round.count("joined", report.joined as u64);
                    round.count("left", report.left as u64);
                    round.class.push(u8::from(report.rebuilt));
                }
                _ => {
                    round.failed += 1;
                    round.class.push(u8::MAX);
                }
            }
        }
        for session in &sessions {
            round.count("reroutes", session.stats().reroutes as u64);
            round.count("fallbacks", session.stats().fallbacks as u64);
        }
        round.wall_s = round.op_ms.iter().sum::<f64>() / 1e3;
        Ok(round)
    }

    fn layers(&self, r: &Round, best_ms: &[f64], tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let cold_tree = tracer.op_ms("graph.cold_tree", 1)[0];
        // Whether op i rebuilds is the same in every round, so the per-op
        // best latencies split by it.
        let split = |rebuilt: bool| r.of_class(best_ms, u8::from(rebuilt));
        let mut out = engine::layers(r, cold_tree);
        out.extend([
            ("online.incremental_ms", mean(&split(false))),
            ("online.rebuild_ms", mean(&split(true))),
            ("online.rebuild_share", r.per_op("rebuilt")),
            ("online.joins_per_op", r.per_op("joined")),
            ("online.leaves_per_op", r.per_op("left")),
            ("online.reroutes", r.counted("reroutes") as f64),
            ("online.fallbacks", r.counted("fallbacks") as f64),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_a_pure_function_of_the_seed() {
        let a = Online::inet10k(13, Scale::Check).script();
        let b = Online::inet10k(13, Scale::Check).script();
        let c = Online::inet10k(14, Scale::Check).script();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.1.len(), 24);
        assert!(a.1.iter().enumerate().all(|(i, (s, _))| *s == i % 4));
        assert_eq!(a.0.len(), 4);
    }
}
