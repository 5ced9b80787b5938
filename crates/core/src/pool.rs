//! Concurrent execution of many independent [`OnlineSession`]s.
//!
//! Online workloads (Fig. 12 at production scale) serve many multicast
//! groups at once; the sessions are fully independent, so a [`SessionPool`]
//! steps them in parallel on `sof_par` workers while keeping results
//! bit-identical to stepping them one by one: session `i` always applies
//! event `i`, and answers come back in session order regardless of the
//! thread count.
//!
//! # Examples
//!
//! ```
//! use sof_core::{
//!     Network, OnlineConfig, OnlineSession, Request, ServiceChain, SessionEvent, SessionPool,
//!     Sofda, SofInstance, SofdaConfig,
//! };
//! use sof_graph::{Cost, Graph, NodeId};
//!
//! let session = |dest: usize| {
//!     let mut g = Graph::with_nodes(8);
//!     for i in 0..8 {
//!         g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8), Cost::new(1.0));
//!     }
//!     let mut net = Network::all_switches(g);
//!     net.make_vm(NodeId::new(2), Cost::new(1.0));
//!     let request = Request::new(
//!         vec![NodeId::new(0)],
//!         vec![NodeId::new(dest)],
//!         ServiceChain::with_len(1),
//!     );
//!     let inst = SofInstance::new(net, request).expect("valid instance");
//!     OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), OnlineConfig::default())
//! };
//! let mut pool = SessionPool::new(vec![session(4), session(5)]).with_threads(2);
//! let events: Vec<Option<SessionEvent>> = pool
//!     .sessions()
//!     .iter()
//!     .map(|s| Some(SessionEvent::Arrive(s.instance().request.clone())))
//!     .collect();
//! let reports = pool.apply(&events);
//! assert_eq!(reports.len(), 2);
//! assert!(reports
//!     .iter()
//!     .all(|r| matches!(r, Some(Ok(a)) if a.report().is_some_and(|a| a.rebuilt))));
//! assert!(pool.total_accumulated_cost() > 0.0);
//! ```

use crate::{Applied, OnlineSession, SessionEvent, SolveError};

/// A pool of independent online sessions stepped concurrently.
///
/// `threads = 0` (the default) resolves through
/// [`sof_par::current_threads`] (`--threads` / `SOF_THREADS` / auto).
pub struct SessionPool {
    sessions: Vec<OnlineSession>,
    threads: usize,
}

impl SessionPool {
    /// Wraps `sessions`; thread count resolves automatically.
    pub fn new(sessions: Vec<OnlineSession>) -> SessionPool {
        SessionPool {
            sessions,
            threads: 0,
        }
    }

    /// Pins the worker count (`0` = auto via [`sof_par::current_threads`]).
    pub fn with_threads(mut self, threads: usize) -> SessionPool {
        self.threads = threads;
        self
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Read access to the sessions, in pool order.
    pub fn sessions(&self) -> &[OnlineSession] {
        &self.sessions
    }

    /// Mutable access to the sessions, in pool order (e.g. for a
    /// protection policy's recovery between steps).
    pub fn sessions_mut(&mut self) -> &mut [OnlineSession] {
        &mut self.sessions
    }

    /// Appends a session, returning its slot index.
    pub fn push(&mut self, session: OnlineSession) -> usize {
        self.sessions.push(session);
        self.sessions.len() - 1
    }

    /// Swaps the session in slot `i` for a fresh one, returning the
    /// retired session. Slot indices of other sessions are unchanged, so
    /// long-running drivers can retire finished groups in place while the
    /// pool keeps its size (and its lockstep step shape) constant.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn replace(&mut self, i: usize, session: OnlineSession) -> OnlineSession {
        std::mem::replace(&mut self.sessions[i], session)
    }

    /// Steps the sessions that have an event this round: slot `i` applies
    /// `events[i]` ([`OnlineSession::apply`]) when it is `Some`, and is
    /// left untouched (no cost, no counters) when it is `None`. Answers
    /// come back in slot order with `None` for idle slots, bit-identical
    /// to a sequential sweep for any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `events.len() != self.len()`, or when a session's
    /// solver panics (the worker pool surfaces it after draining cleanly).
    pub fn apply(
        &mut self,
        events: &[Option<SessionEvent>],
    ) -> Vec<Option<Result<Applied, SolveError>>> {
        assert_eq!(
            events.len(),
            self.sessions.len(),
            "one event slot per session"
        );
        sof_par::par_map_mut(&mut self.sessions, self.threads, |i, session| {
            events[i].clone().map(|event| session.apply(event))
        })
        .unwrap_or_else(|e| panic!("session pool: {e}"))
    }

    /// Sum of accumulated costs, folded in pool order (deterministic).
    pub fn total_accumulated_cost(&self) -> f64 {
        self.sessions
            .iter()
            .map(OnlineSession::accumulated_cost)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Element, Network, OnlineConfig, Request, ServiceChain, SofInstance, Sofda, SofdaConfig,
    };
    use sof_graph::{generators, Cost, CostRange, NodeId, Rng64};

    fn session(seed: u64) -> OnlineSession {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(24, 0.18, CostRange::new(1.0, 5.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(24, 9);
        for &v in &picks[..5] {
            net.make_vm(NodeId::new(v), Cost::new(1.0));
        }
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(picks[5]), NodeId::new(picks[6])],
                vec![NodeId::new(picks[7]), NodeId::new(picks[8])],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        OnlineSession::new(
            inst,
            Box::new(Sofda),
            SofdaConfig::default().with_seed(seed),
            OnlineConfig::default(),
        )
    }

    /// One arrival of every session's own request.
    fn arrivals(pool: &SessionPool) -> Vec<Option<SessionEvent>> {
        let arrive = |s: &OnlineSession| SessionEvent::Arrive(s.instance().request.clone());
        pool.sessions().iter().map(|s| Some(arrive(s))).collect()
    }

    fn accumulated_costs(pool: &SessionPool) -> Vec<f64> {
        pool.sessions()
            .iter()
            .map(OnlineSession::accumulated_cost)
            .collect()
    }

    #[test]
    fn pool_matches_sequential_sessions() {
        let seeds = [3u64, 4, 5, 6, 7];
        // Sequential baseline.
        let mut serial_costs = Vec::new();
        for &s in &seeds {
            let mut one = session(s);
            let req = one.instance().request.clone();
            one.arrive(req.clone()).unwrap();
            one.arrive(req).unwrap();
            serial_costs.push(one.accumulated_cost());
        }
        for threads in [1, 2, 8] {
            let mut pool =
                SessionPool::new(seeds.iter().map(|&s| session(s)).collect()).with_threads(threads);
            let events = arrivals(&pool);
            let first = pool.apply(&events);
            assert!(
                first.iter().all(|r| matches!(r, Some(Ok(_)))),
                "threads={threads}"
            );
            pool.apply(&events);
            assert_eq!(accumulated_costs(&pool), serial_costs, "threads={threads}");
            assert_eq!(pool.len(), seeds.len());
        }
    }

    #[test]
    #[should_panic(expected = "one event slot per session")]
    fn mismatched_request_count_panics() {
        let mut pool = SessionPool::new(vec![session(1)]);
        pool.apply(&[]);
    }

    #[test]
    #[should_panic(expected = "one event slot per session")]
    fn arrive_opt_mismatch_panics() {
        // More slots than sessions, all idle: still refused.
        let mut pool = SessionPool::new(vec![session(1)]);
        pool.apply(&[None, None]);
    }

    #[test]
    fn fails_and_repairs_step_like_a_sequential_sweep() {
        // Slots 0 and 2 hold the same instance, so they share its VMs.
        let seeds = [3u64, 4, 3];
        let answers = |threads| {
            let mut pool =
                SessionPool::new(seeds.iter().map(|&s| session(s)).collect()).with_threads(threads);
            pool.apply(&arrivals(&pool));
            let vms = pool.sessions()[0].instance().network.vms();
            let fail = Some(SessionEvent::Fail(vec![
                Element::Vm(vms[0]),
                Element::Vm(vms[1]),
            ]));
            let repair = Some(SessionEvent::Repair(vec![Element::Vm(vms[0])]));
            let failed = pool.apply(&[fail.clone(), None, fail]);
            let repaired = pool.apply(&[repair.clone(), repair, None]);
            let plain = |answers: Vec<Option<Result<Applied, SolveError>>>| {
                let plain = |r: Result<Applied, SolveError>| r.map_err(|e| e.to_string());
                answers
                    .into_iter()
                    .map(|a| a.map(plain))
                    .collect::<Vec<_>>()
            };
            let faults: Vec<usize> = pool
                .sessions()
                .iter()
                .map(|s| s.faults().iter().count())
                .collect();
            (plain(failed), plain(repaired), faults)
        };
        let (failed, repaired, faults) = answers(1);
        assert!(failed[1].is_none() && repaired[2].is_none());
        assert_eq!(failed[0], failed[2], "one instance, one answer");
        assert!(
            matches!(repaired[1], Some(Err(_))),
            "slot 1 never failed anything"
        );
        assert_eq!(faults, vec![1, 0, 2]);
        assert_eq!(answers(4), (failed, repaired, faults));
    }

    #[test]
    fn push_and_replace_keep_slot_order() {
        let mut pool = SessionPool::new(vec![session(1), session(2)]);
        assert_eq!(pool.push(session(3)), 2);
        assert_eq!(pool.len(), 3);
        let req = pool.sessions()[1].instance().request.clone();
        pool.sessions_mut()[1].arrive(req).unwrap();
        let stepped_cost = accumulated_costs(&pool)[1];
        assert!(stepped_cost > 0.0);
        let retired = pool.replace(1, session(9));
        assert_eq!(retired.accumulated_cost(), stepped_cost);
        assert_eq!(accumulated_costs(&pool)[1], 0.0, "fresh session in slot 1");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn idle_slots_are_left_untouched() {
        let seeds = [3u64, 4, 5];
        for threads in [1, 4] {
            let mut pool =
                SessionPool::new(seeds.iter().map(|&s| session(s)).collect()).with_threads(threads);
            let mut events = arrivals(&pool);
            events[0] = None;
            events[2] = None;
            let reports = pool.apply(&events);
            assert!(reports[0].is_none() && reports[2].is_none());
            assert!(reports[1].as_ref().unwrap().is_ok());
            let costs = accumulated_costs(&pool);
            assert_eq!(costs[0], 0.0);
            assert_eq!(costs[2], 0.0);
            assert!(costs[1] > 0.0);
            // The stepped slot matches a solo sequential session.
            let mut solo = session(4);
            let req = solo.instance().request.clone();
            solo.arrive(req).unwrap();
            assert_eq!(costs[1], solo.accumulated_cost(), "threads={threads}");
        }
    }
}
