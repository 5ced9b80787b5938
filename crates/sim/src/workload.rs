//! Online-deployment workload generation (Fig. 12's request streams).

use sof_core::{Request, ServiceChain};
use sof_graph::{NodeId, Rng64};

/// Generator parameters for one network (§VIII-A online setup).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Inclusive range of candidate-source counts per request.
    pub sources: (usize, usize),
    /// Inclusive range of destination counts per request.
    pub destinations: (usize, usize),
    /// Demanded chain length (paper: 3).
    pub chain_len: usize,
    /// Per-request demand (Mbps; paper: 5).
    pub demand_mbps: f64,
}

impl WorkloadParams {
    /// The paper's SoftLayer online setup: |D| ∈ [13,17], |S| ∈ [8,12].
    pub fn softlayer() -> WorkloadParams {
        WorkloadParams {
            sources: (8, 12),
            destinations: (13, 17),
            chain_len: 3,
            demand_mbps: 5.0,
        }
    }

    /// The paper's Cogent online setup: |D| ∈ [20,60], |S| ∈ [10,30].
    pub fn cogent() -> WorkloadParams {
        WorkloadParams {
            sources: (10, 30),
            destinations: (20, 60),
            chain_len: 3,
            demand_mbps: 5.0,
        }
    }
}

/// Streams random multicast requests over a pool of access nodes.
#[derive(Clone, Debug)]
pub struct RequestStream {
    params: WorkloadParams,
    pool: Vec<NodeId>,
    rng: Rng64,
}

impl RequestStream {
    /// Creates a stream over the access nodes `0..access_nodes`.
    ///
    /// # Panics
    ///
    /// Panics when `access_nodes < 2` (a request needs at least one source
    /// and one disjoint destination).
    pub fn new(params: WorkloadParams, access_nodes: usize, seed: u64) -> RequestStream {
        RequestStream::over_pool(params, (0..access_nodes).map(NodeId::new).collect(), seed)
    }

    /// Creates a stream drawing from an explicit node pool instead of
    /// `0..n` — e.g. the access nodes of one region of a
    /// multi-region topology. Draw sequences over the identity pool are
    /// identical to [`RequestStream::new`].
    ///
    /// # Panics
    ///
    /// Panics when the pool holds fewer than 2 nodes.
    pub fn over_pool(params: WorkloadParams, pool: Vec<NodeId>, seed: u64) -> RequestStream {
        assert!(
            pool.len() >= 2,
            "request stream needs at least 2 pool nodes, got {}",
            pool.len()
        );
        RequestStream {
            params,
            pool,
            rng: Rng64::seed_from(seed),
        }
    }

    /// Draws the next request. Destinations are drawn first; the source
    /// count is capped by the remaining pool (on SoftLayer the paper's
    /// ranges |S| ≤ 12, |D| ≤ 17 can exceed the 27 access nodes, so the
    /// sets would otherwise overlap). Both counts are clamped to at least
    /// one, so a `(0, k)` range can never produce a viewerless group or
    /// a sourceless request.
    pub fn next_request(&mut self) -> Request {
        let n = self.pool.len();
        let d = self
            .rng
            .range(self.params.destinations.0, self.params.destinations.1 + 1)
            .clamp(1, n - 1);
        let s = self
            .rng
            .range(self.params.sources.0, self.params.sources.1 + 1)
            .clamp(1, n - d);
        let picks = self.rng.sample_indices(n, s + d);
        Request::new(
            picks[..s].iter().map(|&i| self.pool[i]).collect(),
            picks[s..].iter().map(|&i| self.pool[i]).collect(),
            ServiceChain::with_len(self.params.chain_len),
        )
    }

    /// The configured per-request demand.
    pub fn demand(&self) -> f64 {
        self.params.demand_mbps
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

/// Parameters for a viewer-churn stream: one long-lived multicast group
/// whose destination set mutates between arrivals (sources and chain stay
/// fixed). This is the workload the incremental `OnlineSession` engine is
/// built for — each event is a handful of §VII-C joins/leaves instead of a
/// fresh request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnParams {
    /// Draws the initial request (and fixes demand/chain length).
    pub base: WorkloadParams,
    /// Inclusive range of destinations leaving per event.
    pub leaves: (usize, usize),
    /// Inclusive range of destinations joining per event.
    pub joins: (usize, usize),
}

impl ChurnParams {
    /// SoftLayer churn: the paper's group sizes with 1–3 viewers coming
    /// and going per arrival.
    pub fn softlayer() -> ChurnParams {
        ChurnParams {
            base: WorkloadParams::softlayer(),
            leaves: (1, 3),
            joins: (1, 3),
        }
    }

    /// Cogent churn: larger groups, 2–5 viewers of churn per arrival.
    pub fn cogent() -> ChurnParams {
        ChurnParams {
            base: WorkloadParams::cogent(),
            leaves: (2, 5),
            joins: (2, 5),
        }
    }
}

/// Streams successive snapshots of one multicast group under viewer churn.
///
/// Every [`ChurnStream::next_request`] returns the **full** request (same
/// sources, same chain, mutated destinations), so consumers diff
/// consecutive snapshots — exactly the contract of `OnlineSession::arrive`.
#[derive(Clone, Debug)]
pub struct ChurnStream {
    params: ChurnParams,
    current: Request,
    pool: Vec<NodeId>,
    rng: Rng64,
}

impl ChurnStream {
    /// Creates a stream over `access_nodes` access nodes; the initial
    /// group is drawn exactly like [`RequestStream`] would.
    pub fn new(params: ChurnParams, access_nodes: usize, seed: u64) -> ChurnStream {
        ChurnStream::over_pool(params, (0..access_nodes).map(NodeId::new).collect(), seed)
    }

    /// Creates a stream whose viewers come and go within an explicit node
    /// pool (e.g. one region plus a few roamed-in foreign nodes). Draw
    /// sequences over the identity pool are identical to
    /// [`ChurnStream::new`].
    pub fn over_pool(params: ChurnParams, pool: Vec<NodeId>, seed: u64) -> ChurnStream {
        let mut base = RequestStream::over_pool(params.base, pool, seed);
        let current = base.next_request();
        ChurnStream {
            params,
            current,
            pool: base.pool,
            rng: base.rng,
        }
    }

    /// The group snapshot most recently handed out.
    pub fn current(&self) -> &Request {
        &self.current
    }

    /// The configured per-request demand.
    pub fn demand(&self) -> f64 {
        self.params.base.demand_mbps
    }

    /// Applies one churn event and returns the new snapshot.
    ///
    /// Pinned semantics, in order:
    ///
    /// 1. **Departures first.** Leavers are removed before joiners are
    ///    drawn, and the leave count is capped at `len − 1` — the group
    ///    never empties, so every snapshot stays a valid request.
    /// 2. **Leavers can rejoin.** The free pool is computed *after* the
    ///    leaves, so a node that departed this event is immediately
    ///    eligible to join again (a viewer flapping between snapshots).
    /// 3. **Exhausted pool shrinks the join, never the stream.** When
    ///    fewer free nodes remain than the drawn join count, the join is
    ///    capped at the free count (down to zero) — the stream keeps
    ///    producing snapshots instead of panicking or ending.
    pub fn next_request(&mut self) -> Request {
        let mut dests = self.current.destinations.clone();
        let leave = self
            .rng
            .range(self.params.leaves.0, self.params.leaves.1 + 1)
            .min(dests.len().saturating_sub(1));
        for _ in 0..leave {
            let i = self.rng.range(0, dests.len());
            dests.swap_remove(i);
        }
        let free: Vec<NodeId> = self
            .pool
            .iter()
            .copied()
            .filter(|n| !dests.contains(n) && !self.current.sources.contains(n))
            .collect();
        let join = self
            .rng
            .range(self.params.joins.0, self.params.joins.1 + 1)
            .min(free.len());
        let picked = self.rng.sample_indices(free.len(), join);
        dests.extend(picked.into_iter().map(|i| free[i]));
        self.current = Request::new(
            self.current.sources.clone(),
            dests,
            self.current.chain.clone(),
        );
        self.current.clone()
    }
}

impl Iterator for ChurnStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_within_ranges() {
        let mut stream = RequestStream::new(WorkloadParams::softlayer(), 27, 1);
        for _ in 0..50 {
            let r = stream.next_request();
            assert!(r.sources.len() <= 12 && r.sources.len() >= 8.min(27 - r.destinations.len()));
            assert!((13..=17).contains(&r.destinations.len()));
            assert_eq!(r.chain.len(), 3);
            // Sources and destinations must be disjoint.
            for s in &r.sources {
                assert!(!r.destinations.contains(s));
            }
        }
    }

    #[test]
    fn churn_keeps_sources_and_mutates_destinations() {
        let mut stream = ChurnStream::new(ChurnParams::softlayer(), 27, 3);
        let initial = stream.current().clone();
        let mut changed = false;
        let mut prev = initial.clone();
        for _ in 0..30 {
            let r = stream.next_request();
            assert_eq!(r.sources, initial.sources, "sources must stay fixed");
            assert_eq!(r.chain.len(), initial.chain.len());
            assert!(!r.destinations.is_empty());
            for d in &r.destinations {
                assert!(!r.sources.contains(d), "viewer on a source node");
            }
            let mut sorted = r.destinations.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), r.destinations.len(), "duplicate viewers");
            changed |= r.destinations != prev.destinations;
            prev = r;
        }
        assert!(changed, "thirty events never churned the group");
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let a: Vec<Request> = ChurnStream::new(ChurnParams::cogent(), 190, 8)
            .take(6)
            .collect();
        let b: Vec<Request> = ChurnStream::new(ChurnParams::cogent(), 190, 8)
            .take(6)
            .collect();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.destinations, y.destinations);
        }
    }

    #[test]
    fn zero_ranges_never_produce_empty_sides() {
        // A (0, k) destination or source range used to produce viewerless
        // groups (rejected downstream by `SofInstance::new`) or trip the
        // "no room left for sources" assert; both counts now clamp to 1.
        let params = WorkloadParams {
            sources: (0, 2),
            destinations: (0, 3),
            chain_len: 1,
            demand_mbps: 1.0,
        };
        let mut stream = RequestStream::new(params, 6, 5);
        for _ in 0..200 {
            let r = stream.next_request();
            assert!(!r.sources.is_empty(), "sourceless request");
            assert!(!r.destinations.is_empty(), "viewerless request");
        }
        // Same guarantee at the tightest legal pool (1 source + 1 viewer).
        let mut tight = RequestStream::new(params, 2, 5);
        for _ in 0..50 {
            let r = tight.next_request();
            assert_eq!(r.sources.len(), 1);
            assert_eq!(r.destinations.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 pool nodes")]
    fn one_node_pool_is_rejected() {
        RequestStream::new(WorkloadParams::softlayer(), 1, 0);
    }

    #[test]
    fn churn_departs_before_arrivals_and_leavers_can_rejoin() {
        // 4-node pool: 1 source + all 3 remaining nodes are viewers, so
        // the free pool *before* departures is always empty. With 2
        // leaves + 2 joins per event the group only holds its size
        // because joiners are drawn after the leaves (the two leavers
        // immediately rejoin). If joins were drawn first the group would
        // shrink to 1 viewer and stay there.
        let params = ChurnParams {
            base: WorkloadParams {
                sources: (1, 1),
                destinations: (3, 3),
                chain_len: 1,
                demand_mbps: 1.0,
            },
            leaves: (2, 2),
            joins: (2, 2),
        };
        let mut stream = ChurnStream::new(params, 4, 11);
        let full: std::collections::BTreeSet<NodeId> =
            stream.current().destinations.iter().copied().collect();
        assert_eq!(full.len(), 3);
        for _ in 0..60 {
            let r = stream.next_request();
            let now: std::collections::BTreeSet<NodeId> = r.destinations.iter().copied().collect();
            assert_eq!(now, full, "leavers must be eligible to rejoin");
        }
    }

    #[test]
    fn churn_survives_exhausted_pool() {
        // Every non-source node is already a viewer, so the free pool is
        // empty whenever nobody leaves: the drawn join count caps at 0 and
        // the stream keeps producing full-size snapshots indefinitely.
        let params = ChurnParams {
            base: WorkloadParams {
                sources: (1, 1),
                destinations: (5, 5),
                chain_len: 1,
                demand_mbps: 1.0,
            },
            leaves: (0, 1),
            joins: (3, 3),
        };
        let mut stream = ChurnStream::new(params, 6, 2);
        assert_eq!(stream.current().destinations.len(), 5);
        for _ in 0..100 {
            let r = stream.next_request();
            // ≤ 1 leave and joins refill from whatever just freed up.
            assert!((4..=5).contains(&r.destinations.len()));
            for d in &r.destinations {
                assert!(!r.sources.contains(d));
            }
        }
    }

    #[test]
    fn pool_streams_match_identity_pool() {
        // `over_pool` with the identity pool must replay `new` exactly —
        // the existing figure presets depend on unchanged draw sequences.
        let identity: Vec<NodeId> = (0..27).map(NodeId::new).collect();
        let a: Vec<Request> = RequestStream::new(WorkloadParams::softlayer(), 27, 9)
            .take(5)
            .collect();
        let b: Vec<Request> =
            RequestStream::over_pool(WorkloadParams::softlayer(), identity.clone(), 9)
                .take(5)
                .collect();
        assert_eq!(a, b);
        let c: Vec<Request> = ChurnStream::new(ChurnParams::softlayer(), 27, 3)
            .take(5)
            .collect();
        let d: Vec<Request> = ChurnStream::over_pool(ChurnParams::softlayer(), identity, 3)
            .take(5)
            .collect();
        assert_eq!(c, d);
    }

    #[test]
    fn pool_streams_only_use_pool_nodes() {
        let pool: Vec<NodeId> = [40usize, 41, 42, 43, 77, 78, 79].map(NodeId::new).to_vec();
        let params = ChurnParams {
            base: WorkloadParams {
                sources: (1, 2),
                destinations: (2, 3),
                chain_len: 2,
                demand_mbps: 1.0,
            },
            leaves: (1, 2),
            joins: (1, 2),
        };
        let mut stream = ChurnStream::over_pool(params, pool.clone(), 4);
        for _ in 0..40 {
            let r = stream.next_request();
            for n in r.sources.iter().chain(r.destinations.iter()) {
                assert!(pool.contains(n), "{n:?} escaped the pool");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Request> = RequestStream::new(WorkloadParams::softlayer(), 27, 9)
            .take(5)
            .collect();
        let b: Vec<Request> = RequestStream::new(WorkloadParams::softlayer(), 27, 9)
            .take(5)
            .collect();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.sources, y.sources);
            assert_eq!(x.destinations, y.destinations);
        }
    }
}
