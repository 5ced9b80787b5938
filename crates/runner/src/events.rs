//! Lazy per-group churn processes: seeded, deterministic, generated on
//! demand.
//!
//! A churn-at-scale run never materializes its event timeline. Each live
//! multicast group owns a [`GroupProcess`] — a finite, seeded stream of
//! viewer-churn snapshots built on [`sof_sim::ChurnStream`] — and the
//! runner pulls one event per group per round. A group's whole history
//! (home region, viewer pool, every snapshot, its lifetime) is a pure
//! function of `(run_seed, group_id)`, so timelines replay bit-identically
//! at any thread count without storing anything but the stream cursors.

use sof_core::Request;
use sof_graph::{NodeId, Rng64};
use sof_sim::{ChurnParams, ChurnStream, WorkloadParams};
use sof_topo::RegionTopology;

/// Churn-process shape shared by every group of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupChurnConfig {
    /// Inclusive range of initial viewer counts.
    pub viewers: (usize, usize),
    /// Inclusive range of candidate-source counts.
    pub sources: (usize, usize),
    /// Demanded chain length.
    pub chain_len: usize,
    /// Per-group demand (Mbps).
    pub demand_mbps: f64,
    /// Inclusive range of viewers leaving per event.
    pub leaves: (usize, usize),
    /// Inclusive range of viewers joining per event.
    pub joins: (usize, usize),
    /// Inclusive range of churn events a group lives through before it
    /// retires (its initial embed is not counted).
    pub lifetime: (u64, u64),
    /// Roaming factor: the group's viewer pool is its home region plus
    /// `round(roam × home_size)` foreign nodes sampled at creation, so
    /// most viewers are regional but some cross region boundaries.
    pub roam: f64,
}

impl Default for GroupChurnConfig {
    fn default() -> GroupChurnConfig {
        GroupChurnConfig {
            viewers: (3, 6),
            sources: (1, 2),
            chain_len: 2,
            demand_mbps: 5.0,
            leaves: (1, 2),
            joins: (1, 2),
            lifetime: (40, 90),
            roam: 0.25,
        }
    }
}

impl GroupChurnConfig {
    /// Checks the configuration without building anything.
    ///
    /// # Errors
    ///
    /// A message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, (lo, hi)) in [
            ("viewers", self.viewers),
            ("sources", self.sources),
            ("leaves", self.leaves),
            ("joins", self.joins),
        ] {
            if lo > hi {
                return Err(format!("churn.{name} range is inverted: ({lo}, {hi})"));
            }
        }
        if self.lifetime.0 > self.lifetime.1 {
            return Err(format!(
                "churn.lifetime range is inverted: ({}, {})",
                self.lifetime.0, self.lifetime.1
            ));
        }
        if self.chain_len == 0 {
            return Err("churn.chain_len must be at least 1".into());
        }
        if !self.demand_mbps.is_finite() || self.demand_mbps <= 0.0 {
            return Err(format!(
                "churn.demand_mbps must be positive, got {}",
                self.demand_mbps
            ));
        }
        if !self.roam.is_finite() || !(0.0..=1.0).contains(&self.roam) {
            return Err(format!("churn.roam must be in [0, 1], got {}", self.roam));
        }
        Ok(())
    }

    fn churn_params(&self) -> ChurnParams {
        ChurnParams {
            base: WorkloadParams {
                sources: self.sources,
                destinations: self.viewers,
                chain_len: self.chain_len,
                demand_mbps: self.demand_mbps,
            },
            leaves: self.leaves,
            joins: self.joins,
        }
    }
}

/// Mixes a run seed and a group id into the group's private seed
/// (SplitMix64 finalizer, so consecutive ids land far apart).
fn group_seed(run_seed: u64, id: u64) -> u64 {
    let mut z = run_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One event pulled from a [`GroupProcess`].
#[derive(Clone, Debug, PartialEq)]
pub enum GroupEvent {
    /// The group's first snapshot: a full embed of the initial request.
    Initial(Request),
    /// A viewer-churn snapshot to diff against the previous one.
    Churn(Request),
}

impl GroupEvent {
    /// The snapshot carried by the event.
    pub fn request(&self) -> &Request {
        match self {
            GroupEvent::Initial(r) | GroupEvent::Churn(r) => r,
        }
    }

    /// Whether this is the group's initial embed.
    pub fn is_initial(&self) -> bool {
        matches!(self, GroupEvent::Initial(_))
    }
}

/// The lazy event stream of one multicast group: home region, roamed
/// viewer pool, initial snapshot, churn snapshots, retirement — all drawn
/// on demand from the group's private seed.
#[derive(Clone, Debug)]
pub struct GroupProcess {
    id: u64,
    home: usize,
    inst_seed: u64,
    started: bool,
    remaining: u64,
    stream: ChurnStream,
}

impl GroupProcess {
    /// Creates group `id`'s process for a run seeded with `run_seed`.
    pub fn new(
        id: u64,
        rt: &RegionTopology,
        cfg: &GroupChurnConfig,
        run_seed: u64,
    ) -> GroupProcess {
        let mut rng = Rng64::seed_from(group_seed(run_seed, id));
        let home = rng.below(rt.region_count());
        let mut pool: Vec<NodeId> = rt.region_nodes(home).to_vec();
        let foreign: Vec<NodeId> = (0..rt.region_count())
            .filter(|&r| r != home)
            .flat_map(|r| rt.region_nodes(r).iter().copied())
            .collect();
        let roamed = ((pool.len() as f64 * cfg.roam).round() as usize).min(foreign.len());
        let picked = rng.sample_indices(foreign.len(), roamed);
        pool.extend(picked.into_iter().map(|i| foreign[i]));
        let remaining = rng.range(
            usize::try_from(cfg.lifetime.0).unwrap_or(usize::MAX),
            usize::try_from(cfg.lifetime.1)
                .unwrap_or(usize::MAX)
                .saturating_add(1),
        ) as u64;
        let inst_seed = rng.next_u64();
        let stream = ChurnStream::over_pool(cfg.churn_params(), pool, rng.next_u64());
        GroupProcess {
            id,
            home,
            inst_seed,
            started: false,
            remaining,
            stream,
        }
    }

    /// The group's global id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The group's home region index.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Seed for the group's network instance (cost draws, VM setup).
    pub fn instance_seed(&self) -> u64 {
        self.inst_seed
    }

    /// The snapshot most recently handed out.
    pub fn current(&self) -> &Request {
        self.stream.current()
    }

    /// Churn events left before the group retires.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Forces the group to retire at its next event (used when a group's
    /// embed fails and the slot must be recycled).
    pub fn retire(&mut self) {
        self.remaining = 0;
    }

    /// Pulls the next event: the initial snapshot first, then one churn
    /// snapshot per call, then `None` forever once the lifetime is spent.
    pub fn next_event(&mut self) -> Option<GroupEvent> {
        if !self.started {
            self.started = true;
            return Some(GroupEvent::Initial(self.stream.current().clone()));
        }
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(GroupEvent::Churn(self.stream.next_request()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_topo::{build_regions, RegionDef, RegionsParams};

    fn topo() -> RegionTopology {
        build_regions(
            &RegionsParams::new(vec![
                RegionDef::new("a", 8, 2),
                RegionDef::new("b", 8, 2),
                RegionDef::new("c", 8, 2),
            ]),
            5,
        )
        .unwrap()
    }

    fn cfg() -> GroupChurnConfig {
        GroupChurnConfig {
            lifetime: (3, 6),
            ..GroupChurnConfig::default()
        }
    }

    fn drain(mut p: GroupProcess) -> Vec<GroupEvent> {
        std::iter::from_fn(move || p.next_event()).collect()
    }

    #[test]
    fn replays_bit_identically_per_id() {
        let rt = topo();
        for id in [0u64, 1, 17] {
            let a = drain(GroupProcess::new(id, &rt, &cfg(), 42));
            let b = drain(GroupProcess::new(id, &rt, &cfg(), 42));
            assert_eq!(a, b, "group {id} did not replay");
            assert!(a[0].is_initial());
            assert!(a[1..].iter().all(|e| !e.is_initial()));
            // lifetime churn events + the initial embed
            assert!((4..=7).contains(&a.len()), "lifetime out of range");
        }
        // Different ids (and different run seeds) diverge.
        let a = drain(GroupProcess::new(0, &rt, &cfg(), 42));
        let b = drain(GroupProcess::new(1, &rt, &cfg(), 42));
        let c = drain(GroupProcess::new(0, &rt, &cfg(), 43));
        assert_ne!(a[0].request(), b[0].request());
        assert_ne!(a[0].request(), c[0].request());
    }

    #[test]
    fn viewers_stay_in_home_plus_roam_pool() {
        let rt = topo();
        let mut zero_roam = cfg();
        zero_roam.roam = 0.0;
        for id in 0..12u64 {
            let p = GroupProcess::new(id, &rt, &zero_roam, 7);
            let home = p.home();
            for ev in drain(p) {
                let r = ev.request();
                for n in r.sources.iter().chain(r.destinations.iter()) {
                    assert_eq!(rt.region_of(*n), home, "roam = 0 node escaped its region");
                }
            }
        }
        // With roam > 0, some group eventually uses a foreign viewer.
        let roamy = GroupChurnConfig { roam: 0.5, ..cfg() };
        let crossed = (0..12u64).any(|id| {
            let p = GroupProcess::new(id, &rt, &roamy, 7);
            let home = p.home();
            drain(p).iter().any(|ev| {
                ev.request()
                    .destinations
                    .iter()
                    .any(|n| rt.region_of(*n) != home)
            })
        });
        assert!(crossed, "roam = 0.5 never placed a foreign viewer");
    }

    #[test]
    fn retire_ends_the_stream() {
        let rt = topo();
        let mut p = GroupProcess::new(3, &rt, &cfg(), 1);
        assert!(p.next_event().unwrap().is_initial());
        p.retire();
        assert_eq!(p.next_event(), None);
        assert_eq!(p.next_event(), None, "retirement is permanent");
    }

    #[test]
    fn validation_rejects_bad_config() {
        let mut c = cfg();
        c.viewers = (5, 2);
        assert!(c.validate().unwrap_err().contains("viewers"));
        let mut c = cfg();
        c.lifetime = (9, 2);
        assert!(c.validate().unwrap_err().contains("lifetime"));
        let mut c = cfg();
        c.chain_len = 0;
        assert!(c.validate().unwrap_err().contains("chain_len"));
        let mut c = cfg();
        c.roam = 1.5;
        assert!(c.validate().unwrap_err().contains("roam"));
        let mut c = cfg();
        c.demand_mbps = 0.0;
        assert!(c.validate().unwrap_err().contains("demand"));
        assert!(cfg().validate().is_ok());
    }
}
