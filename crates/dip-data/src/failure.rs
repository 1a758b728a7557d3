//! Deterministic fault injection over a recorded workload trace.
//!
//! Elastic replanning is tested (and benchmarked) against *scenarios*:
//! sequences of node kills, restores and capacity additions hitting a
//! training run at known iterations. A [`FailureSchedule`] is such a
//! scenario — either hand-written or generated from a seed — and is a pure
//! function of its inputs: the same seed and base topology always produce
//! the same events and the same sequence of topologies, on any machine.
//! Both the `fig_elastic` bench bin and the root `tests/elastic.rs` suite
//! replay schedules through a planning session: at each change the session
//! is retargeted onto the new topology (`PlanningSession::retarget`) and
//! plans the iteration again, which replans it elastically.

use dip_sim::{ClusterTopology, NodeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fault event. Node indices refer to the *roster*: the base topology's
/// nodes in order, followed by added nodes in the order they were added.
/// Killed nodes keep their roster index so a later [`FaultEvent::Restore`]
/// can bring the same node back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The node at this roster index goes down (no-op when it is already
    /// down, or when it is the last node standing — a cluster never goes
    /// empty).
    Kill(usize),
    /// The node at this roster index comes back (no-op when it is alive).
    Restore(usize),
    /// A fresh node joins the cluster, appended to the roster.
    Add(NodeSpec),
}

/// A fault event pinned to the training iteration it hits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The iteration index (into the replayed trace) at which the event
    /// takes effect, before that iteration is planned.
    pub iteration: usize,
    /// The event.
    pub event: FaultEvent,
}

/// A deterministic sequence of fault events over a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    base: ClusterTopology,
    faults: Vec<ScheduledFault>,
}

impl FailureSchedule {
    /// A schedule from explicit events. Faults are stably sorted by
    /// iteration; events at the same iteration apply in the given order.
    pub fn new(base: ClusterTopology, mut faults: Vec<ScheduledFault>) -> Self {
        faults.sort_by_key(|f| f.iteration);
        Self { base, faults }
    }

    /// A seeded schedule of `events` faults at distinct iterations in
    /// `1..iterations`: kills (while more than one node is alive), restores
    /// (while any node is down) and additions (cloning a random base node),
    /// chosen with a kill-heavy bias. A pure function of its arguments.
    pub fn seeded(base: &ClusterTopology, iterations: usize, events: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let slots: Vec<usize> = (1..iterations).collect();
        let mut picked: Vec<usize> = Vec::new();
        let mut pool = slots;
        for _ in 0..events.min(pool.len()) {
            let i = rng.gen_range(0..pool.len());
            picked.push(pool.swap_remove(i));
        }
        picked.sort_unstable();

        // Simulate the roster while generating, so every event is feasible
        // at its point in the sequence.
        let mut alive: Vec<bool> = vec![true; base.num_nodes()];
        let mut roster: Vec<NodeSpec> = base.nodes().to_vec();
        let mut faults = Vec::with_capacity(picked.len());
        for iteration in picked {
            let alive_count = alive.iter().filter(|&&a| a).count();
            let dead: Vec<usize> = (0..roster.len()).filter(|&i| !alive[i]).collect();
            let choice = rng.gen_range(0..10usize);
            let event = if choice < 5 && alive_count > 1 {
                let victims: Vec<usize> = (0..roster.len()).filter(|&i| alive[i]).collect();
                let victim = victims[rng.gen_range(0..victims.len())];
                alive[victim] = false;
                FaultEvent::Kill(victim)
            } else if choice < 8 && !dead.is_empty() {
                let node = dead[rng.gen_range(0..dead.len())];
                alive[node] = true;
                FaultEvent::Restore(node)
            } else {
                let spec = base.nodes()[rng.gen_range(0..base.num_nodes())];
                roster.push(spec);
                alive.push(true);
                FaultEvent::Add(spec)
            };
            faults.push(ScheduledFault { iteration, event });
        }
        Self {
            base: base.clone(),
            faults,
        }
    }

    /// The base topology the run starts on.
    pub fn base(&self) -> &ClusterTopology {
        &self.base
    }

    /// The scheduled faults, sorted by iteration.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Replays the schedule: for every fault that changes the cluster, the
    /// iteration it hits and the topology in effect from that iteration on.
    /// Infeasible kills (already dead, or the last node standing) and
    /// redundant restores are dropped, so every returned topology is
    /// non-empty and differs from its predecessor.
    pub fn topologies(&self) -> Vec<(usize, ClusterTopology)> {
        let mut alive: Vec<bool> = vec![true; self.base.num_nodes()];
        let mut roster: Vec<NodeSpec> = self.base.nodes().to_vec();
        let mut out = Vec::new();
        for fault in &self.faults {
            let changed = match &fault.event {
                FaultEvent::Kill(node) => {
                    let alive_count = alive.iter().filter(|&&a| a).count();
                    if *node < roster.len() && alive[*node] && alive_count > 1 {
                        alive[*node] = false;
                        true
                    } else {
                        false
                    }
                }
                FaultEvent::Restore(node) => {
                    if *node < roster.len() && !alive[*node] {
                        alive[*node] = true;
                        true
                    } else {
                        false
                    }
                }
                FaultEvent::Add(spec) => {
                    roster.push(*spec);
                    alive.push(true);
                    true
                }
            };
            if changed {
                let nodes: Vec<NodeSpec> = roster
                    .iter()
                    .zip(&alive)
                    .filter(|(_, &a)| a)
                    .map(|(n, _)| *n)
                    .collect();
                out.push((fault.iteration, ClusterTopology::new(nodes)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ClusterTopology {
        ClusterTopology::mixed_h800_h20(1, 1)
    }

    #[test]
    fn seeded_schedules_replay_bit_identically() {
        let a = FailureSchedule::seeded(&base(), 12, 4, 0xE1A5);
        let b = FailureSchedule::seeded(&base(), 12, 4, 0xE1A5);
        assert_eq!(a, b);
        assert_eq!(a.topologies(), b.topologies());
        let c = FailureSchedule::seeded(&base(), 12, 4, 0xE1A6);
        assert_ne!(a, c);
    }

    #[test]
    fn the_cluster_never_goes_empty() {
        for seed in 0..32 {
            let schedule = FailureSchedule::seeded(&base(), 20, 8, seed);
            for (_, topo) in schedule.topologies() {
                assert!(topo.num_gpus() > 0);
            }
        }
    }

    #[test]
    fn explicit_kill_restore_round_trips_to_the_base_topology() {
        let schedule = FailureSchedule::new(
            base(),
            vec![
                ScheduledFault {
                    iteration: 2,
                    event: FaultEvent::Kill(1),
                },
                ScheduledFault {
                    iteration: 5,
                    event: FaultEvent::Restore(1),
                },
            ],
        );
        let steps = schedule.topologies();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].0, 2);
        assert_eq!(steps[0].1, ClusterTopology::mixed_h800_h20(1, 0));
        assert_eq!(steps[1].1, base());
    }

    #[test]
    fn infeasible_events_are_dropped() {
        let schedule = FailureSchedule::new(
            base(),
            vec![
                ScheduledFault {
                    iteration: 1,
                    event: FaultEvent::Kill(0),
                },
                // Node 0 is already dead and node 1 is the last one
                // standing: neither kill may apply.
                ScheduledFault {
                    iteration: 2,
                    event: FaultEvent::Kill(0),
                },
                ScheduledFault {
                    iteration: 3,
                    event: FaultEvent::Kill(1),
                },
            ],
        );
        assert_eq!(schedule.topologies().len(), 1);
    }
}
