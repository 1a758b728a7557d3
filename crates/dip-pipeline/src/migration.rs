//! State-migration accounting for elastic replanning.
//!
//! When the cluster topology changes under a running job — a rank failure, a
//! spot preemption, a grow/shrink event — the optimizer and parameter state
//! of every model layer has to end up on the device that will execute the
//! layer in the *new* plan. This module prices that movement honestly:
//!
//! * a layer whose old physical host survives the change **and** still hosts
//!   the layer's new owner moves nothing;
//! * a layer whose old host survives but whose new owner sits elsewhere is
//!   transferred over the wire, charged at the per-edge
//!   [`ClusterTopology::link_bandwidth`] (NVLink inside a node, network
//!   across nodes);
//! * a layer whose old host vanished must be **restored** — re-materialised
//!   from a data-parallel replica or checkpoint store — charged at the
//!   destination device's network bandwidth.
//!
//! Byte counts follow the memory model of
//! [`Placement::static_memory_per_rank`]: parameter + gradient + FP32 master
//! copy + Adam moments, 16 bytes per parameter, sharded `tp` ways. Transfers
//! of distinct edges overlap (each tensor-parallel shard moves over its own
//! link), so the wall-clock transfer time is the *maximum* per-edge time,
//! not the sum.

use crate::placement::{Placement, OPTIMIZER_STATE_BYTES_PER_PARAM};
use dip_models::{LmmSpec, ModuleId};
use dip_sim::{ClusterTopology, TopologyDelta};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The cost of moving optimizer + parameter state between two placements
/// across a topology change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCost {
    /// Total bytes that change physical device, including restored bytes.
    pub bytes_moved: u64,
    /// Bytes whose old host vanished and that must be re-materialised from a
    /// replica or checkpoint (a subset of [`MigrationCost::bytes_moved`]).
    pub bytes_restored: u64,
    /// Wall-clock seconds to complete the slowest single transfer, with
    /// distinct edges overlapping and each tensor-parallel shard using its
    /// own link.
    pub transfer_time_s: f64,
}

impl MigrationCost {
    /// No state moves at all.
    pub const ZERO: Self = Self {
        bytes_moved: 0,
        bytes_restored: 0,
        transfer_time_s: 0.0,
    };
}

/// Maps every `(module, layer)` of a placement to the logical pipeline rank
/// hosting it.
fn layer_hosts(placement: &Placement) -> BTreeMap<(ModuleId, usize), usize> {
    let mut hosts = BTreeMap::new();
    for segment in placement.segments.iter() {
        for (rank, chunk) in segment.chunks.iter().enumerate() {
            for piece in &chunk.pieces {
                for layer in piece.layers.clone() {
                    hosts.insert((piece.module, layer), rank);
                }
            }
        }
    }
    hosts
}

/// Bytes of optimizer + parameter state one layer pins across its
/// tensor-parallel group.
fn layer_bytes(spec: &LmmSpec, module: ModuleId, layer: usize) -> u64 {
    spec.module(module).layers()[layer].param_count() * OPTIMIZER_STATE_BYTES_PER_PARAM
}

/// Prices the state movement needed to go from `old` (running on the old
/// topology) to `new` (running on `new_topology`), given the
/// [`TopologyDelta`] between the two topologies at the job's
/// tensor-parallel degree.
///
/// Both placements must use the same [`crate::ParallelConfig`]; the logical
/// pipeline ranks of each placement land on physical devices by the wrap
/// rule of [`ClusterTopology::rank_device`].
///
/// # Panics
///
/// Panics if the placements disagree on the parallelism configuration.
pub fn migration_cost(
    spec: &LmmSpec,
    old: &Placement,
    new: &Placement,
    new_topology: &ClusterTopology,
    delta: &TopologyDelta,
) -> MigrationCost {
    assert_eq!(
        old.parallel, new.parallel,
        "migration pricing requires identical parallel configurations"
    );
    let tp = new.parallel.tp.max(1);
    let old_ranks = delta.num_old_ranks().max(1);
    let new_ranks = delta.num_new_ranks().max(1);
    let old_hosts = layer_hosts(old);

    let mut edge_bytes: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut restore_bytes: BTreeMap<usize, u64> = BTreeMap::new();
    let mut bytes_moved = 0u64;
    let mut bytes_restored = 0u64;
    for segment in new.segments.iter() {
        for (rank, chunk) in segment.chunks.iter().enumerate() {
            for piece in &chunk.pieces {
                for layer in piece.layers.clone() {
                    let bytes = layer_bytes(spec, piece.module, layer);
                    let dst = rank % new_ranks;
                    let src = old_hosts
                        .get(&(piece.module, layer))
                        .and_then(|a| delta.old_to_new(a % old_ranks));
                    match src {
                        Some(src) if src == dst => {}
                        Some(src) => {
                            *edge_bytes.entry((src, dst)).or_default() += bytes;
                            bytes_moved += bytes;
                        }
                        None => {
                            *restore_bytes.entry(dst).or_default() += bytes;
                            bytes_moved += bytes;
                            bytes_restored += bytes;
                        }
                    }
                }
            }
        }
    }

    let mut transfer_time_s = 0.0f64;
    for (&(src, dst), &bytes) in &edge_bytes {
        let bandwidth = new_topology.link_bandwidth(src, dst, tp);
        transfer_time_s = transfer_time_s.max((bytes as f64 / tp as f64) / bandwidth);
    }
    for (&dst, &bytes) in &restore_bytes {
        let bandwidth = new_topology.rank_device(dst, tp).net_bandwidth;
        transfer_time_s = transfer_time_s.max((bytes as f64 / tp as f64) / bandwidth);
    }
    MigrationCost {
        bytes_moved,
        bytes_restored,
        transfer_time_s,
    }
}

/// The cost of a cold restart on `topology`: every layer of `placement` is
/// re-materialised from a replica or checkpoint store at its host's network
/// bandwidth, with per-device restores overlapping. This is the recovery
/// bill a topology change pays when no elastic replan carries state over.
pub fn full_restore_cost(
    spec: &LmmSpec,
    placement: &Placement,
    topology: &ClusterTopology,
) -> MigrationCost {
    let tp = placement.parallel.tp.max(1);
    let ranks = topology.physical_ranks(tp);
    let mut restore_bytes: BTreeMap<usize, u64> = BTreeMap::new();
    let mut total = 0u64;
    for ((module, layer), rank) in layer_hosts(placement) {
        let bytes = layer_bytes(spec, module, layer);
        *restore_bytes.entry(rank % ranks).or_default() += bytes;
        total += bytes;
    }
    let mut transfer_time_s = 0.0f64;
    for (&dst, &bytes) in &restore_bytes {
        let bandwidth = topology.rank_device(dst, tp).net_bandwidth;
        transfer_time_s = transfer_time_s.max((bytes as f64 / tp as f64) / bandwidth);
    }
    MigrationCost {
        bytes_moved: total,
        bytes_restored: total,
        transfer_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::separated_placement;
    use crate::placement::ParallelConfig;
    use dip_models::zoo;
    use std::collections::BTreeMap as Counts;

    fn fixture() -> (dip_models::LmmSpec, Placement) {
        let spec = zoo::vlm_s();
        let counts: Counts<ModuleId, usize> = spec.iter().map(|(id, _)| (id, 1)).collect();
        let placement = separated_placement(&spec, ParallelConfig::new(4, 4, 1), &counts);
        (spec, placement)
    }

    #[test]
    fn identical_placement_on_an_unchanged_topology_moves_nothing() {
        let (spec, placement) = fixture();
        let topo = ClusterTopology::mixed_h800_h20(1, 1);
        let delta = topo.delta_to(&topo, 4);
        let cost = migration_cost(&spec, &placement, &placement, &topo, &delta);
        assert_eq!(cost, MigrationCost::ZERO);
    }

    #[test]
    fn killing_the_tail_node_restores_exactly_the_dead_ranks_state() {
        let (spec, placement) = fixture();
        let old_topo = ClusterTopology::mixed_h800_h20(1, 1);
        let new_topo = ClusterTopology::mixed_h800_h20(1, 0);
        let delta = old_topo.delta_to(&new_topo, 4);
        let cost = migration_cost(&spec, &placement, &placement, &new_topo, &delta);
        // Ranks 2-3 died: their layers are restored; ranks 0-1 keep theirs.
        let expected: u64 = placement
            .segments
            .iter()
            .flat_map(|s| s.chunks.iter().enumerate())
            .filter(|(rank, _)| *rank >= 2)
            .map(|(_, c)| c.param_count(&spec) * OPTIMIZER_STATE_BYTES_PER_PARAM)
            .sum();
        assert_eq!(cost.bytes_moved, expected);
        assert_eq!(cost.bytes_restored, expected);
        assert!(cost.transfer_time_s > 0.0);
        assert!(expected > 0);
    }

    #[test]
    fn full_restore_touches_every_parameter() {
        let (spec, placement) = fixture();
        let topo = ClusterTopology::mixed_h800_h20(1, 1);
        let cost = full_restore_cost(&spec, &placement, &topo);
        assert_eq!(
            cost.bytes_moved,
            placement.total_params(&spec) * OPTIMIZER_STATE_BYTES_PER_PARAM
        );
        assert_eq!(cost.bytes_restored, cost.bytes_moved);
        assert!(cost.transfer_time_s > 0.0);
    }
}
