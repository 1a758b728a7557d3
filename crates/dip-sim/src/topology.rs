//! Cluster topology: per-device GPU specifications, node grouping and the
//! rank-pair link model.
//!
//! The paper evaluates on three clusters (H800, H20, H100 — Table 4 / §7.5)
//! and the devices differ wildly: the H800 has ~6.7× the compute of the H20,
//! the H20 has 20% more HBM. A [`ClusterTopology`] describes such a cluster
//! as an ordered list of [`NodeSpec`]s — each node a group of identical GPUs
//! — and answers the questions the planner asks about it:
//!
//! * which device hosts a given pipeline rank ([`ClusterTopology::rank_device`]),
//!   so stage timings are priced on the GPU that actually executes the stage;
//! * what link connects two pipeline ranks ([`ClusterTopology::link_bandwidth`]),
//!   so communication edges are charged at NVLink or RoCE bandwidth depending
//!   on whether the ranks share a node;
//! * a stable [`ClusterTopology::fingerprint`] that every plan carries, so
//!   a plan reused as an anchor is checked against the cluster it was made
//!   for, and that keys calibration artifacts.
//!
//! The paper's homogeneous testbeds are presets
//! ([`ClusterTopology::h800_cluster`], [`ClusterTopology::h20_cluster`],
//! [`ClusterTopology::h100_cluster`]); the Table 4 mixed testbed is
//! [`ClusterTopology::mixed_h800_h20`].

use crate::efficiency::EfficiencyModel;
use crate::hardware::{GpuGeneration, GpuSpec};
use crate::timing::TimingModel;
use serde::{Deserialize, Serialize};

/// One node of a cluster: a group of identical GPUs with a shared NVLink
/// domain and a CPU complex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The GPU model installed in this node.
    pub gpu: GpuSpec,
    /// Number of GPUs in the node.
    pub gpus: usize,
    /// CPU cores on the node. Cluster description only: it is folded into
    /// the topology fingerprint, but the planner does not read it (its CPU
    /// budget is the planner's own thread count).
    pub cpu_cores: usize,
}

impl NodeSpec {
    /// A node of `gpus` identical `gpu` devices with 128 CPU cores (the
    /// paper's node configuration).
    pub fn new(gpu: GpuSpec, gpus: usize) -> Self {
        Self {
            gpu,
            gpus,
            cpu_cores: 128,
        }
    }
}

/// A (possibly heterogeneous) GPU cluster: an ordered list of nodes, each a
/// group of identical devices. GPUs are globally indexed in node order; a
/// pipeline rank `r` of a job with tensor-parallel degree `tp` occupies GPUs
/// `r*tp .. (r+1)*tp` (the rail-optimised mapping the paper describes).
///
/// GPU indices past the cluster size wrap modulo `num_gpus`. This is a
/// known defect (ROADMAP item 1(a)), not a feature: a job needing more
/// than `num_gpus` GPUs for one replica is planned as if several ranks
/// shared a device, each with that device's full HBM, and nothing prices
/// the sharing.
///
/// Data parallelism: the rank mapping describes **replica 0**; a job with
/// `dp > 1` is assumed to place every other data-parallel replica on a
/// device set identical to replica 0's (replicas of one pipeline rank never
/// mix device kinds). Simulations price rank `r` on replica 0's devices and
/// scale aggregates by `dp` accordingly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    nodes: Vec<NodeSpec>,
}

impl ClusterTopology {
    /// Creates a topology from its nodes. Nodes with zero GPUs are dropped;
    /// at least one non-empty node is required.
    ///
    /// # Panics
    ///
    /// Panics if no node holds any GPU.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        let nodes: Vec<NodeSpec> = nodes.into_iter().filter(|n| n.gpus > 0).collect();
        assert!(
            !nodes.is_empty(),
            "a cluster topology needs at least one GPU"
        );
        Self { nodes }
    }

    /// `num_nodes` nodes of 8 identical `generation` devices, 128 CPU cores
    /// each (the paper's node configuration).
    fn preset(generation: GpuGeneration, num_nodes: usize) -> Self {
        let gpu = GpuSpec::preset(generation);
        Self::new((0..num_nodes).map(|_| NodeSpec::new(gpu, 8)).collect())
    }

    /// The paper's main testbed: `num_nodes` nodes × 8 H800 (8 nodes in
    /// the paper).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn h800_cluster(num_nodes: usize) -> Self {
        Self::preset(GpuGeneration::H800, num_nodes)
    }

    /// The comparison testbed: `num_nodes` nodes × 8 H20 (2 nodes in the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn h20_cluster(num_nodes: usize) -> Self {
        Self::preset(GpuGeneration::H20, num_nodes)
    }

    /// A large-scale cluster of `num_nodes` nodes × 8 H100 (§7.5).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn h100_cluster(num_nodes: usize) -> Self {
        Self::preset(GpuGeneration::H100, num_nodes)
    }

    /// The paper's Table 4 mixed testbed shape: `h800_nodes` nodes of 8×H800
    /// followed by `h20_nodes` nodes of 8×H20.
    pub fn mixed_h800_h20(h800_nodes: usize, h20_nodes: usize) -> Self {
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        let h20 = GpuSpec::preset(GpuGeneration::H20);
        Self::new(
            (0..h800_nodes)
                .map(|_| NodeSpec::new(h800, 8))
                .chain((0..h20_nodes).map(|_| NodeSpec::new(h20, 8)))
                .collect(),
        )
    }

    /// The nodes of the topology, in GPU-index order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.nodes.iter().map(|n| n.gpus).sum()
    }

    /// True when every GPU in the cluster is identical.
    pub fn is_uniform(&self) -> bool {
        self.nodes.windows(2).all(|w| w[0].gpu == w[1].gpu)
    }

    /// The device at a global GPU index. An index past the cluster size
    /// wraps modulo `num_gpus`: ROADMAP item 1(a)'s known defect.
    pub fn gpu(&self, index: usize) -> GpuSpec {
        let index = index % self.num_gpus();
        let mut offset = 0;
        for node in &self.nodes {
            if index < offset + node.gpus {
                return node.gpu;
            }
            offset += node.gpus;
        }
        unreachable!("index wrapped into range")
    }

    /// The node hosting a global GPU index. An index past the cluster size
    /// wraps modulo `num_gpus`: ROADMAP item 1(a)'s known defect.
    pub fn node_of(&self, index: usize) -> usize {
        let index = index % self.num_gpus();
        let mut offset = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if index < offset + node.gpus {
                return i;
            }
            offset += node.gpus;
        }
        unreachable!("index wrapped into range")
    }

    /// Aggregate peak FLOP/s of the first `num_gpus` devices (the GPUs a job
    /// of that size occupies), used for MFU.
    pub fn peak_flops_of(&self, num_gpus: usize) -> f64 {
        (0..num_gpus).map(|g| self.gpu(g).peak_flops).sum()
    }

    /// The first GPU of pipeline rank `rank`'s tensor-parallel group.
    fn rank_gpu(&self, rank: usize, tp: usize) -> usize {
        rank * tp.max(1)
    }

    /// The device hosting pipeline rank `rank` (the GPUs of its
    /// tensor-parallel group; TP groups are assumed not to span device
    /// kinds).
    pub fn rank_device(&self, rank: usize, tp: usize) -> GpuSpec {
        self.gpu(self.rank_gpu(rank, tp))
    }

    /// The timing model of the device hosting pipeline rank `rank` — the
    /// per-device latency query behind latency-balanced placement and
    /// per-rank stage pricing: callers hand the returned model a
    /// [`dip_models::LayerCost`] (via [`TimingModel::forward_latency`] /
    /// [`TimingModel::backward_latency`]) to price a layer *on the GPU that
    /// will actually execute it*, so memory-bound layers and small-kernel
    /// efficiency roll-off count, not just spec-sheet peak FLOP/s.
    ///
    /// ```
    /// use dip_sim::{ClusterTopology, EfficiencyModel};
    ///
    /// let topo = ClusterTopology::mixed_h800_h20(1, 1);
    /// let eff = EfficiencyModel::default();
    /// // At TP=4, rank 0 is hosted on an H800, rank 2 on an H20.
    /// assert_eq!(topo.rank_timing(0, 4, eff).gpu, topo.rank_device(0, 4));
    /// assert_eq!(topo.rank_timing(2, 4, eff).gpu, topo.rank_device(2, 4));
    /// ```
    pub fn rank_timing(&self, rank: usize, tp: usize, efficiency: EfficiencyModel) -> TimingModel {
        TimingModel::new(self.rank_device(rank, tp), efficiency)
    }

    /// Whether two pipeline ranks live in the same node.
    pub fn ranks_share_node(&self, rank_a: usize, rank_b: usize, tp: usize) -> bool {
        self.node_of(self.rank_gpu(rank_a, tp)) == self.node_of(self.rank_gpu(rank_b, tp))
    }

    /// Effective point-to-point bandwidth between two pipeline ranks: the
    /// NVLink bandwidth of the slower endpoint when the ranks share a node,
    /// otherwise the network bandwidth of the slower endpoint.
    pub fn link_bandwidth(&self, rank_a: usize, rank_b: usize, tp: usize) -> f64 {
        let a = self.rank_device(rank_a, tp);
        let b = self.rank_device(rank_b, tp);
        if self.ranks_share_node(rank_a, rank_b, tp) {
            a.nvlink_bandwidth.min(b.nvlink_bandwidth)
        } else {
            a.net_bandwidth.min(b.net_bandwidth)
        }
    }

    /// Activation-memory budget per pipeline rank: the usable memory of the
    /// device hosting each rank minus that rank's static footprint. Shared
    /// by the DIP planner and the baselines so memory budgeting cannot
    /// diverge between them.
    pub fn activation_budget(&self, static_memory: &[u64], tp: usize) -> Vec<u64> {
        static_memory
            .iter()
            .enumerate()
            .map(|(rank, s)| {
                self.rank_device(rank, tp)
                    .usable_memory()
                    .saturating_sub(*s)
            })
            .collect()
    }

    /// The slowest inter-node network bandwidth of any device, used for
    /// cluster-wide collectives (data-parallel gradient all-reduce).
    pub fn min_net_bandwidth(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.gpu.net_bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// The reference device for offline decisions that predate placement
    /// (segment counts, sub-microbatch sizing): the highest-compute device,
    /// ties broken by GPU-index order.
    pub fn reference_device(&self) -> GpuSpec {
        self.nodes
            .iter()
            .map(|n| n.gpu)
            .fold(None::<GpuSpec>, |best, gpu| match best {
                Some(b) if b.peak_flops >= gpu.peak_flops => Some(b),
                _ => Some(gpu),
            })
            .expect("topology has at least one node")
    }

    /// A stable fingerprint of the topology: every per-rank device spec and
    /// the node grouping contribute, so two topologies fingerprint equal
    /// exactly when they describe the same cluster. Every plan carries it,
    /// so an anchor planned for another cluster is rejected, and
    /// calibration artifacts are keyed by it.
    ///
    /// # Ordering contract
    ///
    /// The node list is **ordered**, and the order is semantic: global GPU
    /// indices — and therefore the pipeline-rank → device mapping of
    /// [`ClusterTopology::rank_device`] — follow node order, so two clusters
    /// holding the same multiset of nodes in different orders execute every
    /// rank on different hardware. The fingerprint honours this by folding
    /// nodes in list order: permuting a *heterogeneous* node list yields a
    /// different fingerprint. Only permutations that exchange byte-identical
    /// nodes (which change nothing observable) fingerprint equal.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0xA076_1D64_78BD_642Fu64 ^ (self.nodes.len() as u64);
        let mut mix = |value: u64| {
            let mut z = acc.wrapping_add(value).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        };
        for node in &self.nodes {
            mix(node.gpus as u64);
            mix(node.cpu_cores as u64);
            mix(node.gpu.peak_flops.to_bits());
            mix(node.gpu.mem_bandwidth.to_bits());
            mix(node.gpu.mem_capacity);
            mix(node.gpu.nvlink_bandwidth.to_bits());
            mix(node.gpu.net_bandwidth.to_bits());
        }
        acc
    }

    /// Number of *physical* pipeline-rank slots the cluster offers at
    /// tensor-parallel degree `tp`: `num_gpus / tp`, at least one. Logical
    /// pipeline ranks beyond this count wrap onto the same devices
    /// ([`ClusterTopology::gpu`]): ROADMAP item 1(a)'s known defect.
    pub fn physical_ranks(&self, tp: usize) -> usize {
        (self.num_gpus() / tp.max(1)).max(1)
    }

    /// Diffs `self` (the old topology) against `new` at physical
    /// pipeline-rank granularity — the elastic-replanning substrate. See
    /// [`TopologyDelta::between`] for the matching rules.
    pub fn delta_to(&self, new: &Self, tp: usize) -> TopologyDelta {
        TopologyDelta::between(self, new, tp)
    }
}

/// The difference between two cluster topologies at physical pipeline-rank
/// granularity: which rank slots vanished, which appeared, and a **stable
/// remapping** for the slots whose hosting device survives the change.
///
/// Elastic replanning uses the remapping to decide which optimizer/parameter
/// state can stay in place across a failure or scale event and which must
/// move over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyDelta {
    /// Old physical pipeline ranks whose hosting device no longer exists in
    /// the new topology (state held there must be restored from a replica or
    /// checkpoint).
    pub removed: Vec<usize>,
    /// New physical pipeline ranks with no counterpart in the old topology
    /// (freshly added capacity, initially empty of state).
    pub added: Vec<usize>,
    /// Stable `(old physical rank, new physical rank)` pairs for ranks whose
    /// hosting device survives the change, in old-rank order.
    pub surviving: Vec<(usize, usize)>,
    old_to_new: Vec<Option<usize>>,
    new_ranks: usize,
}

impl TopologyDelta {
    /// Diffs two topologies at tensor-parallel degree `tp`.
    ///
    /// Nodes are matched greedily in list order: each old node pairs with
    /// the first not-yet-matched new node of identical [`NodeSpec`]. This is
    /// deterministic, stable under appending new nodes, and — because
    /// exchanging byte-identical nodes changes nothing observable — it never
    /// affects link pricing or byte accounting. An old physical rank whose
    /// first GPU falls in a matched node survives when its GPU offset lands
    /// tensor-parallel-aligned inside the matched new node; every other old
    /// rank is [`TopologyDelta::removed`].
    pub fn between(old: &ClusterTopology, new: &ClusterTopology, tp: usize) -> Self {
        let tp = tp.max(1);
        let old_ranks = old.physical_ranks(tp);
        let new_ranks = new.physical_ranks(tp);
        let offsets = |topo: &ClusterTopology| -> Vec<usize> {
            let mut acc = 0;
            topo.nodes()
                .iter()
                .map(|n| {
                    let start = acc;
                    acc += n.gpus;
                    start
                })
                .collect()
        };
        let old_offsets = offsets(old);
        let new_offsets = offsets(new);
        let mut matched = vec![None; old.num_nodes()];
        let mut taken = vec![false; new.num_nodes()];
        for (i, node) in old.nodes().iter().enumerate() {
            let hit = new
                .nodes()
                .iter()
                .enumerate()
                .find(|(j, cand)| !taken[*j] && *cand == node)
                .map(|(j, _)| j);
            if let Some(j) = hit {
                matched[i] = Some(j);
                taken[j] = true;
            }
        }
        let mut removed = Vec::new();
        let mut surviving = Vec::new();
        let mut old_to_new = vec![None; old_ranks];
        for (p, slot) in old_to_new.iter_mut().enumerate() {
            let gpu = p * tp;
            let node = old.node_of(gpu);
            let target = matched[node].map(|m| new_offsets[m] + (gpu - old_offsets[node]));
            match target {
                Some(gpu) if gpu % tp == 0 && gpu / tp < new_ranks => {
                    *slot = Some(gpu / tp);
                    surviving.push((p, gpu / tp));
                }
                _ => removed.push(p),
            }
        }
        let mut covered = vec![false; new_ranks];
        for &(_, q) in &surviving {
            covered[q] = true;
        }
        let added = (0..new_ranks).filter(|&q| !covered[q]).collect();
        Self {
            removed,
            added,
            surviving,
            old_to_new,
            new_ranks,
        }
    }

    /// The new physical rank holding old physical rank `old`'s device, if it
    /// survives the change.
    pub fn old_to_new(&self, old: usize) -> Option<usize> {
        self.old_to_new.get(old).copied().flatten()
    }

    /// Number of physical pipeline-rank slots in the old topology.
    pub fn num_old_ranks(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of physical pipeline-rank slots in the new topology.
    pub fn num_new_ranks(&self) -> usize {
        self.new_ranks
    }

    /// True when nothing changed: no rank removed or added and every
    /// surviving rank keeps its index.
    pub fn is_identity(&self) -> bool {
        self.removed.is_empty()
            && self.added.is_empty()
            && self.surviving.iter().all(|&(p, q)| p == q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_uniform_eight_gpu_nodes() {
        let topo = ClusterTopology::h800_cluster(2);
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        assert_eq!(topo.num_gpus(), 16);
        assert_eq!(topo.num_nodes(), 2);
        assert!(topo.is_uniform());
        assert_eq!(topo.reference_device(), h800);
        assert!((topo.peak_flops_of(16) - 16.0 * 989e12).abs() < 1e3);
        for g in 0..topo.num_gpus() {
            assert_eq!(topo.gpu(g), h800);
            assert_eq!(topo.node_of(g), g / 8);
        }
        assert!(topo.nodes().iter().all(|n| n.cpu_cores == 128));
        let h20 = ClusterTopology::h20_cluster(2);
        assert_eq!(h20.num_gpus(), 16);
        assert_eq!(h20.reference_device().mem_capacity, 96 * (1 << 30));
        assert_eq!(
            ClusterTopology::h100_cluster(8).reference_device(),
            GpuSpec::preset(GpuGeneration::H100)
        );
    }

    #[test]
    fn preset_fingerprints_are_pinned() {
        // Plans and calibration artifacts carry these values, so a preset
        // must keep describing the same machine.
        for (topology, fingerprint) in [
            (ClusterTopology::h800_cluster(1), 0x747d_c1fa_9361_fbcb),
            (ClusterTopology::h800_cluster(2), 0x445e_d7b4_d349_276d),
            (ClusterTopology::h20_cluster(2), 0xc979_2dee_de57_4bab),
            (ClusterTopology::h100_cluster(8), 0xcc71_a1fe_6e30_9bbc),
        ] {
            assert_eq!(topology.fingerprint(), fingerprint);
        }
    }

    #[test]
    fn link_bandwidth_switches_exactly_at_the_node_boundary() {
        // 2 nodes × 8 GPUs, TP=4 → 2 pipeline ranks per node. Ranks 0 and 1
        // share node 0; ranks 1 and 2 straddle the boundary.
        let topo = ClusterTopology::h800_cluster(2);
        let tp = 4;
        assert!(topo.ranks_share_node(0, 1, tp));
        assert!(!topo.ranks_share_node(1, 2, tp));
        assert!(topo.ranks_share_node(2, 3, tp));
        let gpu = GpuSpec::preset(GpuGeneration::H800);
        assert_eq!(topo.link_bandwidth(0, 1, tp), gpu.nvlink_bandwidth);
        assert_eq!(topo.link_bandwidth(1, 2, tp), gpu.net_bandwidth);
        assert_eq!(topo.link_bandwidth(2, 3, tp), gpu.nvlink_bandwidth);
        // TP=8: every rank owns a full node, so every edge crosses nodes.
        assert!(!topo.ranks_share_node(0, 1, 8));
        assert_eq!(topo.link_bandwidth(0, 1, 8), gpu.net_bandwidth);
    }

    #[test]
    fn mixed_cluster_exposes_both_device_kinds() {
        let topo = ClusterTopology::mixed_h800_h20(1, 1);
        assert_eq!(topo.num_gpus(), 16);
        assert!(!topo.is_uniform());
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        let h20 = GpuSpec::preset(GpuGeneration::H20);
        // TP=4: ranks 0-1 on the H800 node, ranks 2-3 on the H20 node.
        assert_eq!(topo.rank_device(0, 4), h800);
        assert_eq!(topo.rank_device(1, 4), h800);
        assert_eq!(topo.rank_device(2, 4), h20);
        assert_eq!(topo.rank_device(3, 4), h20);
        // The cross-kind link runs at the slower endpoint's network speed.
        assert_eq!(
            topo.link_bandwidth(1, 2, 4),
            h800.net_bandwidth.min(h20.net_bandwidth)
        );
        // The intra-H20-node link runs at H20 NVLink speed.
        assert_eq!(topo.link_bandwidth(2, 3, 4), h20.nvlink_bandwidth);
        assert_eq!(topo.reference_device(), h800);
        assert_eq!(topo.min_net_bandwidth(), 25e9);
    }

    #[test]
    fn rank_indices_wrap_modulo_the_cluster_size() {
        // ROADMAP item 1(a)'s known defect, pinned until it is fixed.
        let topo = ClusterTopology::h800_cluster(1);
        // 8 GPUs; rank 5 at TP=2 starts at GPU 10 → wraps to GPU 2.
        assert_eq!(topo.rank_device(5, 2), topo.gpu(2));
        assert_eq!(topo.node_of(17), 0);
    }

    #[test]
    fn fingerprints_separate_different_clusters() {
        let h800 = ClusterTopology::h800_cluster(2);
        let h800_again = ClusterTopology::h800_cluster(2);
        let h800_bigger = ClusterTopology::h800_cluster(4);
        let h20 = ClusterTopology::h20_cluster(2);
        let mixed = ClusterTopology::mixed_h800_h20(1, 1);
        assert_eq!(h800.fingerprint(), h800_again.fingerprint());
        assert_ne!(h800.fingerprint(), h800_bigger.fingerprint());
        assert_ne!(h800.fingerprint(), h20.fingerprint());
        assert_ne!(h800.fingerprint(), mixed.fingerprint());
        assert_ne!(h20.fingerprint(), mixed.fingerprint());
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_topologies_are_rejected() {
        let gpu = GpuSpec::preset(GpuGeneration::H800);
        ClusterTopology::new(vec![NodeSpec::new(gpu, 0)]);
    }

    #[test]
    fn delta_of_an_unchanged_topology_is_the_identity() {
        let topo = ClusterTopology::mixed_h800_h20(1, 1);
        let delta = topo.delta_to(&topo, 4);
        assert!(delta.is_identity());
        assert_eq!(delta.surviving.len(), topo.physical_ranks(4));
        assert!(delta.removed.is_empty());
        assert!(delta.added.is_empty());
    }

    #[test]
    fn killing_the_tail_node_removes_its_ranks_and_keeps_the_head_in_place() {
        // 1×8 H800 + 1×8 H20 at TP=4: physical ranks 0-1 on H800, 2-3 on H20.
        let old = ClusterTopology::mixed_h800_h20(1, 1);
        let new = ClusterTopology::mixed_h800_h20(1, 0);
        let delta = old.delta_to(&new, 4);
        assert_eq!(delta.surviving, vec![(0, 0), (1, 1)]);
        assert_eq!(delta.removed, vec![2, 3]);
        assert!(delta.added.is_empty());
        assert_eq!(delta.old_to_new(0), Some(0));
        assert_eq!(delta.old_to_new(2), None);
        assert!(!delta.is_identity());
    }

    #[test]
    fn killing_the_head_node_remaps_the_survivors_stably() {
        // Losing the H800 node leaves the H20 node as the new node 0: the
        // H20-hosted ranks 2-3 survive as physical ranks 0-1.
        let old = ClusterTopology::mixed_h800_h20(1, 1);
        let new = ClusterTopology::mixed_h800_h20(0, 1);
        let delta = old.delta_to(&new, 4);
        assert_eq!(delta.surviving, vec![(2, 0), (3, 1)]);
        assert_eq!(delta.removed, vec![0, 1]);
        assert!(delta.added.is_empty());
    }

    #[test]
    fn growing_the_cluster_adds_fresh_ranks_without_touching_survivors() {
        let old = ClusterTopology::mixed_h800_h20(1, 0);
        let new = ClusterTopology::mixed_h800_h20(2, 0);
        let delta = old.delta_to(&new, 4);
        assert_eq!(delta.surviving, vec![(0, 0), (1, 1)]);
        assert!(delta.removed.is_empty());
        assert_eq!(delta.added, vec![2, 3]);
        assert_eq!(delta.num_old_ranks(), 2);
        assert_eq!(delta.num_new_ranks(), 4);
    }

    #[test]
    fn replacing_a_node_with_a_different_kind_removes_and_adds() {
        // Swapping the H20 node for a second H800 node: the H20 ranks have
        // no surviving device, the new H800 ranks are fresh capacity.
        let old = ClusterTopology::mixed_h800_h20(1, 1);
        let new = ClusterTopology::mixed_h800_h20(2, 0);
        let delta = old.delta_to(&new, 4);
        assert_eq!(delta.surviving, vec![(0, 0), (1, 1)]);
        assert_eq!(delta.removed, vec![2, 3]);
        assert_eq!(delta.added, vec![2, 3]);
    }
}
