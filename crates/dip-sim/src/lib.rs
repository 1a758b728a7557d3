//! Training simulator for the DIP reproduction.
//!
//! The paper's evaluation rests on an operator-level analytical simulator
//! (§6.1): operator latency is estimated as
//! `max(α_fop·N_fop/F, α_mem·N_mem/B_mem, α_net·N_net/B_net)` given device
//! capabilities, and pipeline execution is replayed to obtain end-to-end
//! iteration time, per-rank bubbles, memory timelines and MFU. This crate
//! implements that simulator:
//!
//! * [`hardware`] — GPU specifications (H800, H20, H100 presets matching
//!   the paper's testbeds);
//! * [`topology`] — heterogeneous cluster topologies: per-node device
//!   groups, the rank-pair link model (NVLink vs RoCE per edge), the
//!   per-device latency query ([`ClusterTopology::rank_timing`]) behind
//!   latency-balanced placement, stable topology fingerprints that plans
//!   and calibration artifacts carry, and [`TopologyDelta`] diffing with
//!   stable rank remapping (the elastic-replanning substrate);
//! * [`efficiency`] — efficiency scaling factors plus a utilisation curve
//!   that models the drop-off for very small kernels (the effect behind the
//!   95%-of-peak sub-microbatch sizing rule, §4 / Fig. 9);
//! * [`timing`] — converts analytical [`dip_models::LayerCost`]s into stage
//!   latencies and memory footprints;
//! * [`engine`] — a discrete-event executor that replays per-rank task lists
//!   with cross-rank dependencies and produces timelines, bubble statistics
//!   and memory traces;
//! * [`metrics`] — MFU and throughput helpers;
//! * [`calibration`] — fits efficiency factors against "measured" reference
//!   executions (the pre-/post-calibration study of Fig. 13);
//! * [`artifact`] — the persistent fleet calibration artifact: versioned
//!   JSON holding per-device ECM parameters and fitted cost models, keyed
//!   by topology fingerprint with a documented fallback chain.

//! # Example
//!
//! Describe a mixed cluster and ask it the questions the planner asks:
//!
//! ```
//! use dip_sim::{ClusterTopology, EfficiencyModel};
//!
//! // 1 node × 8 H800 + 1 node × 8 H20 (the paper's Table 4 device mix).
//! let topo = ClusterTopology::mixed_h800_h20(1, 1);
//! assert!(!topo.is_uniform());
//! // At TP=4, ranks 0–1 sit on H800 devices, ranks 2–3 on H20 devices …
//! assert!(topo.rank_device(0, 4).peak_flops > topo.rank_device(2, 4).peak_flops);
//! // … and the rank 1 → 2 edge crosses the node boundary (RoCE, not NVLink).
//! assert!(topo.link_bandwidth(1, 2, 4) < topo.link_bandwidth(0, 1, 4));
//! // Per-device timing models price layers on the hosting rank's GPU.
//! let timing = topo.rank_timing(2, 4, EfficiencyModel::default());
//! assert_eq!(timing.gpu, topo.rank_device(2, 4));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod calibration;
pub mod efficiency;
pub mod engine;
pub mod hardware;
pub mod metrics;
pub mod timing;
pub mod topology;

pub use artifact::{
    ArtifactError, CalibrationArtifact, CalibrationRegistry, CalibrationSource, EcmDeviceParams,
    ResolvedCalibration, CALIBRATION_SCHEMA_VERSION,
};
pub use calibration::{calibrate, CalibrationSample, CostModel, CostSample};
pub use efficiency::{EfficiencyModel, RooflineBound, RooflineBreakdown};
pub use engine::{EngineError, EngineReport, RankTimeline, SimEngine, Task, TaskId, TaskKind};
pub use hardware::{GpuGeneration, GpuSpec};
pub use metrics::{mfu, IterationMetrics};
pub use timing::{StageTiming, TimingModel};
pub use topology::{ClusterTopology, NodeSpec, TopologyDelta};

/// The planner benchmark's name for [`ClusterTopology`]; nothing else uses
/// it. It goes with the benchmark's next rewrite (ROADMAP item 3).
pub type ClusterSpec = ClusterTopology;
