//! Umbrella crate for the DIP (Dynamic Interleaved Pipeline) reproduction.
//!
//! Re-exports every subsystem crate under one roof so downstream users can
//! depend on a single crate:
//!
//! * [`models`] — LMM architecture specs, cost model and the model zoo;
//! * [`data`] — synthetic multimodal datasets, packing and dynamic traces;
//! * [`sim`] — the operator-level analytical training simulator;
//! * [`solver`] — the branch-and-bound group-choice ILP solver;
//! * [`pipeline`] — placements, stage graphs, interleaving and baselines;
//! * [`core`] — the DIP planner and the [`core::PlanningSession`] layer;
//! * [`mod@bench`] — the shared experiment harness.
//!
//! See the repository `README.md` for the quickstart and `ARCHITECTURE.md`
//! for the layer-by-layer map of the planning stack.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dip_bench as bench;
pub use dip_core as core;
pub use dip_data as data;
pub use dip_models as models;
pub use dip_pipeline as pipeline;
pub use dip_sim as sim;
pub use dip_solver as solver;
