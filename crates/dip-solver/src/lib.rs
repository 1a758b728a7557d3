//! Optimisation substrate for the DIP reproduction.
//!
//! DIP's per-layer memory optimisation (§5.3 of the paper) solves a small
//! **group-choice ILP** ([`ilp`]) online per pipeline rank: select exactly
//! one memory-strategy candidate per stage pair (the candidates come from a
//! fixed strategy ladder), minimising total latency subject to peak-memory
//! constraints, with a greedy warm start, an optimality-gap early exit and a
//! branch-and-bound node budget. The solver reads no clock, so a solve is a
//! pure function of its problem and options.
//!
//! The same branch-and-bound engine doubles as the stand-in for the
//! commercial solvers (Gurobi/Z3) used by the paper's monolithic-ILP
//! baseline in Fig. 12: the monolithic formulation makes the node count
//! explode, which is precisely the effect the figure demonstrates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ilp;

pub use ilp::{Candidate, GroupChoiceProblem, Solution, SolveOptions, SolveStatus};
