//! The evaluation harness: regenerates every table and figure of the
//! paper's Section 6.
//!
//! Workflow (shared by the `fig7`, `fig8`, `fig9_ablation`, `table1_dfsio`
//! and `q21_breakdown` binaries):
//!
//! 1. [`harness::measure`] really executes all 13 SSB queries — through
//!    Clydesdale, through both Hive plans, and (for the ablation) through
//!    each feature-disabled Clydesdale variant — on a laptop-scale dataset
//!    over a measurement cluster with the paper's node shape. Every result
//!    is validated against the reference executor; execution produces
//!    hardware-independent [`JobProfile`]s.
//! 2. [`harness::Extrapolator`] rescales the profiles to SF1000 using SSB's
//!    cardinality functions and prices them on the paper's cluster A or B
//!    with the calibrated cost model, reproducing the *shape* of the paper's
//!    results (who wins, by what factor, which configurations OOM).
//!
//! [`JobProfile`]: clyde_mapred::JobProfile

pub mod cli;
pub mod gate;
pub mod harness;
pub mod paper;
pub mod report;
pub mod restore;
pub mod workload;
