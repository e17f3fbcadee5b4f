//! # continuum-placement
//!
//! The "where should I compute?" engine — core contribution A of the
//! `coding-the-continuum` reproduction.
//!
//! - [`env::Env`] bundles topology, routes, and fleet into the environment
//!   policies consult.
//! - [`estimate`] provides the shared contention-free performance model:
//!   device capacity profiles, data-arrival estimates, and
//!   earliest-finish-time queries.
//! - [`objective`] scores placements on makespan, energy, dollars, and
//!   bytes moved, with Pareto utilities for the multi-objective experiment.
//! - [`policies`] implements the baselines (random, round-robin,
//!   edge-only, cloud-only, greedy EFT) and the continuum-aware schedulers
//!   (HEFT, CPOP, data-gravity, simulated annealing).
//! - [`online`] implements the stateful per-request placer for streaming
//!   workloads.

#![warn(missing_docs)]

pub mod delta;
pub mod env;
pub mod estimate;
pub mod objective;
pub mod online;
pub mod policies;
mod scan;

pub use delta::DeltaEvaluator;
pub use env::Env;
pub use estimate::{DeviceTimeline, EstimatedSchedule, Estimator, Placement};
pub use objective::{
    dominates, evaluate, metrics_from_parts, metrics_of, pareto_front, Metrics, WeightedObjective,
};
pub use online::OnlinePlacer;
pub use policies::{
    standard_lineup, AnnealingPlacer, CpopPlacer, DataAwarePlacer, GreedyEftPlacer, HeftPlacer,
    MaxMinPlacer, MinMinPlacer, PeftPlacer, Placer, RandomPlacer, RoundRobinPlacer, TierPlacer,
};
