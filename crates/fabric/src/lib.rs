//! # continuum-fabric
//!
//! Federated function-as-a-service fabric — the funcX analogue of the
//! `coding-the-continuum` reproduction. Functions are registered once with
//! a resource profile ([`FunctionRegistry`]); *endpoints* (worker pools on
//! fleet devices) execute them; site brokers route each invocation under a
//! [`RoutingPolicy`] and simulate queueing and payload movement.
//!
//! [`run_federation`] is the fabric's one event loop. A centralized broker
//! is its one-site arm: pass [`single_site`] and a [`FederationCfg`] with
//! the needed `cold`, `autoscale`, `faults` and `admission` fields. The
//! pre-federation single-broker loop survives only as a test oracle that
//! the one-site, batch-1 arm is asserted bit-identical to.
//!
//! Experiment F7 measures throughput, latency percentiles, and endpoint
//! load balance for each routing policy.

#![warn(missing_docs)]

pub mod broker;
pub mod federation;
pub mod forwarder;
#[cfg(test)]
mod oracle;
pub mod registry;

pub use broker::{
    endpoints_on, Admission, Autoscale, Backoff, ColdStart, Endpoint, EndpointFaults, EndpointId,
    FabricReport, Invocation, RoutingPolicy,
};
pub use federation::{
    run_federation, single_site, sites_from_partition, FederationCfg, FederationReport, Site,
    SiteFaultEvent, SiteFaults, SiteId, SiteStats, WarmPool,
};
pub use forwarder::Forwarder;
pub use registry::{FunctionId, FunctionRegistry, FunctionSpec};
