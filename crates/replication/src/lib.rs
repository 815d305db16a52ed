//! # taurus-replication
//!
//! Availability models for Table 1 of the paper (§4.4): closed-form quorum
//! unavailability (equations 1 and 2), their small-`x` approximations, the
//! Taurus model (writes never blocked by specific-node failures; reads fail
//! only when all three replicas of a slice are down), and a Monte Carlo
//! cluster simulation that validates the formulas empirically.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod montecarlo;
pub mod quorum;

pub use montecarlo::{simulate_quorum, simulate_taurus, MonteCarloResult};
pub use quorum::{
    binomial, quorum_read_unavailability, quorum_write_unavailability, taurus_read_unavailability,
    taurus_write_unavailability, QuorumConfig, TABLE1_ROWS,
};
