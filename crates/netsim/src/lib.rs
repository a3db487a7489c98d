//! Geographic datacenter network model.
//!
//! The fleet in the study spans hundreds of clusters in datacenters on
//! several continents; RPC network latency is dominated by wire
//! (speed-of-light) propagation on cross-cluster paths and by congestion
//! episodes in the tail (paper §3.2, §3.3.5, Fig. 19). This crate models:
//!
//! - [`geo`]: coordinates and great-circle propagation delay.
//! - [`topology`]: regions → datacenters → clusters, with a deterministic
//!   world builder.
//! - [`congestion`]: a Markov-modulated congestion process per path that
//!   produces bursty, heavy-tailed excess queueing delay.
//! - [`latency`]: the [`latency::Network`] facade that turns
//!   `(src, dst, bytes, time)` into a one-way message latency.
//!
//! # Examples
//!
//! ```
//! use rpclens_netsim::latency::Network;
//! use rpclens_netsim::topology::Topology;
//! use rpclens_simcore::prelude::*;
//!
//! let topo = Topology::default_world(7);
//! let mut net = Network::new(topo, true, 7);
//! let mut rng = Prng::seed_from(1);
//! let clusters = net.topology().cluster_ids();
//! let (lat, _congested) =
//!     net.one_way_latency(clusters[0], clusters[0], 1024, SimTime::ZERO, &mut rng);
//! // Same-cluster messages stay in the tens of microseconds normally.
//! assert!(lat.as_micros_f64() < 5_000.0);
//! ```

pub mod congestion;
pub mod geo;
pub mod latency;
pub mod topology;
