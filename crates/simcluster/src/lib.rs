//! Virtual-time execution of access plans — the paper's testbed,
//! simulated.
//!
//! [`SimCluster::run`] takes one [`ClientJob`] (an
//! [`AccessPlan`](pvfs_core::AccessPlan) plus a
//! user buffer) per simulated compute node and replays them against
//! *real* [`IoDaemon`](pvfs_server::IoDaemon) state machines under the calibrated
//! [`CostConfig`](pvfs_sim::CostConfig): every request really moves its bytes (the data the
//! correctness tests check), while a discrete-event loop advances
//! virtual time through the contended resources of the Chiba City
//! testbed —
//!
//! * each client's CPU and full-duplex NIC (tx/rx),
//! * each server's request-processing CPU, NIC directions, and disk —
//!   the daemons serve bytes only, so the simulator keeps one
//!   [`CostModel`](pvfs_disk::CostModel) (buffer cache + disk timing) per
//!   (server, handle) and charges it with the local runs each request
//!   touched,
//! * the cross-client serialization token for data sieving writes.
//!
//! The returned [`SimReport`] carries per-client completion times — the
//! quantities plotted in the paper's Figures 9–12, 15 and 17.

mod cluster;
#[cfg(test)]
mod tests;

pub use cluster::{
    metadata_rtt_ns, ClientJob, ClientReport, SimCluster, SimReport, TraceEvent, TraceKind,
};
