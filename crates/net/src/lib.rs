//! The live PVFS cluster and its pluggable RPC transports.
//!
//! [`LiveCluster::spawn`] starts a **worker pool** per I/O daemon plus a
//! manager, mirroring the PVFS deployment of §2 (daemons on I/O nodes,
//! one manager, clients talking to both directly). The client↔daemon
//! path is abstracted by the [`Transport`] trait with two
//! implementations, selected by `PVFS_TRANSPORT=chan|tcp`:
//!
//! * **chan** (default) — in-process bounded channels carrying encoded
//!   wire frames; requests and responses still pass through the real
//!   `pvfs-proto` codec, so the MTU and trailing-data limits are
//!   enforced exactly as on a socket;
//! * **tcp** ([`tcp`]) — real loopback/LAN sockets: length-prefixed
//!   frames with a hard size cap, per-daemon `TcpListener` acceptors
//!   feeding the same bounded worker pools, and a client-side pool of
//!   persistent `TCP_NODELAY` connections.
//!
//! Concurrency model (see [`cluster`] for details):
//!
//! * each daemon is served by `IodConfig::workers` threads (default
//!   `min(4, cores)`) sharing one request queue bounded at
//!   `IodConfig::queue_depth` messages (default 64) — the bound is the
//!   backpressure;
//! * the daemon state itself is sharded by file handle and counts
//!   statistics with atomics, so workers serve disjoint handles in
//!   parallel;
//! * every client RPC carries a deadline (default
//!   [`cluster::DEFAULT_RPC_TIMEOUT`]) bounding the **total** elapsed
//!   time of the RPC; a wedged (or trickling) server produces
//!   `PvfsError::Timeout`, never a hang;
//! * request ids start at 1 — responses with the reserved id 0 are
//!   unattributable and rejected.
//!
//! # One attempt engine
//!
//! Every [`ClusterClient`] RPC runs through one attempt engine that
//! works on *sub-ops*: a target (an I/O daemon or the manager), a
//! request, an ordered mirror chain for failover, and an optional hedge
//! delay. [`ClusterClient::call`] is one sub-op aimed at its explicit
//! target, with no replica expansion. [`ClusterClient::round`] expands
//! its requests across replicas (a pass-through at `r = 1`), runs them
//! as sub-ops, and assembles each op under its write quorum. The engine
//! works in waves: ship every pending sub-op (breaker admission,
//! encode, [`Transport::start`]), wait for and validate each reply,
//! then sort each failure. A failover re-aims a sub-op at its next
//! mirror without consuming a retry; a retry waits out the wave's one
//! backoff sleep; a hedge is a hedged sub-op's wait step; anything else
//! is terminal, and a round aborts once some op can no longer reach its
//! quorum. Outcomes are booked in one place: a decoded reply that is
//! not a shed counts as a success for the daemon's health, a shed only
//! as a shed, a transport failure or timeout as a failure, and latency
//! histograms record successful replies only.
//!
//! The cluster also hosts the [`SerialGate`] clients use to serialize
//! data-sieving writes (PVFS has no file locking; the paper used an
//! `MPI_Barrier` loop).
//!
//! # Surviving a hostile cluster
//!
//! Transient faults are normal operating conditions, not exceptions:
//!
//! * [`fault`] — `PVFS_FAULTS="drop:0.02,disconnect:0.02,corrupt:0.01"`
//!   wraps any transport in a seeded, deterministic fault injector
//!   ([`FaultyTransport`]), turning every suite into a chaos suite;
//! * [`retry`] — every [`ClusterClient`] retries transient failures
//!   ([`pvfs_types::PvfsError::is_retryable`]) of idempotent requests
//!   under a [`RetryPolicy`] (bounded attempts, decorrelated-jitter
//!   backoff, per-op budget; `PVFS_RETRY=off` disables). A failed
//!   fan-out round re-sends **only the failed ops** — healthy servers
//!   see no duplicate traffic;
//! * the TCP connection pool self-heals: a stale parked connection
//!   (server closed it while idle) is evicted and transparently
//!   re-dialed, replaying the in-flight idempotent request once.
//!
//! # Brown-out resilience
//!
//! A list-I/O round is only as fast as the slowest daemon it touches,
//! so one sick daemon browns out the whole cluster. Four layers keep a
//! brown-out local ([`health`] has the model):
//!
//! * **failure detection** — every RPC outcome (plus the cheap `Ping`
//!   probe) feeds a per-daemon [`HealthTracker`]: EWMA latency and
//!   consecutive-failure streaks;
//! * **circuit breakers** — `PVFS_BREAKER`: a daemon past its failure
//!   threshold fails fast with `PvfsError::Unavailable` (closed →
//!   open → half-open probe → closed), so retries stop hammering a
//!   corpse and rounds touching it cost microseconds, not timeouts;
//! * **hedged reads** — `PVFS_HEDGE` (off by default): a read `call`
//!   slower than a percentile of its daemon's history is duplicated on
//!   a second connection, first response wins — the p99 under
//!   transient stalls collapses to the hedge delay;
//! * **load shedding** — a daemon whose bounded queue is full answers
//!   `PvfsError::Overloaded` (retryable, provably unexecuted)
//!   immediately instead of stalling the client into its timeout.

pub mod chan;
pub mod cluster;
pub mod fault;
pub mod gate;
pub mod health;
pub mod latency;
pub mod pool;
pub mod retry;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use cluster::{ClusterClient, LiveCluster, DEFAULT_RPC_TIMEOUT};
pub use fault::{FaultCounts, FaultKind, FaultPlan, FaultyTransport};
pub use gate::SerialGate;
pub use health::{BreakerPolicy, BreakerState, HealthTracker, HedgePolicy, ServerHealthSnapshot};
pub use latency::RpcLatency;
pub use pool::WorkerPool;
pub use pvfs_replica::{ReplicaMap, ReplicaPolicy, ReplicaTarget, WriteQuorum};
pub use retry::{ClientStats, RetryPolicy};
pub use tcp::TcpTransport;
pub use trace::{ActiveTrace, Tracer};
pub use transport::{PendingReply, RpcTarget, Transport, TransportKind, WaitError};
