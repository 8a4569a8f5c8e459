//! Threaded cluster and its RPC client.
//!
//! # Concurrency model
//!
//! Each I/O daemon is served by a **pool** of [`IodConfig::workers`]
//! threads (default [`pvfs_server::default_workers`]) sharing one
//! request queue bounded at [`IodConfig::queue_depth`] messages. The
//! daemon itself is thread-safe ([`IoDaemon::handle`] takes `&self`
//! over a handle-sharded file table), so requests for different file
//! handles execute genuinely in parallel; the bounded queue gives
//! backpressure instead of unbounded memory growth when clients outrun
//! a server. The manager stays single-threaded — metadata operations
//! are rare and order-sensitive.
//!
//! # Transports
//!
//! The cluster speaks one of two [`Transport`]s, chosen by
//! [`TransportKind::from_env`] (`PVFS_TRANSPORT=chan|tcp`, default
//! `chan`) or explicitly via [`LiveCluster::spawn_transport`]:
//!
//! * **chan** — every daemon queue is an in-process bounded channel;
//! * **tcp** — every daemon gets a loopback `TcpListener`
//!   ([`crate::tcp`]), and clients speak length-prefixed frames over a
//!   pooled socket per in-flight request.
//!
//! [`ClusterClient`] is identical over both: same codec, same request
//! ids, same deadlines, same diagnostics.
//!
//! # RPC discipline
//!
//! Request ids start at 1; **id 0 is reserved** for responses that
//! cannot be attributed to a request (the frame's header itself was
//! unreadable). Servers echo the real request id on error responses
//! whenever the fixed header is parsable ([`pvfs_proto::decode_frame_id`]),
//! even if the body is corrupt. Clients verify that every response id
//! matches the request that awaited it, and reject an id-0 response as
//! a protocol error naming the daemon and request. Every receive
//! carries a deadline ([`ClusterClient::with_rpc_timeout`], default
//! [`DEFAULT_RPC_TIMEOUT`]) that bounds the **total** elapsed time of
//! the RPC — a TCP response dribbling in over many partial reads is
//! charged against one deadline, not one per read — so a wedged server
//! yields [`PvfsError::Timeout`] instead of hanging the client.

use bytes::Bytes;
use pvfs_disk::StorageConfig;
use pvfs_proto::{
    decode_response, encode_message_traced, encode_response, frame_is_stats_scrape, Message,
    OpClass, Request, Response,
};
use pvfs_replica::{ReplicaMap, ReplicaPolicy};
use pvfs_server::{IoDaemon, IodConfig, Manager, ServerStats};
use pvfs_types::trace::now_ns;
use pvfs_types::{
    ClientId, Histogram, PvfsError, PvfsResult, RequestId, ServerId, SpanId, StatsSnapshot,
    StripeLayout, TraceContext, TraceId, TraceMode, TraceTree,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chan::{bounded, Sender};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::gate::SerialGate;
use crate::health::{BreakerPolicy, BreakerState, HealthTracker, HedgePolicy};
use crate::latency::RpcLatency;
use crate::pool::WorkerPool;
use crate::retry::{AtomicClientStats, Backoff, ClientStats, RetryPolicy};
use crate::tcp::{TcpCluster, TcpTransport};
use crate::trace::{ActiveTrace, Tracer};
use crate::transport::{
    serve_frame, ChanTransport, NodeMsg, PendingReply, RpcTarget, Transport, TransportKind,
    WaitError,
};

/// Default deadline for one RPC before the client reports
/// [`PvfsError::Timeout`]. Generous: the in-process servers answer in
/// microseconds unless wedged.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon-side machinery behind a [`LiveCluster`], per transport.
enum Backend {
    Chan {
        server_txs: Vec<Sender<NodeMsg>>,
        mgr_tx: Sender<NodeMsg>,
        pools: Vec<WorkerPool>,
        mgr_thread: Option<JoinHandle<()>>,
    },
    Tcp(TcpCluster),
}

/// A live PVFS cluster: a worker pool per I/O daemon plus a manager,
/// fronted by a channel or TCP transport. Dropping the cluster shuts
/// every thread (and listener) down.
pub struct LiveCluster {
    daemons: Vec<Arc<IoDaemon>>,
    transport: Arc<dyn Transport>,
    backend: Backend,
    next_client: AtomicU32,
    gate: Arc<SerialGate>,
    /// Data directory this cluster created for itself from
    /// `PVFS_STORAGE` (deleted when the guard drops — last field, so
    /// removal happens after both transport backends have joined their
    /// threads). Clusters given an explicit [`StorageConfig`] own
    /// nothing: their directories outlive them, which is what lets
    /// restart tests recover a predecessor's data.
    _scratch_storage: Option<StorageScratch>,
}

/// Removes an env-derived storage directory on drop.
struct StorageScratch(PathBuf);

impl Drop for StorageScratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Distinguishes the data directories of concurrently-spawned clusters
/// within one process (env-derived storage only).
static NEXT_STORAGE_RUN: AtomicU64 = AtomicU64::new(0);

impl LiveCluster {
    /// Spawn a cluster with `n_servers` I/O daemons (ids `0..n`) using
    /// the default worker pool.
    pub fn spawn(n_servers: u32) -> LiveCluster {
        LiveCluster::spawn_with(n_servers, IodConfig::default())
    }

    /// Spawn with explicit daemon configuration (including
    /// [`IodConfig::workers`] and [`IodConfig::queue_depth`]). The
    /// transport comes from `PVFS_TRANSPORT` (default: channels).
    pub fn spawn_with(n_servers: u32, config: IodConfig) -> LiveCluster {
        LiveCluster::spawn_transport(n_servers, config, TransportKind::from_env())
    }

    /// Spawn with an explicit transport. The storage backend comes from
    /// `PVFS_STORAGE`/`PVFS_SYNC` (default: memory); a `file:<dir>`
    /// selection gets a per-cluster unique subdirectory of `<dir>` that
    /// is deleted when the cluster drops, so concurrent test clusters
    /// never collide on handle numbers and leave nothing behind.
    pub fn spawn_transport(n_servers: u32, config: IodConfig, kind: TransportKind) -> LiveCluster {
        let storage = StorageConfig::from_env().expect("PVFS_STORAGE/PVFS_SYNC");
        let (storage, scratch) = match storage {
            StorageConfig::File { dir, sync } => {
                let unique = dir.join(format!(
                    "run-{}-{}",
                    std::process::id(),
                    NEXT_STORAGE_RUN.fetch_add(1, Ordering::Relaxed)
                ));
                (
                    StorageConfig::File {
                        dir: unique.clone(),
                        sync,
                    },
                    Some(StorageScratch(unique)),
                )
            }
            mem => (mem, None),
        };
        LiveCluster::spawn_inner(n_servers, config, kind, storage, scratch)
    }

    /// Spawn with an explicit transport *and* storage backend. The file
    /// backend's directory is used exactly as given and is NOT deleted
    /// at Drop — spawn a second cluster over the same directory to
    /// exercise crash recovery.
    pub fn spawn_storage(
        n_servers: u32,
        config: IodConfig,
        kind: TransportKind,
        storage: StorageConfig,
    ) -> LiveCluster {
        LiveCluster::spawn_inner(n_servers, config, kind, storage, None)
    }

    fn spawn_inner(
        n_servers: u32,
        config: IodConfig,
        kind: TransportKind,
        storage: StorageConfig,
        scratch_storage: Option<StorageScratch>,
    ) -> LiveCluster {
        assert!(n_servers > 0, "need at least one I/O server");
        let daemons: Vec<Arc<IoDaemon>> = (0..n_servers)
            .map(|i| {
                Arc::new(IoDaemon::with_storage(
                    ServerId(i),
                    config,
                    storage.for_daemon(i),
                ))
            })
            .collect();
        let (transport, backend): (Arc<dyn Transport>, Backend) = match kind {
            TransportKind::Chan => {
                let (server_txs, pools): (Vec<_>, Vec<_>) = daemons
                    .iter()
                    .map(|daemon| spawn_chan_server(daemon.clone(), config))
                    .unzip();
                let (mgr_tx, mgr_rx) = bounded::<NodeMsg>(config.queue_depth.max(1));
                let mgr_thread = std::thread::Builder::new()
                    .name("pvfs-mgr".into())
                    .spawn(move || {
                        let mut manager = Manager::new();
                        while let Ok(msg) = mgr_rx.recv() {
                            match msg {
                                NodeMsg::Rpc(frame, reply, queued_at) => {
                                    // Stats scrapes observe without
                                    // perturbing: no wire or timing
                                    // accounting for their own frames.
                                    let scrape = frame_is_stats_scrape(&frame);
                                    if !scrape {
                                        manager.record_wire_rx(frame.len() as u64);
                                    }
                                    let waited = queued_at.elapsed();
                                    let served_at = Instant::now();
                                    let (id, response) = serve_frame(frame, |req, ctx| {
                                        manager.handle_traced(req, ctx, waited)
                                    });
                                    let encoded = encode_response(id, &response);
                                    if !scrape {
                                        manager.record_service(served_at.elapsed());
                                        manager.record_wire_tx(encoded.len() as u64);
                                    }
                                    let _ = reply.send(encoded);
                                }
                                NodeMsg::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn manager thread");
                let queue_marks: Vec<Arc<dyn Fn() + Send + Sync>> = daemons
                    .iter()
                    .map(|d| {
                        let d = d.clone();
                        Arc::new(move || d.note_queued()) as Arc<dyn Fn() + Send + Sync>
                    })
                    .collect();
                let shed_marks: Vec<Arc<dyn Fn() + Send + Sync>> = daemons
                    .iter()
                    .map(|d| {
                        let d = d.clone();
                        Arc::new(move || d.note_shed()) as Arc<dyn Fn() + Send + Sync>
                    })
                    .collect();
                (
                    Arc::new(
                        ChanTransport::new(server_txs.clone(), mgr_tx.clone())
                            .with_queue_marks(queue_marks)
                            .with_shed_marks(shed_marks),
                    ),
                    Backend::Chan {
                        server_txs,
                        mgr_tx,
                        pools,
                        mgr_thread: Some(mgr_thread),
                    },
                )
            }
            TransportKind::Tcp => {
                let tcp = TcpCluster::spawn(&daemons, config);
                (
                    Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr())),
                    Backend::Tcp(tcp),
                )
            }
        };
        // One env var turns any suite into a chaos suite: wrap the real
        // transport in the seeded fault injector.
        let transport = match FaultPlan::from_env() {
            Some(plan) if plan.is_active() => {
                Arc::new(FaultyTransport::new(transport, plan)) as Arc<dyn Transport>
            }
            _ => transport,
        };
        LiveCluster {
            daemons,
            transport,
            backend,
            next_client: AtomicU32::new(0),
            gate: Arc::new(SerialGate::new()),
            _scratch_storage: scratch_storage,
        }
    }

    /// Wrap this cluster's transport in a chaos layer injecting `plan`
    /// (the programmatic equivalent of `PVFS_FAULTS`; layers stack).
    /// Call before creating clients — existing [`ClusterClient`]s keep
    /// the transport they were built with.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.transport = Arc::new(FaultyTransport::new(self.transport.clone(), plan));
    }

    /// Number of I/O servers.
    pub fn n_servers(&self) -> u32 {
        self.daemons.len() as u32
    }

    /// Which transport the cluster speaks.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// The client-side transport — the same handle every
    /// [`ClusterClient`] of this cluster uses.
    pub fn transport(&self) -> Arc<dyn Transport> {
        self.transport.clone()
    }

    /// Worker threads serving each I/O daemon.
    pub fn workers_per_server(&self) -> usize {
        match &self.backend {
            Backend::Chan { pools, .. } => pools.first().map(|p| p.workers()).unwrap_or(0),
            Backend::Tcp(tcp) => tcp.workers_per_server(),
        }
    }

    /// A new client endpoint (unique client id; cheap to create, cheap
    /// to clone).
    pub fn client(&self) -> ClusterClient {
        ClusterClient::with_transport(
            ClientId(self.next_client.fetch_add(1, Ordering::Relaxed)),
            self.transport.clone(),
            self.gate.clone(),
        )
    }

    /// Statistics snapshot of one I/O daemon.
    pub fn server_stats(&self, server: ServerId) -> Option<ServerStats> {
        self.daemons.get(server.index()).map(|d| d.stats())
    }

    /// Direct handle on one I/O daemon (verification oracles and storage
    /// crash injection in tests).
    pub fn daemon(&self, server: ServerId) -> Option<Arc<IoDaemon>> {
        self.daemons.get(server.index()).cloned()
    }

    /// Full in-process statistics snapshot of one I/O daemon — the same
    /// [`StatsSnapshot`] the `GetStats` RPC returns, counters and
    /// histograms included.
    pub fn stats_snapshot(&self, server: ServerId) -> Option<StatsSnapshot> {
        self.daemons.get(server.index()).map(|d| d.stats_snapshot())
    }

    /// The cluster-wide serialization gate (data sieving writes).
    pub fn gate(&self) -> Arc<SerialGate> {
        self.gate.clone()
    }
}

/// One channel-backed I/O daemon: its bounded queue and worker pool.
fn spawn_chan_server(daemon: Arc<IoDaemon>, config: IodConfig) -> (Sender<NodeMsg>, WorkerPool) {
    let name = format!("iod{}", daemon.id().0);
    WorkerPool::spawn(
        &name,
        config.workers.max(1),
        config.queue_depth.max(1),
        move |msg: NodeMsg| match msg {
            NodeMsg::Rpc(frame, reply, queued_at) => {
                // Stats scrapes are pure observers: no wire accounting,
                // no queue/service samples, so the snapshot they carry
                // back equals the in-process one byte for byte.
                let scrape = frame_is_stats_scrape(&frame);
                let waited = queued_at.elapsed();
                if !scrape {
                    // The channel transport has no length prefix; its
                    // wire size is the frame itself.
                    daemon.record_wire_rx(frame.len() as u64);
                    daemon.begin_service(waited);
                }
                let served_at = Instant::now();
                let (id, response) =
                    serve_frame(frame, |req, ctx| daemon.handle_traced(req, ctx, waited));
                // Emulated service time occupies the worker, the way a
                // blocking disk access would; replies only after the
                // stall.
                if let Some(stall) = config.emulated_latency {
                    std::thread::sleep(stall);
                }
                let encoded = encode_response(id, &response);
                if !scrape {
                    daemon.end_service(served_at.elapsed());
                    daemon.record_wire_tx(encoded.len() as u64);
                }
                let _ = reply.send(encoded);
                std::ops::ControlFlow::Continue(())
            }
            NodeMsg::Shutdown => std::ops::ControlFlow::Break(()),
        },
    )
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        // PVFS_STATS=dump: one JSON line per daemon to stderr at
        // teardown, so any run (bench, shell, test) can be scraped
        // post-hoc without instrumenting the caller.
        if std::env::var("PVFS_STATS").as_deref() == Ok("dump") {
            for daemon in &self.daemons {
                eprintln!(
                    "{{\"daemon\":\"iod{}\",\"stats\":{}}}",
                    daemon.id().0,
                    daemon.stats_snapshot().to_json()
                );
            }
        }
        // The TCP backend tears itself down (TcpCluster/TcpServer Drop);
        // the channel backend drains here.
        if let Backend::Chan {
            server_txs,
            mgr_tx,
            pools,
            mgr_thread,
        } = &mut self.backend
        {
            for (tx, pool) in server_txs.iter().zip(pools.iter()) {
                // One Shutdown per worker: each worker consumes exactly
                // one and exits.
                for _ in 0..pool.workers() {
                    let _ = tx.send(NodeMsg::Shutdown);
                }
            }
            let _ = mgr_tx.send(NodeMsg::Shutdown);
            for pool in pools.drain(..) {
                pool.join();
            }
            if let Some(t) = mgr_thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// A client endpoint of a [`LiveCluster`] (or any [`Transport`]).
#[derive(Clone)]
pub struct ClusterClient {
    id: ClientId,
    transport: Arc<dyn Transport>,
    next_request: Arc<AtomicU64>,
    gate: Arc<SerialGate>,
    rpc_timeout: Duration,
    retry: RetryPolicy,
    stats: Arc<AtomicClientStats>,
    latency: Arc<RpcLatency>,
    /// Per-daemon failure detector + circuit breakers, shared by every
    /// clone: all of an endpoint's traffic contributes health signal.
    health: Arc<HealthTracker>,
    hedge: HedgePolicy,
    /// Stripe replication placement (`PVFS_REPLICAS`); one copy per
    /// slot (today's behavior) unless mirroring is configured.
    replica: Arc<ReplicaMap>,
    /// Trace origin (`PVFS_TRACE`): sampling decisions, the client-side
    /// flight recorder, and the retained-trace index. Shared by clones.
    tracer: Arc<Tracer>,
}

impl ClusterClient {
    /// A client endpoint over an explicit transport. [`LiveCluster::client`]
    /// is the usual way in; this is the seam for pointing a client at a
    /// remote cluster's listeners (or a test double).
    pub fn with_transport(
        id: ClientId,
        transport: Arc<dyn Transport>,
        gate: Arc<SerialGate>,
    ) -> ClusterClient {
        let latency = Arc::new(RpcLatency::new(transport.n_servers()));
        let health = Arc::new(HealthTracker::new(
            transport.n_servers(),
            BreakerPolicy::from_env(),
        ));
        // Malformed replication env panics like the other PVFS_*
        // variables: a typo'd run must not silently change placement.
        let policy = ReplicaPolicy::from_env(transport.n_servers())
            .unwrap_or_else(|e| panic!("replica configuration rejected: {e}"));
        let replica = Arc::new(ReplicaMap::new(transport.n_servers(), policy));
        ClusterClient {
            id,
            transport,
            // Id 0 is reserved for unattributable responses.
            next_request: Arc::new(AtomicU64::new(1)),
            gate,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::from_env(),
            stats: Arc::new(AtomicClientStats::default()),
            latency,
            health,
            hedge: HedgePolicy::from_env(),
            replica,
            tracer: Arc::new(Tracer::from_env(format!("client{}", id.0))),
        }
    }

    /// This endpoint's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of I/O servers reachable.
    pub fn n_servers(&self) -> u32 {
        self.transport.n_servers()
    }

    /// The cluster's serialization gate.
    pub fn gate(&self) -> &SerialGate {
        &self.gate
    }

    /// This endpoint with a different per-RPC deadline.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> ClusterClient {
        self.rpc_timeout = timeout;
        self
    }

    /// The per-RPC deadline currently in force.
    pub fn rpc_timeout(&self) -> Duration {
        self.rpc_timeout
    }

    /// This endpoint with a different retry policy
    /// ([`RetryPolicy::none`] turns retries off).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> ClusterClient {
        self.retry = retry;
        self
    }

    /// The retry policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// This endpoint with a fresh [`HealthTracker`] under a different
    /// breaker policy ([`BreakerPolicy::off`] disables breakers).
    /// Existing clones keep the tracker they were built with; clones
    /// taken *after* this call share the new one.
    pub fn with_breaker_policy(mut self, policy: BreakerPolicy) -> ClusterClient {
        self.health = Arc::new(HealthTracker::new(self.transport.n_servers(), policy));
        self
    }

    /// This endpoint with a different hedging policy
    /// ([`HedgePolicy::on`] enables hedged reads).
    pub fn with_hedge_policy(mut self, hedge: HedgePolicy) -> ClusterClient {
        self.hedge = hedge;
        self
    }

    /// This endpoint with an explicit replication policy (tests and
    /// tools; the usual way in is `PVFS_REPLICAS`).
    pub fn with_replica_policy(mut self, policy: ReplicaPolicy) -> ClusterClient {
        self.replica = Arc::new(ReplicaMap::new(self.transport.n_servers(), policy));
        self
    }

    /// The stripe replication placement map in force.
    pub fn replica_map(&self) -> &ReplicaMap {
        &self.replica
    }

    /// The replication policy in force.
    pub fn replica_policy(&self) -> ReplicaPolicy {
        self.replica.policy()
    }

    /// This endpoint with an explicit trace mode (the usual way in is
    /// `PVFS_TRACE`). Existing clones keep the tracer they were built
    /// with; clones taken after this call share the new one.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> ClusterClient {
        self.tracer = Arc::new(Tracer::new(mode, format!("client{}", self.id.0)));
        self
    }

    /// This endpoint's trace origin: sampling mode, client flight
    /// recorder, and the retained-trace index behind `trace last`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Assemble the full cross-node tree of one trace: this endpoint's
    /// retained client spans plus a best-effort `GetTrace` scrape of
    /// every I/O daemon and the manager. Scrapes are control operations
    /// under the observer-effect guarantee — they perturb no counters
    /// and record no spans — so assembling a waterfall never changes
    /// what the next waterfall shows. A daemon that cannot answer
    /// (down, breaker-open) simply contributes nothing; its spans
    /// surface as orphans if its children made it back.
    pub fn fetch_trace(&self, trace: TraceId) -> TraceTree {
        let mut spans = self.tracer.recorder().for_trace(trace);
        for s in 0..self.transport.n_servers() {
            if let Ok(Response::Spans(v)) =
                self.call(RpcTarget::Server(ServerId(s)), Request::GetTrace { trace })
            {
                spans.extend(v);
            }
        }
        if let Ok(Response::Spans(v)) = self.call(RpcTarget::Manager, Request::GetTrace { trace }) {
            spans.extend(v);
        }
        TraceTree::assemble(trace, spans)
    }

    /// The per-daemon failure detector (breaker states, EWMA latency)
    /// of this endpoint and all its clones.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The hedging policy currently in force.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.hedge
    }

    /// Probe one daemon's liveness with the cheap [`Request::Ping`] RPC
    /// and return its current queue depth. The probe rides the ordinary
    /// call path on purpose: its round-trip feeds the same
    /// [`HealthTracker`] EWMA and breaker as real traffic, so a
    /// background pinger doubles as a failure detector. A ping to an
    /// open-circuit daemon fails fast with `Unavailable` — use
    /// [`ClusterClient::health`] to watch for the half-open window if
    /// you are probing for recovery.
    pub fn ping(&self, server: ServerId) -> PvfsResult<u64> {
        match self.call(RpcTarget::Server(server), Request::Ping)? {
            Response::Pong { queue_depth } => Ok(queue_depth),
            other => Err(PvfsError::Protocol(format!(
                "ping to server {} answered {other:?}",
                server.0
            ))),
        }
    }

    /// Reliability counters of this endpoint and all its clones:
    /// attempts, retries, backoff slept, faults the transport injected.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot(self.transport.faults_injected())
    }

    /// Per-server, per-op-class RPC latency histograms of this endpoint
    /// and all its clones (successful RPCs only, control scrapes
    /// excluded; each attempt's latency stands alone — backoff sleeps
    /// are counted separately in [`ClusterClient::stats`]).
    pub fn latency(&self) -> &RpcLatency {
        &self.latency
    }

    /// This endpoint's whole RPC latency distribution, merged across
    /// servers and classes.
    pub fn latency_snapshot(&self) -> Histogram {
        self.latency.snapshot_all()
    }

    /// Encode one request, stamping `ctx` into a version-2 frame when
    /// the operation is traced. Untraced requests (`ctx == None`)
    /// encode byte-identical version-1 frames — `PVFS_TRACE=off` sends
    /// exactly the bytes an untraced build sends.
    fn encode(
        &self,
        request: Request,
        ctx: Option<TraceContext>,
    ) -> PvfsResult<(RequestId, Bytes)> {
        let id = RequestId(self.next_request.fetch_add(1, Ordering::Relaxed));
        let frame = encode_message_traced(
            &Message {
                client: self.id,
                id,
                request,
            },
            ctx,
        )?;
        Ok((id, frame))
    }

    /// One synchronous RPC: a single sub-op aimed at exactly `target`,
    /// never expanded across replicas (`PvfsFile` and `scrub` aim calls
    /// at specific copies). Errors returned by the server come back as
    /// `Err`; no reply within the deadline is [`PvfsError::Timeout`].
    ///
    /// Transient failures ([`PvfsError::is_retryable`]) are retried
    /// under this endpoint's [`RetryPolicy`], each attempt on a fresh
    /// request id — when the request is idempotent
    /// ([`Request::is_idempotent`]), or when the failure proves the
    /// request never executed ([`PvfsError::is_definitely_not_executed`],
    /// e.g. a server-side shed): replaying an op that never ran cannot
    /// duplicate its effect. Backoff sleeps are clamped to the
    /// remaining per-op budget, so the error surfaces at the budget
    /// boundary instead of after one last full-length sleep. Read-class
    /// calls to a daemon are hedged under an enabled [`HedgePolicy`].
    pub fn call(&self, target: RpcTarget, request: Request) -> PvfsResult<Response> {
        // Control scrapes are never traced: tracing the collection of
        // traces would perturb the very rings being observed.
        let active = if request.is_control_scrape() {
            None
        } else {
            self.tracer.begin("call")
        };
        let hedge_after = match target {
            RpcTarget::Server(_) if self.hedge.enabled && request.op_class() == OpClass::Read => {
                let snap = self.latency.snapshot(target, OpClass::Read);
                let observed = (snap.count() > 0)
                    .then(|| Duration::from_nanos(snap.percentile_ns(self.hedge.percentile)));
                Some(self.hedge.delay(observed).min(self.rpc_timeout))
            }
            _ => None,
        };
        let sub = SubOp {
            hedge_after,
            ..SubOp::new(target, request)
        };
        let result = self
            .run(vec![sub], &[(0..1, 1)], active.as_ref())
            .map(|mut replies| replies.pop().flatten().expect("a met quorum has a reply"));
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        result
    }

    /// Issue several requests in parallel (the fan-out of one plan
    /// round) and collect responses in request order. Failure
    /// diagnostics name the server and request id at fault.
    ///
    /// # Partial-round recovery
    ///
    /// When some ops of a round fail transiently, only the *failed* ops
    /// are re-sent (fresh request ids), only to the servers that failed
    /// — responses already collected are kept and the healthy servers
    /// see no duplicate traffic. This is safe because every data-path
    /// request is idempotent ([`Request::is_idempotent`]). The round
    /// aborts with an op's error as soon as that op can no longer
    /// succeed: a deterministic error, an exhausted [`RetryPolicy`], or
    /// a lost write quorum.
    ///
    /// # Brown-out behavior
    ///
    /// A daemon whose circuit breaker is open fails its ops *at ship
    /// time* with [`PvfsError::Unavailable`] — no queueing, no timeout
    /// wait — while every other daemon's ops in the same round ship and
    /// execute as usual. The round then surfaces the `Unavailable`
    /// (deliberately non-retryable: spinning against an open breaker
    /// would defeat it), so a round touching one dead daemon costs
    /// microseconds, not an RPC timeout per attempt.
    ///
    /// # Replication
    ///
    /// With `PVFS_REPLICAS` > 1 every data op expands transparently:
    /// writes fan out to all `r` copies of their stripe slot and
    /// succeed once the configured quorum acknowledges; reads go to the
    /// healthiest copy (breaker state, then latency EWMA) and *fail
    /// over* to the next mirror on breaker-open/timeout instead of
    /// erroring the round. At `r = 1` (the default) every request is
    /// one sub-op aimed where the caller aimed it.
    pub fn round(&self, requests: Vec<(ServerId, Request)>) -> PvfsResult<Vec<Response>> {
        let active = self.tracer.begin("round");
        let result = self.round_in(requests, active.as_ref());
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        result
    }

    /// [`ClusterClient::round`] under a caller-owned trace — the seam
    /// for higher layers (the plan executor, the collective engines)
    /// that open their own root span and want the round's RPC attempts
    /// recorded inside it. `None` runs the round untraced.
    pub fn round_in(
        &self,
        requests: Vec<(ServerId, Request)>,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Vec<Response>> {
        let (subs, ops) = self.expand(requests);
        let mut replies = self.run(subs, &ops, trace)?;
        Ok(ops
            .iter()
            .map(|(range, _)| {
                let copies = &mut replies[range.clone()];
                if copies.len() > 1 {
                    // A replicated write. Quorum met but a copy missed
                    // the write: divergence for a later scrub to repair.
                    let oks = copies.iter().flatten().count();
                    if oks < copies.len() {
                        self.stats.record_quorum_shortfall();
                    }
                    if let Some(a) = trace {
                        a.annotate(format!("quorum_ack:{oks}/{}", copies.len()));
                    }
                }
                // Copies apply identical local runs, so the first
                // acknowledged copy's reply stands for the op.
                let first = copies.iter_mut().find_map(Option::take);
                first.expect("quorum met")
            })
            .collect())
    }

    /// The replica-expansion pre-pass of a round. Unreplicated and
    /// placement-free requests (pings, barriers, scrapes) pass through
    /// as one sub-op each. With `PVFS_REPLICAS` > 1 a write fans out to
    /// every copy of its stripe slot under the write quorum, and a read
    /// goes to the healthiest copy with the others as its failover chain.
    fn expand(&self, requests: Vec<(ServerId, Request)>) -> (Vec<SubOp>, Vec<Quorum>) {
        let map = &self.replica;
        let mut subs = Vec::with_capacity(requests.len());
        let mut ops = Vec::with_capacity(requests.len());
        for (server, request) in requests {
            let first = subs.len();
            let mut required = 1;
            let layout = request_layout(&request).copied();
            match layout.filter(|_| map.policy().enabled()) {
                None => subs.push(SubOp::new(RpcTarget::Server(server), request)),
                Some(layout) => {
                    let slot = pvfs_replica::slot_of_server(&layout, server);
                    debug_assert!(slot < layout.pcount, "round target is not in the layout");
                    let mut copies = map.copies(&layout, slot);
                    let write = request.op_class() == OpClass::Write;
                    if write {
                        required = map.policy().required() as usize;
                    } else {
                        // Closed breakers first, then the fastest latency
                        // EWMA (untried copies count as fast, worth
                        // probing), then the primary.
                        copies.sort_by_key(|t| {
                            let open = self.health.state(t.server) == BreakerState::Open;
                            let ewma = self.health.ewma(t.server).map_or(0, |d| d.as_nanos());
                            (open, ewma, t.copy)
                        });
                    }
                    let mut aimed = copies.iter().map(|t| {
                        let copy = map.rewrite_request(&request, slot, t.copy);
                        SubOp::new(RpcTarget::Server(t.server), copy)
                    });
                    if write {
                        subs.extend(aimed);
                    } else {
                        let best = aimed.next().expect("at least one copy");
                        let mirrors = aimed.map(|m| (m.target, m.request)).collect();
                        subs.push(SubOp { mirrors, ..best });
                    }
                }
            }
            ops.push((first..subs.len(), required));
        }
        (subs, ops)
    }

    /// The attempt engine behind [`ClusterClient::call`] and
    /// [`ClusterClient::round_in`]. Each wave ships every pending
    /// sub-op before waiting on any reply, settles the replies, and
    /// sorts each failure. A failover re-aims the sub-op at its next
    /// mirror and re-ships it at once without consuming a retry
    /// (abandoning a dead copy is progress, so losing a daemon costs
    /// one timeout, never a retry storm). A transient failure of a
    /// replayable request is retried after the wave's one backoff
    /// sleep. Anything else is terminal. The engine aborts with the
    /// error that leaves an op short of its quorum; otherwise it
    /// returns every sub-op's reply (`None` for write copies that
    /// failed within their quorum).
    fn run(
        &self,
        mut subs: Vec<SubOp>,
        ops: &[Quorum],
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Vec<Option<Response>>> {
        // Per op: sub-ops that failed terminally.
        let mut lost = vec![0; ops.len()];
        let mut replies: Vec<Option<Response>> = (0..subs.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..subs.len()).collect();
        let started = Instant::now();
        let mut backoff: Option<Backoff> = None;
        let mut wave = 1u32;
        // Control scrapes stay off the client counters (the daemons
        // exclude them too): reading stats or a trace must not advance
        // the very counters being read.
        let booked = |subs: &[SubOp], i: usize| !subs[i].request.is_control_scrape();
        loop {
            self.stats
                .record_attempts(pending.iter().filter(|&&i| booked(&subs, i)).count() as u64);
            // Ship every pending sub-op, then settle the replies; a
            // refused frame settles at once, so its span ends with it.
            let mut outcomes = Vec::with_capacity(pending.len());
            let mut inflight = Vec::with_capacity(pending.len());
            for &i in &pending {
                match self.ship(&subs[i], trace) {
                    Err(e) => outcomes.push((i, Err(e))),
                    Ok(a) if matches!(a.reply, Reply::Refused(_)) => {
                        outcomes.push((i, self.settle(&subs[i], a, wave, trace)))
                    }
                    Ok(a) => inflight.push((i, a)),
                }
            }
            for (i, a) in inflight {
                outcomes.push((i, self.settle(&subs[i], a, wave, trace)));
            }
            let (mut failover, mut retry, mut terminal) = (Vec::new(), Vec::new(), Vec::new());
            for (i, outcome) in outcomes {
                let e = match outcome {
                    Ok(reply) => {
                        replies[i] = Some(reply);
                        continue;
                    }
                    Err(e) => e,
                };
                let sub = &mut subs[i];
                if failover_worthy(&e) {
                    if let Some((target, request)) = sub.mirrors.pop_front() {
                        // This copy is unreachable, gated, or shedding:
                        // the op has not failed, the next mirror serves it.
                        (sub.target, sub.request, sub.failed_over) = (target, request, true);
                        self.stats.record_replica_failover();
                        failover.push(i);
                        continue;
                    }
                }
                let replayable = sub.request.is_idempotent() || e.is_definitely_not_executed();
                if e.is_retryable() && replayable {
                    retry.push((i, e));
                } else {
                    terminal.push((i, e));
                }
            }
            let exhausted =
                wave >= self.retry.max_attempts || started.elapsed() >= self.retry.budget;
            if failover.is_empty() && exhausted {
                terminal.append(&mut retry);
            }
            for (i, e) in terminal {
                let o = ops.partition_point(|(range, _)| range.end <= i);
                let (range, required) = &ops[o];
                lost[o] += 1;
                if lost[o] > range.len() - required {
                    return Err(e);
                }
            }
            if failover.is_empty() {
                if retry.is_empty() {
                    return Ok(replies);
                }
                let delay = backoff
                    .get_or_insert_with(|| self.new_backoff())
                    .next_delay()
                    .min(self.retry.budget.saturating_sub(started.elapsed()));
                let retried = retry.iter().filter(|(i, _)| booked(&subs, *i)).count();
                if retried > 0 {
                    self.stats.record_retries(retried as u64, delay);
                }
                std::thread::sleep(delay);
                wave += 1;
            }
            pending = failover
                .into_iter()
                .chain(retry.into_iter().map(|(i, _)| i))
                .collect();
            pending.sort_unstable();
        }
    }

    /// Ship one attempt of `sub`: breaker admission (I/O daemons only;
    /// the manager is never gated), encode, then [`Transport::start`].
    /// A hedged sub-op leaves its frame to the race that is its wait
    /// step. An `Err` means nothing reached the wire and no span opened.
    fn ship(&self, sub: &SubOp, trace: Option<&ActiveTrace>) -> PvfsResult<Attempt> {
        if let RpcTarget::Server(server) = sub.target {
            if let Err(e) = self.health.admit(server) {
                self.stats.record_breaker_rejection();
                return Err(e);
            }
        }
        let shipped_at = Instant::now();
        let span = trace.map(|_| (SpanId::next(), now_ns()));
        let ctx = trace.zip(span).map(|(a, (sid, _))| a.ctx(sid));
        let (id, frame) = self.encode(sub.request.clone(), ctx)?;
        let reply = match sub.hedge_after {
            None => match self.transport.start(sub.target, frame) {
                Ok(pending) => {
                    if let (Some(a), Some((sid, t0))) = (trace, span) {
                        a.span(sid, "send", t0, Vec::new());
                    }
                    Reply::Pending(pending)
                }
                Err(e) => Reply::Refused(e),
            },
            Some(after) => Reply::Hedged(frame, after),
        };
        Ok(Attempt {
            id,
            shipped_at,
            span,
            reply,
        })
    }

    /// Wait for one attempt's reply (a hedged sub-op runs its race
    /// here), validate it, and book the outcome: the one place attempt
    /// outcomes reach the failure detector, the latency histograms, the
    /// shed counter and the trace. A daemon that answers, even with an
    /// error, is alive; a shed is neither success nor failure;
    /// transport-class failures count toward the breaker; latency
    /// records successful replies to data and metadata requests only.
    fn settle(
        &self,
        sub: &SubOp,
        attempt: Attempt,
        wave: u32,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Response> {
        let (mut id, span, mut hedge) = (attempt.id, attempt.span, None);
        let raw = match attempt.reply {
            Reply::Refused(e) => Err(WaitError::Failed(e)),
            Reply::Pending(pending) => {
                let recv_ns = now_ns();
                let raw = pending.wait(self.rpc_timeout);
                if let (Some(a), Some((sid, _))) = (trace, span) {
                    a.span(sid, "recv", recv_ns, Vec::new());
                }
                raw
            }
            Reply::Hedged(frame, after) => {
                let (winner, raw, report) = self.race(sub, (id, frame), after, trace);
                (id, hedge) = (winner, report);
                raw
            }
        };
        let elapsed = attempt.shipped_at.elapsed();
        let reply = self.validate(sub.target, id, raw);
        if let RpcTarget::Server(s) = sub.target {
            match &reply {
                Ok(Response::Error(PvfsError::Overloaded { .. })) => {}
                Ok(_) => self.health.record_success(s, elapsed),
                Err(PvfsError::Transport(_) | PvfsError::Timeout(_)) => {
                    self.health.record_failure(s)
                }
                Err(_) => {}
            }
        }
        let result = reply.and_then(|r| match r {
            Response::Error(e) => Err(annotate_error(sub.target, id, e)),
            r => Ok(r),
        });
        match &result {
            // Control scrapes observe; they stay out of the latency
            // record as they stay out of every other client counter.
            Ok(_) if sub.request.is_control_scrape() => {}
            Ok(_) => self
                .latency
                .record(sub.target, sub.request.op_class(), elapsed),
            Err(PvfsError::Overloaded { .. }) => self.stats.record_shed_seen(),
            Err(_) => {}
        }
        if let (Some(a), Some((sid, start))) = (trace, span) {
            let op = sub.request.op_name();
            let notes = [
                (wave > 1).then(|| format!("retry#{wave}")),
                sub.failed_over.then(|| "failover".into()),
                matches!(hedge, Some(Hedge { won: false, .. })).then(|| "win".into()),
                result.is_err().then(|| "error".into()),
            ];
            attempt_span(a, sid, op, start, notes.into_iter().flatten().collect());
            if let Some(Hedge { won, span }) = hedge {
                let notes = [Some("hedge".into()), won.then(|| "win".into())];
                attempt_span(a, span.0, op, span.1, notes.into_iter().flatten().collect());
            }
        }
        result
    }

    /// The hedge race — a hedged sub-op's wait step. The primary (request
    /// `id`, encoded as `frame`) ships on its own waiter thread, so a
    /// stalled connect or send cannot hold the hedge clock hostage. If it
    /// has not answered `after` shipping, an identical duplicate ships on
    /// a second connection and whichever reply lands first wins. The
    /// loser drains on its waiter thread, bounded by the RPC deadline, so
    /// a late reply never crosses wires with a later request; only
    /// idempotent reads are hedged, so the duplicate is harmless. Returns
    /// the winner's request id and raw reply (the primary's id and the
    /// first failure when nothing won) and, if a traced duplicate
    /// shipped, how it fared.
    fn race(
        &self,
        sub: &SubOp,
        (id, frame): (RequestId, Bytes),
        after: Duration,
        trace: Option<&ActiveTrace>,
    ) -> (RequestId, Result<Bytes, WaitError>, Option<Hedge>) {
        let (deadline, timeout) = (Instant::now() + self.rpc_timeout, self.rpc_timeout);
        // Each racer reports its request id and outcome.
        let (tx, rx) = bounded::<(RequestId, Result<Bytes, WaitError>)>(2);
        let (primary, transport, target) = (tx.clone(), self.transport.clone(), sub.target);
        std::thread::spawn(move || {
            let outcome = transport.start(target, frame).map_err(WaitError::Failed);
            let _ = primary.send((id, outcome.and_then(|p| p.wait(timeout))));
        });
        let mut outcomes = Vec::new();
        let mut hedge: Option<(RequestId, Option<(SpanId, u64)>)> = None;
        match rx.recv_timeout(after) {
            Ok(first) => outcomes.push(first),
            Err(_) => {
                // Fire the duplicate. Failing to even ship it (full
                // queue, dead transport) falls back to the primary alone.
                let span = trace.map(|_| (SpanId::next(), now_ns()));
                let ctx = trace.zip(span).map(|(a, (sid, _))| a.ctx(sid));
                if let Ok((hid, frame)) = self.encode(sub.request.clone(), ctx) {
                    if let Ok(pending) = self.transport.start(sub.target, frame) {
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            let _ = tx.send((hid, pending.wait(timeout)));
                        });
                        hedge = Some((hid, span));
                    }
                }
            }
        }
        let expected = 1 + usize::from(hedge.is_some());
        let winner = loop {
            if let Some(pos) = outcomes.iter().position(|(_, r)| r.is_ok()) {
                break Some(outcomes.swap_remove(pos));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if outcomes.len() >= expected || remaining.is_zero() {
                break None;
            }
            match rx.recv_timeout(remaining) {
                Ok(m) => outcomes.push(m),
                Err(_) => break None,
            }
        };
        let won = matches!((&winner, hedge), (Some((w, _)), Some((hid, _))) if *w == hid);
        if hedge.is_some() {
            self.stats.record_hedge(won);
        }
        let report = hedge.and_then(|(_, span)| span.map(|span| Hedge { won, span }));
        match winner {
            Some((w, raw)) => (w, raw, report),
            None => {
                let failed = outcomes
                    .into_iter()
                    .find_map(|(_, r)| r.err().filter(|e| matches!(e, WaitError::Failed(_))));
                (id, Err(failed.unwrap_or(WaitError::Timeout)), report)
            }
        }
    }

    /// The one reply validator: the response that answers request `id`,
    /// possibly a server's [`Response::Error`]. Anything else — no reply
    /// by the deadline, a transport failure, an undecodable frame, a
    /// reply carrying the reserved id 0 (it could belong to any request
    /// in flight) or another request's id — is an error naming the
    /// target and the request.
    fn validate(
        &self,
        target: RpcTarget,
        id: RequestId,
        raw: Result<Bytes, WaitError>,
    ) -> PvfsResult<Response> {
        let raw = raw.map_err(|e| match e {
            WaitError::Timeout => PvfsError::timeout(format!(
                "no reply to request {id} from {target} within {:?}",
                self.rpc_timeout
            )),
            WaitError::Failed(e) => annotate_error(target, id, e),
        })?;
        let (rid, response) = decode_response(raw).map_err(|e| annotate_error(target, id, e))?;
        let why = match (rid, response) {
            (rid, response) if rid == id => return Ok(response),
            (RequestId(0), response) => format!("the unattributable id 0 ({response:?})"),
            (rid, _) => format!("mismatched response id {rid}"),
        };
        Err(PvfsError::protocol(format!(
            "{target} answered request {id} with {why}"
        )))
    }

    /// A fresh per-operation backoff sequence, seeded from the request
    /// counter so serial runs are reproducible.
    fn new_backoff(&self) -> Backoff {
        Backoff::new(
            self.retry,
            RequestId(self.next_request.load(Ordering::Relaxed)),
        )
    }
}

/// One unit of work for the attempt engine: a request aimed at one
/// target, where to go next if that target cannot answer, and whether
/// to hedge a slow reply.
struct SubOp {
    target: RpcTarget,
    request: Request,
    /// Remaining copies of a replicated read, next-preferred first.
    mirrors: VecDeque<(RpcTarget, Request)>,
    /// Ship a duplicate if no reply lands within this long (read-class
    /// `call`s under an enabled [`HedgePolicy`]; rounds never hedge).
    hedge_after: Option<Duration>,
    /// Re-aimed at a mirror: later attempts' spans are noted `failover`.
    failed_over: bool,
}

impl SubOp {
    fn new(target: RpcTarget, request: Request) -> SubOp {
        SubOp {
            target,
            request,
            mirrors: VecDeque::new(),
            hedge_after: None,
            failed_over: false,
        }
    }
}

/// One caller op: the range of sub-ops serving it, and how many of
/// them must succeed (a replicated write's quorum; 1 otherwise).
type Quorum = (Range<usize>, usize);

/// One shipped attempt of a sub-op.
struct Attempt {
    id: RequestId,
    shipped_at: Instant,
    /// Id and start of the attempt's `rpc:<op>` span, when traced.
    span: Option<(SpanId, u64)>,
    reply: Reply,
}

/// Where an attempt's reply will come from.
enum Reply {
    /// [`Transport::start`] refused the frame.
    Refused(PvfsError),
    Pending(Box<dyn PendingReply>),
    /// A hedged sub-op's encoded primary and hedge delay, for its race.
    Hedged(Bytes, Duration),
}

/// The traced duplicate of a hedge race that shipped one.
struct Hedge {
    won: bool,
    /// Id and start of the duplicate's `rpc:<op>` span.
    span: (SpanId, u64),
}

/// Record one attempt's `rpc:<op>` span, ending now, under the root.
fn attempt_span(a: &ActiveTrace, id: SpanId, op: &str, start_ns: u64, notes: Vec<String>) {
    let dur = now_ns().saturating_sub(start_ns);
    a.span_with_id(id, a.root(), format!("rpc:{op}"), start_ns, dur, notes);
}

/// Is this error a reason to abandon one replica and try a mirror?
/// Covers the copy being unreachable (transport/timeout), breaker-gated,
/// or shedding load — conditions where a sibling copy can still serve
/// the read. Data errors (bad offsets, protocol faults) would repeat on
/// every copy and are not worth failing over.
fn failover_worthy(e: &PvfsError) -> bool {
    matches!(
        e,
        PvfsError::Transport(_)
            | PvfsError::Timeout(_)
            | PvfsError::Unavailable { .. }
            | PvfsError::Overloaded { .. }
    )
}

/// The stripe layout a data request routes by, if it carries one.
/// Placement-free requests (metadata, stats, sync) return None and are
/// not expanded across replicas.
fn request_layout(request: &Request) -> Option<&StripeLayout> {
    match request {
        Request::Read { layout, .. }
        | Request::Write { layout, .. }
        | Request::ReadList { layout, .. }
        | Request::WriteList { layout, .. }
        | Request::ReadVectors { layout, .. }
        | Request::WriteVectors { layout, .. } => Some(layout),
        _ => None,
    }
}

/// Attach which-target / which-request context to an RPC error,
/// preserving the variant (callers match on it).
fn annotate_error(target: RpcTarget, id: RequestId, e: PvfsError) -> PvfsError {
    let ctx = format!(" [{target}, request {id}]");
    match e {
        PvfsError::InvalidArgument(m) => PvfsError::InvalidArgument(m + &ctx),
        PvfsError::Protocol(m) => PvfsError::Protocol(m + &ctx),
        PvfsError::Storage(m) => PvfsError::Storage(m + &ctx),
        PvfsError::Transport(m) => PvfsError::Transport(m + &ctx),
        PvfsError::Timeout(m) => PvfsError::Timeout(m + &ctx),
        // Variants carrying structured payloads stay untouched.
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_proto::decode_frame_id;
    use pvfs_types::{FileHandle, Region, RegionList, StripeLayout};

    fn layout(n: u32) -> StripeLayout {
        StripeLayout::new(0, n, 16).unwrap()
    }

    /// A client whose single "server 0" is the given raw channel (the
    /// manager slot is a dead end); for protocol-violation tests.
    fn client_over(fake_tx: Sender<NodeMsg>) -> ClusterClient {
        let (mgr_tx, _mgr_rx) = bounded::<NodeMsg>(1);
        // _mgr_rx may drop: these tests never address the manager.
        ClusterClient::with_transport(
            ClientId(9),
            Arc::new(ChanTransport::new(vec![fake_tx], mgr_tx)),
            Arc::new(SerialGate::new()),
        )
    }

    #[test]
    fn create_open_close_through_manager() {
        let cluster = LiveCluster::spawn(2);
        let c = cluster.client();
        let resp = c
            .call(
                RpcTarget::Manager,
                Request::Create {
                    path: "/pvfs/x".into(),
                    layout: layout(2),
                },
            )
            .unwrap();
        let handle = match resp {
            Response::Created { handle } => handle,
            other => panic!("unexpected {other:?}"),
        };
        match c
            .call(
                RpcTarget::Manager,
                Request::Open {
                    path: "/pvfs/x".into(),
                },
            )
            .unwrap()
        {
            Response::Opened { handle: h, .. } => assert_eq!(h, handle),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.call(RpcTarget::Manager, Request::Close { handle })
                .unwrap(),
            Response::Closed
        );
    }

    #[test]
    fn server_errors_surface_as_err() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        let err = c
            .call(
                RpcTarget::Manager,
                Request::Open {
                    path: "/missing".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::NoSuchFile(_)));
    }

    #[test]
    fn data_write_read_through_threads() {
        let cluster = LiveCluster::spawn(4);
        let c = cluster.client();
        let l = layout(4);
        let fh = FileHandle(9);
        // Write 16 bytes entirely on server 0 (first stripe).
        let resp = c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Write {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 16),
                    data: Bytes::from(vec![5u8; 16]),
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Written { bytes: 16 });
        match c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 16),
                },
            )
            .unwrap()
        {
            Response::Data { data } => assert_eq!(data.as_ref(), &[5u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_fans_out_to_all_servers() {
        let cluster = LiveCluster::spawn(4);
        let c = cluster.client();
        let l = layout(4);
        let fh = FileHandle(3);
        let requests: Vec<(ServerId, Request)> = (0..4)
            .map(|i| {
                (
                    ServerId(i),
                    Request::Read {
                        handle: fh,
                        layout: l,
                        region: Region::new(0, 64),
                    },
                )
            })
            .collect();
        let responses = c.round(requests).unwrap();
        assert_eq!(responses.len(), 4);
        for r in responses {
            match r {
                Response::Data { data } => assert_eq!(data.len(), 16),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_server_is_an_error() {
        let cluster = LiveCluster::spawn(2);
        let c = cluster.client();
        let err = c
            .call(
                RpcTarget::Server(ServerId(7)),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::NoSuchServer(7)));
    }

    #[test]
    fn clients_have_unique_ids() {
        let cluster = LiveCluster::spawn(1);
        let a = cluster.client();
        let b = cluster.client();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_clients_do_not_interfere() {
        let cluster = LiveCluster::spawn(4);
        let l = layout(4);
        let mut handles = Vec::new();
        for k in 0..8u64 {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                let fh = FileHandle(100 + k);
                let payload = vec![k as u8; 16];
                c.call(
                    RpcTarget::Server(ServerId(0)),
                    Request::Write {
                        handle: fh,
                        layout: l,
                        region: Region::new(0, 16),
                        data: Bytes::from(payload.clone()),
                    },
                )
                .unwrap();
                match c
                    .call(
                        RpcTarget::Server(ServerId(0)),
                        Request::Read {
                            handle: fh,
                            layout: l,
                            region: Region::new(0, 16),
                        },
                    )
                    .unwrap()
                {
                    Response::Data { data } => assert_eq!(data.as_ref(), &payload[..]),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_are_observable() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        c.call(
            RpcTarget::Server(ServerId(0)),
            Request::GetLocalSize {
                handle: FileHandle(1),
            },
        )
        .unwrap();
        let stats = cluster.server_stats(ServerId(0)).unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.frames_rx, 1, "one RPC is one wire frame");
        assert!(stats.bytes_rx > 0);
        assert!(stats.bytes_tx > 0);
        assert!(cluster.server_stats(ServerId(5)).is_none());
    }

    /// A frame whose header parses but whose body is garbage must come
    /// back as an error response carrying the *real* request id — never
    /// the wildcard 0 that earlier versions let match any request.
    #[test]
    fn corrupted_body_reply_echoes_real_request_id() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        let (id, frame) = c
            .encode(
                Request::Read {
                    handle: FileHandle(1),
                    layout: layout(1),
                    region: Region::new(0, 16),
                },
                None,
            )
            .unwrap();
        assert_ne!(id, RequestId(0), "request ids must never be 0");
        // Truncate the body (keep the 16-byte header + a few bytes) so
        // decode_message fails but decode_frame_id succeeds.
        let corrupted = frame.slice(0..20);
        let raw = cluster
            .transport()
            .start(RpcTarget::Server(ServerId(0)), corrupted)
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response(raw).unwrap();
        assert_eq!(rid, id, "server must echo the request id from the header");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
    }

    /// A frame too short to even carry a header gets the reserved id 0.
    #[test]
    fn headerless_garbage_reply_uses_reserved_id() {
        let cluster = LiveCluster::spawn(1);
        let raw = cluster
            .transport()
            .start(RpcTarget::Server(ServerId(0)), Bytes::from(vec![0xffu8; 7]))
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response(raw).unwrap();
        assert_eq!(rid, RequestId(0));
        assert!(matches!(response, Response::Error(_)));
    }

    /// Sends one request to server 0 and expects it to fail.
    type FailingSend = fn(&ClusterClient, Request) -> PvfsError;

    /// Both client entry points, named.
    fn entry_points() -> [(&'static str, FailingSend); 2] {
        [
            ("round", |c, r| c.round(vec![(ServerId(0), r)]).unwrap_err()),
            ("call", |c, r| {
                c.call(RpcTarget::Server(ServerId(0)), r).unwrap_err()
            }),
        ]
    }

    /// round() and call() must treat an id-0 response as a hard
    /// protocol error: it names no request, so it cannot be attributed.
    #[test]
    fn round_rejects_unattributable_responses() {
        // A fake server that answers everything with id 0.
        let (fake_tx, fake_rx) = bounded::<NodeMsg>(8);
        let fake = std::thread::spawn(move || {
            while let Ok(NodeMsg::Rpc(_, reply, _)) = fake_rx.recv() {
                let _ = reply.send(encode_response(
                    RequestId(0),
                    &Response::Error(PvfsError::protocol("scrambled")),
                ));
            }
        });
        let c = client_over(fake_tx);
        for (entry, send) in entry_points() {
            let err = send(
                &c,
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            );
            match err {
                PvfsError::Protocol(m) => {
                    assert!(m.contains("id 0"), "diagnostic should name id 0: {m}");
                    assert!(m.contains("iod0"), "diagnostic should name the server: {m}");
                }
                other => panic!("{entry}: expected protocol error, got {other:?}"),
            }
        }
        drop(c);
        fake.join().unwrap();
    }

    /// round() and call() must reject a response whose id belongs to a
    /// *different* request (the misattribution the old wildcard allowed).
    #[test]
    fn round_rejects_mismatched_response_id() {
        let (fake_tx, fake_rx) = bounded::<NodeMsg>(8);
        let fake = std::thread::spawn(move || {
            while let Ok(NodeMsg::Rpc(frame, reply, _)) = fake_rx.recv() {
                // Echo a *wrong* (but nonzero) id.
                let id = decode_frame_id(&frame).unwrap();
                let _ = reply.send(encode_response(
                    RequestId(id.0 + 1000),
                    &Response::LocalSize { size: 0 },
                ));
            }
        });
        let c = client_over(fake_tx);
        for (_, send) in entry_points() {
            let err = send(
                &c,
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            );
            assert!(
                matches!(&err, PvfsError::Protocol(m) if m.contains("mismatched")),
                "got {err:?}"
            );
        }
        drop(c);
        fake.join().unwrap();
    }

    /// A server that never replies must yield PvfsError::Timeout, not a
    /// hang.
    #[test]
    fn wedged_server_rpc_times_out() {
        // A "server" that accepts requests and never answers. Breaker
        // off: this test pins the *timeout* path; with the default
        // breaker the retries' timeouts would open the circuit and the
        // second call would surface `Unavailable` instead.
        let (wedged_tx, wedged_rx) = bounded::<NodeMsg>(8);
        let c = client_over(wedged_tx)
            .with_rpc_timeout(Duration::from_millis(50))
            .with_breaker_policy(BreakerPolicy::off());
        let err = c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
        // Same on the fan-out path.
        let err = c
            .round(vec![(
                ServerId(0),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )])
            .unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
        drop(wedged_rx);
    }

    /// Stress: many clients hammer shared handles with contiguous and
    /// list I/O across every server; per-server stats must account for
    /// every request exactly (nothing lost, duplicated, or
    /// misattributed by the worker pools).
    #[test]
    fn pooled_servers_account_for_every_request_exactly() {
        const CLIENTS: u64 = 8;
        const ROUNDS: u64 = 10;
        let config = IodConfig {
            workers: 4,
            queue_depth: 16,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_with(4, config);
        let l = layout(4);
        let mut handles = Vec::new();
        for k in 0..CLIENTS {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                // Half the clients share a handle; the rest get their own.
                let fh = FileHandle(if k % 2 == 0 { 7 } else { 700 + k });
                for r in 0..ROUNDS {
                    // One contiguous write on each server's first stripe.
                    for s in 0..4u32 {
                        let off = s as u64 * 16;
                        c.call(
                            RpcTarget::Server(ServerId(s)),
                            Request::Write {
                                handle: fh,
                                layout: l,
                                region: Region::new(off, 16),
                                data: Bytes::from(vec![(k + r) as u8; 16]),
                            },
                        )
                        .unwrap();
                    }
                    // One fan-out list read over all four servers.
                    let regions = RegionList::from_pairs([(0u64, 64u64)]).unwrap();
                    let reqs = (0..4u32)
                        .map(|s| {
                            (
                                ServerId(s),
                                Request::ReadList {
                                    handle: fh,
                                    layout: l,
                                    regions: regions.clone(),
                                },
                            )
                        })
                        .collect();
                    let responses = c.round(reqs).unwrap();
                    for resp in responses {
                        match resp {
                            Response::Data { data } => assert_eq!(data.len(), 16),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for s in 0..4u32 {
            let stats = cluster.server_stats(ServerId(s)).unwrap();
            assert_eq!(stats.requests, CLIENTS * ROUNDS * 2);
            assert_eq!(stats.contiguous_requests, CLIENTS * ROUNDS);
            assert_eq!(stats.list_requests, CLIENTS * ROUNDS);
            assert_eq!(stats.errors, 0);
            assert_eq!(stats.bytes_written, CLIENTS * ROUNDS * 16);
            assert_eq!(stats.bytes_read, CLIENTS * ROUNDS * 16);
            // Wire accounting: one frame per request, no matter the
            // transport; every frame carries at least its header.
            assert_eq!(stats.frames_rx, CLIENTS * ROUNDS * 2);
            assert!(stats.bytes_rx >= stats.frames_rx * 16);
            assert!(stats.bytes_tx > 0);
        }
    }

    /// With pooled (concurrent) servers, the SerialGate must still make
    /// client read-modify-write sections mutually exclusive: N clients
    /// each increment a shared counter byte M times under the gate, and
    /// no increment may be lost.
    #[test]
    fn serial_gate_excludes_rmw_sections_with_pooled_servers() {
        const CLIENTS: u64 = 6;
        const INCREMENTS: u64 = 20;
        let config = IodConfig {
            workers: 4,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_with(1, config);
        let l = layout(1);
        let fh = FileHandle(1);
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    c.gate().acquire();
                    let current = match c
                        .call(
                            RpcTarget::Server(ServerId(0)),
                            Request::Read {
                                handle: fh,
                                layout: l,
                                region: Region::new(0, 1),
                            },
                        )
                        .unwrap()
                    {
                        Response::Data { data } => data[0],
                        other => panic!("unexpected {other:?}"),
                    };
                    c.call(
                        RpcTarget::Server(ServerId(0)),
                        Request::Write {
                            handle: fh,
                            layout: l,
                            region: Region::new(0, 1),
                            data: Bytes::from(vec![current.wrapping_add(1)]),
                        },
                    )
                    .unwrap();
                    c.gate().release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_value = match cluster
            .client()
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 1),
                },
            )
            .unwrap()
        {
            Response::Data { data } => data[0],
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(final_value as u64, CLIENTS * INCREMENTS);
    }
}
