//! Server side of the TCP transport: per-daemon listeners feeding the
//! same [`WorkerPool`]s the channel transport uses.
//!
//! One daemon = one `TcpListener` on loopback + one acceptor thread +
//! one reader thread per open connection + the daemon's worker pool.
//! Readers do nothing but reassemble length-prefixed frames, through a
//! buffered reader kept for the connection's life, and push them into
//! the pool's **bounded** queue. A reader whose peer hangs up removes
//! its connection from the daemon's table on the way out, so a closed
//! connection holds no descriptor until shutdown. When workers fall
//! behind, daemon readers **load-shed**: a frame meeting a full queue
//! is answered immediately with `PvfsError::Overloaded` instead of
//! being parked (see [`ServeHooks::shed`]). The manager and stats
//! scrapes keep the old behavior — readers block in `send`, stop
//! draining their sockets, and TCP flow control pushes back.
//!
//! Responses go back over the connection the request arrived on. The
//! write half is wrapped in a mutex so workers finishing out of order
//! (different requests pipelined on one connection) interleave whole
//! frames, never partial ones; request ids let the peer attribute them.
//!
//! # Shutdown
//!
//! [`TcpServer::shutdown`] drains gracefully: stop accepting (flag +
//! self-connect to unblock `accept`), shut down the read half of every
//! open connection so readers finish handing queued frames to the pool,
//! join those readers, then send the pool one `Shutdown` message per
//! worker — those queue *behind* any in-flight requests, so every
//! accepted request is served and its response written before the pool
//! exits.

use bytes::Bytes;
use pvfs_proto::{decode_frame_id, encode_response, frame_is_stats_scrape, Response};
use pvfs_server::{IoDaemon, IodConfig, Manager};
use pvfs_types::{PvfsError, RequestId};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::frame::{read_frame, wire_len, write_frame, FrameError};
use crate::chan::TrySendError;
use crate::pool::WorkerPool;
use crate::transport::serve_frame;

/// How one TCP daemon turns request frames into response frames and
/// accounts the wire traffic plus queue/service timing. Stats scrape
/// frames (`GetStats`/`ResetStats`) bypass every hook except `serve`,
/// so a scraped snapshot equals the in-process one byte for byte.
struct ServeHooks {
    /// Request frame in (plus how long it waited queued — traced
    /// requests record the wait as a `queue` span), encoded response
    /// frame out.
    serve: Box<dyn Fn(Bytes, Duration) -> Bytes + Send + Sync>,
    /// Called with the wire size of every request frame read.
    on_rx: Box<dyn Fn(u64) + Send + Sync>,
    /// Called with the wire size of every response frame written.
    on_tx: Box<dyn Fn(u64) + Send + Sync>,
    /// Called when a request frame enters the worker-pool queue.
    on_queued: Box<dyn Fn() + Send + Sync>,
    /// Called with the queue wait when a worker dequeues a request.
    on_begin: Box<dyn Fn(Duration) + Send + Sync>,
    /// Called with the service time when a worker finishes a request.
    on_end: Box<dyn Fn(Duration) + Send + Sync>,
    /// Load shedding: when set, a request arriving at a full worker
    /// queue is **not** queued — the hook accounts the shed (undoing
    /// `on_queued`) and returns the typed `Overloaded` error the
    /// reader writes straight back. `None` (the manager) keeps the
    /// block-in-`send` backpressure: metadata ops are rare and
    /// non-idempotent, so waiting beats shedding them.
    shed: Option<Box<dyn Fn() -> PvfsError + Send + Sync>>,
}

enum TcpMsg {
    /// A reassembled request frame, the (shared) write half of the
    /// connection it arrived on, and when the frame entered the queue.
    Rpc(Bytes, Arc<Mutex<TcpStream>>, Instant),
    Shutdown,
}

/// The open connections of one daemon, keyed by accept index: a read
/// half (for shutdown) and the reader thread serving the connection.
/// The acceptor inserts under the lock it spawned the reader under, and
/// the reader removes its own entry when it exits.
type Conns = Arc<Mutex<HashMap<usize, (TcpStream, JoinHandle<()>)>>>;

/// One TCP-fronted daemon: listener, acceptor, per-connection readers,
/// worker pool.
pub(crate) struct TcpServer {
    addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pool_tx: crate::chan::Sender<TcpMsg>,
    pool: Option<WorkerPool>,
    conns: Conns,
}

impl TcpServer {
    fn spawn(
        name: &str,
        workers: usize,
        queue_depth: usize,
        hooks: ServeHooks,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let hooks = Arc::new(hooks);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::default();

        let worker_hooks = hooks.clone();
        let (pool_tx, pool) = WorkerPool::spawn(name, workers, queue_depth, move |msg: TcpMsg| {
            match msg {
                TcpMsg::Rpc(frame, writer, queued_at) => {
                    let scrape = frame_is_stats_scrape(&frame);
                    let waited = queued_at.elapsed();
                    if !scrape {
                        (worker_hooks.on_begin)(waited);
                    }
                    let served_at = Instant::now();
                    let reply = (worker_hooks.serve)(frame, waited);
                    if !scrape {
                        (worker_hooks.on_end)(served_at.elapsed());
                        // Count the reply before writing it: a client
                        // that already holds its reply must see it in
                        // bytes_tx.
                        (worker_hooks.on_tx)(wire_len(&reply));
                    }
                    // Whole-frame writes under the connection's write
                    // lock: pipelined responses interleave per frame.
                    let _ = write_frame(&mut *writer.lock().unwrap(), &reply);
                    ControlFlow::Continue(())
                }
                TcpMsg::Shutdown => ControlFlow::Break(()),
            }
        });

        let accept_flag = shutting_down.clone();
        let accept_conns = conns.clone();
        let accept_hooks = hooks.clone();
        let accept_tx = pool_tx.clone();
        let accept_name = name.to_string();
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                for (i, stream) in listener.incoming().enumerate() {
                    if accept_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    // Held across the spawn: the reader cannot remove
                    // its entry before it is inserted.
                    let mut open = accept_conns.lock().unwrap();
                    let reader = spawn_reader(
                        format!("{accept_name}-conn{i}"),
                        stream,
                        accept_tx.clone(),
                        accept_hooks.clone(),
                        (accept_conns.clone(), i),
                    );
                    open.insert(i, (read_half, reader));
                }
            })
            .expect("spawn tcp acceptor");

        Ok(TcpServer {
            addr,
            shutting_down,
            accept_thread: Some(accept_thread),
            pool_tx,
            pool: Some(pool),
            conns,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn workers(&self) -> usize {
        self.pool.as_ref().map(|p| p.workers()).unwrap_or(0)
    }

    fn open_connections(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    /// Graceful teardown: close the listener, drain in-flight requests,
    /// join every thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(pool) = self.pool.take() else { return };
        self.shutting_down.store(true, Ordering::SeqCst);
        // `accept` has no deadline; a throwaway connection unblocks it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Stop the readers at their next read; frames already read keep
        // flowing into the pool (a reader blocked on a full queue
        // finishes its send first — workers are still draining). The
        // table is emptied before the joins: an exiting reader takes
        // its lock to remove itself.
        let open: Vec<_> = self.conns.lock().unwrap().drain().map(|(_, c)| c).collect();
        for (conn, _) in &open {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for (_, reader) in open {
            let _ = reader.join();
        }
        // Every accepted request is now queued; the Shutdown messages
        // queue behind them, so the pool drains before exiting.
        for _ in 0..pool.workers() {
            let _ = self.pool_tx.send(TcpMsg::Shutdown);
        }
        pool.join();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read frames off one connection into the pool until the peer hangs
/// up, dies mid-frame, or violates the frame cap; then drop the
/// connection's `entry` from the daemon's table.
fn spawn_reader(
    name: String,
    stream: TcpStream,
    pool_tx: crate::chan::Sender<TcpMsg>,
    hooks: Arc<ServeHooks>,
    (conns, entry): (Conns, usize),
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            if let Ok(writer) = stream.try_clone() {
                read_frames(BufReader::new(stream), writer, &pool_tx, &hooks);
            }
            conns.lock().unwrap().remove(&entry);
        })
        .expect("spawn tcp reader")
}

/// The reader loop of one connection: reassemble request frames from
/// `stream` and hand them to the pool; replies go out on `writer`.
fn read_frames(
    mut stream: BufReader<TcpStream>,
    writer: TcpStream,
    pool_tx: &crate::chan::Sender<TcpMsg>,
    hooks: &ServeHooks,
) {
    let writer = Arc::new(Mutex::new(writer));
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let scrape = frame_is_stats_scrape(&frame);
                if !scrape {
                    (hooks.on_rx)(wire_len(&frame));
                    (hooks.on_queued)();
                }
                let msg = TcpMsg::Rpc(frame, writer.clone(), Instant::now());
                if scrape || hooks.shed.is_none() {
                    // Scrapes must observe, not perturb, and the manager
                    // never sheds: block until the queue drains — TCP
                    // flow control is the backpressure.
                    if pool_tx.send(msg).is_err() {
                        break;
                    }
                    continue;
                }
                match pool_tx.try_send(msg) {
                    Ok(()) => {}
                    Err(TrySendError::Disconnected(_)) => break,
                    Err(TrySendError::Full(TcpMsg::Rpc(frame, writer, _))) => {
                        // Load shed: answer `Overloaded` from the reader
                        // itself instead of parking the frame behind a
                        // full queue. The request provably never
                        // executed, so the client may replay it — even a
                        // write. The connection stays healthy; only this
                        // request is refused.
                        let err = hooks.shed.as_ref().expect("checked above")();
                        let id = decode_frame_id(&frame).unwrap_or(RequestId(0));
                        let reply = encode_response(id, &Response::Error(err));
                        (hooks.on_tx)(wire_len(&reply));
                        let _ = write_frame(&mut *writer.lock().unwrap(), &reply);
                    }
                    Err(TrySendError::Full(TcpMsg::Shutdown)) => {
                        unreachable!("reader only sends Rpc frames")
                    }
                }
            }
            Err(FrameError::TooLarge(e)) => {
                // The stream cannot be resynchronized after an oversized
                // announcement, but the peer deserves to know why it is
                // being dropped. Id 0: the header was never read.
                let reply = encode_response(RequestId(0), &Response::Error(e));
                (hooks.on_tx)(wire_len(&reply));
                let mut w = writer.lock().unwrap();
                let _ = write_frame(&mut *w, &reply);
                let _ = w.shutdown(Shutdown::Both);
                break;
            }
            Err(_) => break, // peer hung up or died mid-frame
        }
    }
}

/// The TCP server side of a whole cluster: one [`TcpServer`] per I/O
/// daemon plus one for the manager.
pub struct TcpCluster {
    servers: Vec<TcpServer>,
    mgr: TcpServer,
}

impl TcpCluster {
    /// Put TCP listeners in front of `daemons` and a fresh manager.
    pub fn spawn(daemons: &[Arc<IoDaemon>], config: IodConfig) -> TcpCluster {
        let servers = daemons
            .iter()
            .map(|daemon| {
                let serve_daemon = daemon.clone();
                let rx_daemon = daemon.clone();
                let tx_daemon = daemon.clone();
                let queued_daemon = daemon.clone();
                let begin_daemon = daemon.clone();
                let end_daemon = daemon.clone();
                let shed_daemon = daemon.clone();
                let shed_id = daemon.id().0;
                let shed_depth = config.queue_depth.max(1) as u64;
                let name = format!("iod{}", daemon.id().0);
                TcpServer::spawn(
                    &name,
                    config.workers.max(1),
                    config.queue_depth.max(1),
                    ServeHooks {
                        serve: Box::new(move |frame, waited| {
                            let (id, response) = serve_frame(frame, |req, ctx| {
                                serve_daemon.handle_traced(req, ctx, waited)
                            });
                            // Emulated service time occupies the worker,
                            // the way a blocking disk access would.
                            if let Some(stall) = config.emulated_latency {
                                std::thread::sleep(stall);
                            }
                            encode_response(id, &response)
                        }),
                        on_rx: Box::new(move |n| rx_daemon.record_wire_rx(n)),
                        on_tx: Box::new(move |n| tx_daemon.record_wire_tx(n)),
                        on_queued: Box::new(move || queued_daemon.note_queued()),
                        on_begin: Box::new(move |waited| begin_daemon.begin_service(waited)),
                        on_end: Box::new(move |took| end_daemon.end_service(took)),
                        shed: Some(Box::new(move || {
                            shed_daemon.note_shed();
                            PvfsError::Overloaded {
                                server: shed_id,
                                queue_depth: shed_depth,
                            }
                        })),
                    },
                )
                .expect("bind tcp i/o daemon")
            })
            .collect();
        // Metadata operations are rare and order-sensitive: a single
        // worker over a mutexed manager keeps them serialized, exactly
        // like the dedicated manager thread of the channel backend.
        let manager = Arc::new(Mutex::new(Manager::new()));
        let serve_mgr = manager.clone();
        let rx_mgr = manager.clone();
        let tx_mgr = manager.clone();
        let end_mgr = manager;
        let mgr = TcpServer::spawn(
            "pvfs-mgr",
            1,
            config.queue_depth.max(1),
            ServeHooks {
                serve: Box::new(move |frame, waited| {
                    let (id, response) = serve_frame(frame, |req, ctx| {
                        serve_mgr.lock().unwrap().handle_traced(req, ctx, waited)
                    });
                    encode_response(id, &response)
                }),
                on_rx: Box::new(move |n| rx_mgr.lock().unwrap().record_wire_rx(n)),
                on_tx: Box::new(move |n| tx_mgr.lock().unwrap().record_wire_tx(n)),
                // The manager's single worker has no meaningful queue
                // gauge; its service time is the whole story.
                on_queued: Box::new(|| {}),
                on_begin: Box::new(|_| {}),
                on_end: Box::new(move |took| end_mgr.lock().unwrap().record_service(took)),
                shed: None,
            },
        )
        .expect("bind tcp manager");
        TcpCluster { servers, mgr }
    }

    /// Loopback addresses of the I/O daemons, in server-id order.
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }

    /// Loopback address of the manager.
    pub fn mgr_addr(&self) -> SocketAddr {
        self.mgr.addr()
    }

    pub(crate) fn workers_per_server(&self) -> usize {
        self.servers.first().map(|s| s.workers()).unwrap_or(0)
    }

    /// Connections open on the server side, across every daemon and the
    /// manager — diagnostics. A connection leaves the count once its
    /// peer hangs up and its reader has exited.
    pub fn open_connections(&self) -> usize {
        self.servers
            .iter()
            .chain([&self.mgr])
            .map(TcpServer::open_connections)
            .sum()
    }

    /// Drain and stop every listener, reader and worker.
    pub fn shutdown(&mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
        self.mgr.shutdown();
    }
}
