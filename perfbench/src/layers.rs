//! Per-layer accounting, taken from outside the program.
//!
//! Nothing here adds a span or a counter to the program. Layer numbers
//! come from three places: the benchmark's own clocks around calls into
//! each crate's public functions (`pvfs_core::plan`,
//! `pvfs_client::execute_plan`, the `pvfs_proto` codec), counters the
//! program already exports (daemon `stats_snapshot`, client `stats` and
//! `latency_snapshot`, the per-handle `cache_stats`), and the
//! `storage:*` spans the daemons already record, drained after every
//! op through `ClusterClient::fetch_trace`.

use pvfs_core::exec::{alloc_temps, server_share, wire_request};
use pvfs_core::{AccessPlan, Buffers, OpKind, Step};
use pvfs_net::{ClusterClient, LiveCluster};
use pvfs_proto::{
    decode_message, decode_response, encode_message, encode_response, Message, Response,
    MAX_LIST_REGIONS,
};
use pvfs_types::{ClientId, FileHandle, RequestId, ServerId, TraceId};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::time::Instant;

/// Program counters read at a phase boundary (or the difference of two
/// such reads). Times are exact `Histogram::sum_ns` totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames_rx: u64,
    pub bytes_rx: u64,
    pub bytes_tx: u64,
    pub regions: u64,
    pub errors: u64,
    pub queue_wait_ns: u128,
    pub service_ns: u128,
    pub attempts: u64,
    pub retries: u64,
    /// Successful client RPCs (the client latency tracker's count).
    pub rpcs: u64,
    pub rpc_ns: u128,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub writebacks: u64,
}

impl Counters {
    /// Read every daemon's stats, the client endpoint's counters, and
    /// `handle`'s cache model on every daemon.
    pub fn read(cluster: &LiveCluster, client: &ClusterClient, handle: FileHandle) -> Counters {
        let mut c = Counters::default();
        for s in 0..cluster.n_servers() {
            let Some(daemon) = cluster.daemon(ServerId(s)) else {
                continue;
            };
            let st = daemon.stats_snapshot();
            c.frames_rx += st.frames_rx;
            c.bytes_rx += st.bytes_rx;
            c.bytes_tx += st.bytes_tx;
            c.regions += st.regions;
            c.errors += st.errors;
            c.queue_wait_ns += st.queue_wait.sum_ns();
            c.service_ns += st.service_time.sum_ns();
            if let Some(cache) = daemon.with_local_file(handle, |f| f.cache_stats()) {
                c.cache_hits += cache.hits;
                c.cache_misses += cache.misses;
                c.writebacks += cache.writebacks;
            }
        }
        let stats = client.stats();
        c.attempts = stats.attempts;
        c.retries = stats.retries;
        let latency = client.latency_snapshot();
        c.rpcs = latency.count();
        c.rpc_ns = latency.sum_ns();
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            frames_rx: self.frames_rx - earlier.frames_rx,
            bytes_rx: self.bytes_rx - earlier.bytes_rx,
            bytes_tx: self.bytes_tx - earlier.bytes_tx,
            regions: self.regions - earlier.regions,
            errors: self.errors - earlier.errors,
            queue_wait_ns: self.queue_wait_ns - earlier.queue_wait_ns,
            service_ns: self.service_ns - earlier.service_ns,
            attempts: self.attempts - earlier.attempts,
            retries: self.retries - earlier.retries,
            rpcs: self.rpcs - earlier.rpcs,
            rpc_ns: self.rpc_ns - earlier.rpc_ns,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.frames_rx += o.frames_rx;
        self.bytes_rx += o.bytes_rx;
        self.bytes_tx += o.bytes_tx;
        self.regions += o.regions;
        self.errors += o.errors;
        self.queue_wait_ns += o.queue_wait_ns;
        self.service_ns += o.service_ns;
        self.attempts += o.attempts;
        self.retries += o.retries;
        self.rpcs += o.rpcs;
        self.rpc_ns += o.rpc_ns;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.writebacks += o.writebacks;
    }
}

/// Everything one traced phase (or a sum of them) spent, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Ops run and their summed durations (the phase time).
    pub ops: u64,
    pub op_ns: u128,
    /// Time inside `pvfs_core::plan` and `pvfs_client::execute_plan`.
    pub plan_ns: u128,
    pub execute_ns: u128,
    /// `ExecReport` phase split and round count.
    pub wire_ns: u128,
    pub merge_ns: u128,
    pub rounds: u64,
    /// Σ `PlanStats::requests`.
    pub plan_requests: u64,
    /// Requests and regions found walking the rebuilt plans.
    pub wire_requests: u64,
    pub wire_regions: u64,
    /// Rebuilt requests whose per-server count broke the ⌈regions/64⌉
    /// rule.
    pub list_rule_violations: u64,
    /// The `pvfs_proto` codec on the rebuilt requests and responses.
    pub encode_ns: u128,
    pub decode_ns: u128,
    pub frame_bytes: u64,
    /// Drained traces and the spans they held.
    pub traces: u64,
    pub rpc_spans: u64,
    pub service_spans: u64,
    pub storage_read_ns: u128,
    pub storage_write_ns: u128,
    /// The drain's own `GetTrace` calls. The client latency tracker
    /// records them (attempt counters and daemons do not), so they are
    /// subtracted from the RPC count and time.
    pub scrape_rpcs: u64,
    pub scrape_ns: u128,
    /// Program counter deltas over the phase.
    pub counters: Counters,
}

impl AddAssign<&Layers> for Layers {
    fn add_assign(&mut self, o: &Layers) {
        self.ops += o.ops;
        self.op_ns += o.op_ns;
        self.plan_ns += o.plan_ns;
        self.execute_ns += o.execute_ns;
        self.wire_ns += o.wire_ns;
        self.merge_ns += o.merge_ns;
        self.rounds += o.rounds;
        self.plan_requests += o.plan_requests;
        self.wire_requests += o.wire_requests;
        self.wire_regions += o.wire_regions;
        self.list_rule_violations += o.list_rule_violations;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.frame_bytes += o.frame_bytes;
        self.traces += o.traces;
        self.rpc_spans += o.rpc_spans;
        self.service_spans += o.service_spans;
        self.storage_read_ns += o.storage_read_ns;
        self.storage_write_ns += o.storage_write_ns;
        self.scrape_rpcs += o.scrape_rpcs;
        self.scrape_ns += o.scrape_ns;
        self.counters += o.counters;
    }
}

impl Layers {
    /// Successful data RPCs the ops issued.
    pub fn rpcs(&self) -> u64 {
        self.counters.rpcs - self.scrape_rpcs
    }

    /// Client-measured time of those RPCs.
    pub fn rpc_ns(&self) -> u128 {
        self.counters.rpc_ns - self.scrape_ns
    }

    /// Client RPC time not spent queued or served at a daemon: the
    /// transport both ways plus the client RPC engine.
    pub fn transit_ns(&self) -> u128 {
        let c = &self.counters;
        self.rpc_ns().saturating_sub(c.queue_wait_ns + c.service_ns)
    }

    /// Client time inside `execute_plan` outside wire rounds and copy
    /// steps: request building, payload gather and response scatter.
    pub fn scatter_ns(&self) -> u128 {
        self.execute_ns.saturating_sub(self.wire_ns + self.merge_ns)
    }

    /// Fetch the trace of the op that just finished and fold its spans
    /// in. `last` holds the previous op's trace id: every op must have
    /// left a fresh trace, or the drain has lost coverage.
    pub fn drain_trace(
        &mut self,
        client: &ClusterClient,
        last: &mut Option<TraceId>,
    ) -> Result<(), String> {
        let trace = client.tracer().last();
        if trace.is_none() || trace == *last {
            return Err("an op finished without a retained trace".into());
        }
        *last = trace;
        let before = client.latency_snapshot();
        let tree = client.fetch_trace(trace.expect("checked above"));
        let scrapes = client.latency_snapshot().since(&before);
        self.scrape_rpcs += scrapes.count();
        self.scrape_ns += scrapes.sum_ns();
        self.traces += 1;
        for span in tree.spans() {
            match span.op.as_str() {
                "service" => self.service_spans += 1,
                "storage:read" => self.storage_read_ns += u128::from(span.dur_ns),
                "storage:write" => self.storage_write_ns += u128::from(span.dur_ns),
                op if op.starts_with("rpc:") => self.rpc_spans += 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Walk a rebuilt copy of the op's plan: rebuild each wire request
    /// with `pvfs_core::exec::wire_request`, time the codec on it and on
    /// a matching response, and check the list-I/O request bound.
    pub fn replay_codec(&mut self, mut plan: AccessPlan, user: &mut [u8], op_regions: u64) {
        let handle = plan.handle;
        let layout = plan.layout;
        let mut temps = alloc_temps(&plan.temp_sizes);
        let bufs = Buffers {
            user,
            temps: &mut temps,
        };
        let mut per_server: BTreeMap<ServerId, u64> = BTreeMap::new();
        let mut is_list = false;
        let mut id = 0u64;
        while let Some(step) = plan.next_step() {
            let Step::Round(ops) = step else { continue };
            let mut round: BTreeMap<ServerId, (u64, u64)> = BTreeMap::new();
            for wire in &ops {
                let regions = match &wire.op {
                    OpKind::ReadList { regions, .. } | OpKind::WriteList { regions, .. } => {
                        is_list = true;
                        regions.count() as u64
                    }
                    _ => 1,
                };
                let entry = round.entry(wire.server).or_default();
                entry.0 += 1;
                entry.1 += regions;
                *per_server.entry(wire.server).or_default() += 1;
                self.wire_requests += 1;
                self.wire_regions += regions;

                id += 1;
                let message = Message {
                    client: ClientId(0),
                    id: RequestId(id),
                    request: wire_request(wire, handle, &layout, &bufs),
                };
                let share = server_share(&wire.op, &layout, wire.server);
                let response = if wire.op.is_write() {
                    Response::Written { bytes: share }
                } else {
                    Response::Data {
                        data: bytes::Bytes::from(vec![0u8; share as usize]),
                    }
                };
                let t0 = Instant::now();
                let frame = encode_message(&message).expect("rebuilt request encodes");
                let t1 = Instant::now();
                let decoded = decode_message(frame.clone()).expect("rebuilt request decodes");
                let t2 = Instant::now();
                let reply = encode_response(decoded.id, &response);
                let t3 = Instant::now();
                decode_response(reply.clone()).expect("rebuilt response decodes");
                let t4 = Instant::now();
                self.encode_ns += (t1 - t0).as_nanos() + (t3 - t2).as_nanos();
                self.decode_ns += (t2 - t1).as_nanos() + (t4 - t3).as_nanos();
                self.frame_bytes += (frame.len() + reply.len()) as u64;
            }
            let bound = |regions: u64| regions.div_ceil(MAX_LIST_REGIONS as u64);
            for (requests, regions) in round.values() {
                if *requests > bound(*regions) {
                    self.list_rule_violations += 1;
                }
            }
        }
        if is_list {
            for requests in per_server.values() {
                if *requests > op_regions.div_ceil(MAX_LIST_REGIONS as u64) {
                    self.list_rule_violations += 1;
                }
            }
        }
    }
}
