//! `perfbench`: the live-cluster benchmark for noncontiguous I/O.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up (cluster spawn, manager create, request generation) runs
//! several times and `setup_s` is its median. Then, within `--seconds`,
//! an unmeasured warm-up writes every rank once to a throwaway cluster,
//! and passes run while the next one still fits. A pass spawns an in-process
//! `LiveCluster` (in-memory storage, `IodConfig::default()`, 16 KiB
//! stripes), creates a file, and drives it from one client thread in a
//! closed loop with one op in flight: it writes every rank (the write
//! phase), reads every rank back and compares each byte with what was
//! written (the read phase), and tears the cluster down. An op is one
//! rank's whole cyclic request, planned with `pvfs_core::plan` and run
//! with `pvfs_client::execute_plan`. The seed sets the fill bytes and
//! the one order in which ranks are issued in both phases of every pass.
//!
//! Phase time is the sum of op durations. The benchmark's own work
//! between ops (byte checks, trace drains, codec replays) is outside it,
//! so traced and untraced passes compare like with like. A run reports
//! MB/s over the summed phase time of its passes and the mean over
//! passes of each pass's op latency percentiles (see `Phase`).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced (`TraceMode::All`) passes and reports per-layer
//! metrics from the traced ones, per traced pass, plus the tracing
//! overhead against the untraced ones. Every traced op's spans are
//! drained right after it finishes, so no trace is lost to the bounded
//! flight recorders or the 64-entry recent-trace index.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every op succeeded, every byte read back matched, and (in
//! a traced run) every count reconciled.

mod layers;
mod workload;

use layers::{Counters, Layers};
use pvfs_client::{execute_plan, PvfsFile};
use pvfs_core::{IoKind, ListRequest, MethodConfig};
use pvfs_disk::StorageConfig;
use pvfs_net::{ClusterClient, LiveCluster};
use pvfs_server::IodConfig;
use pvfs_types::{StripeLayout, TraceId, TraceMode};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Rank, Rng, Spec, MIB, STRIPE};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Seconds taken by each set-up, and by its manager create and request
/// generation steps.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    create: Vec<f64>,
    generate: Vec<f64>,
}

const FILE_PATH: &str = "/perfbench/file";

/// A fresh cluster for `spec`, a client in trace `mode`, an empty file
/// striped over every daemon, and the time the manager's create took.
fn spawn(
    spec: &Spec,
    mode: TraceMode,
) -> Result<(LiveCluster, ClusterClient, PvfsFile, Duration), String> {
    let cluster = LiveCluster::spawn_storage(
        spec.servers,
        IodConfig::default(),
        spec.transport,
        StorageConfig::Mem,
    );
    let client = cluster.client().with_trace_mode(mode);
    let layout = StripeLayout::new(0, spec.servers, STRIPE).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let file = PvfsFile::create(&client, FILE_PATH, layout).map_err(|e| e.to_string())?;
    Ok((cluster, client, file, t.elapsed()))
}

/// One timed set-up: cluster spawn, manager create, request generation.
/// The cluster is torn down afterwards; every pass spawns its own.
fn set_up(spec: &Spec, seed: u64, times: &mut SetupTimes) -> Result<Vec<Rank>, String> {
    let started = Instant::now();
    let (_cluster, _, _, create) = spawn(spec, TraceMode::Off)?;
    times.create.push(create.as_secs_f64());
    let t = Instant::now();
    let ranks = workload::generate(spec, seed).map_err(|e| e.to_string())?;
    times.generate.push(t.elapsed().as_secs_f64());
    times.total.push(started.elapsed().as_secs_f64());
    Ok(ranks)
}

/// One phase kind (write or read) over every pass of a mode. A run
/// reports MB/s over the summed phase time of all its passes, and the
/// mean over passes of each pass's op latency percentiles, taken from
/// raw op durations. Passes are not alike even with no host steal: on
/// `list-beyond-cache` one pass of a run evicted at about 20 ms per op
/// and the next at about 30 ms. A median over the two or three passes
/// a run holds, or a percentile over their pooled ops, jumps between
/// such passes; a total or a mean over them moves much less.
#[derive(Default)]
struct Phase {
    bytes: u64,
    ns: u128,
    ops: usize,
    /// Σ `PlanStats::requests` of the ops run.
    plan_requests: u64,
    /// The current pass's op durations, in ns.
    samples: Vec<u64>,
    pass_p50_ms: Vec<f64>,
    pass_p90_ms: Vec<f64>,
}

impl Phase {
    /// Bytes / phase time over every pass, in 10^6 B/s.
    fn mbps(&self) -> f64 {
        ratio(self.bytes as f64 * 1e3, self.ns as f64)
    }

    /// Close a pass that started when the tallies read `(bytes, ns)`;
    /// returns the pass's own figures as text.
    fn end_pass(&mut self, (bytes, ns): (u64, u128)) -> String {
        let mbps = ratio((self.bytes - bytes) as f64 * 1e3, (self.ns - ns) as f64);
        let p50 = percentile(&self.samples, 0.5) / 1e6;
        let p90 = percentile(&self.samples, 0.9) / 1e6;
        self.pass_p50_ms.push(p50);
        self.pass_p90_ms.push(p90);
        self.ops += self.samples.len();
        self.samples.clear();
        format!("{mbps:.2} MB/s (op p50 {p50:.3} ms, p90 {p90:.3} ms)")
    }

    /// Sample counts behind each latency figure.
    fn counts(&self) -> String {
        let passes = self.pass_p50_ms.len();
        format!(
            "mean of {passes} passes, {} ops each",
            self.ops / passes.max(1)
        )
    }
}

/// Passes of one kind (traced or untraced).
#[derive(Default)]
struct Mode {
    passes: u64,
    write: Phase,
    read: Phase,
    frames_rx: u64,
}

/// The measured half of a run: the inputs and the tallies.
struct Bench<'a> {
    spec: &'a Spec,
    ranks: Vec<Rank>,
    read_buf: Vec<u8>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Bench<'_> {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Run every rank once, in `order`, in one direction.
    fn phase(
        &mut self,
        client: &ClusterClient,
        file: &PvfsFile,
        kind: IoKind,
        order: &[usize],
        phase: &mut Phase,
        mut layers: Option<&mut Layers>,
    ) {
        let (method, handle, layout) = (self.spec.method, file.handle(), file.layout());
        let config = MethodConfig::paper_default();
        let plan =
            |request: &ListRequest| pvfs_core::plan(method, kind, request, handle, layout, &config);
        let mut last_trace: Option<TraceId> = None;
        for &r in order {
            let rank = &mut self.ranks[r];
            let len = rank.data.len();
            let t0 = Instant::now();
            let planned = plan(&rank.request);
            let t1 = Instant::now();
            let result = planned.and_then(|p| {
                let stats = p.stats;
                let user = user_buf(kind, rank, &mut self.read_buf);
                execute_plan(p, user, client).map(|report| (stats, report))
            });
            let t2 = Instant::now();
            let op_ns = (t2 - t0).as_nanos();
            phase.ns += op_ns;
            self.attempted += 1;
            let (stats, report) = match result {
                Ok(done) => done,
                Err(e) => {
                    self.failed += 1;
                    self.problem(format!("{kind:?} of rank {r} failed: {e}"));
                    continue;
                }
            };
            phase.plan_requests += stats.requests;
            phase.samples.push(op_ns as u64);
            if kind == IoKind::Read && self.read_buf[..len] != rank.data[..] {
                self.failed += 1;
                self.problem(format!("rank {r} read back bytes it did not write"));
                continue;
            }
            phase.bytes += len as u64;
            let Some(l) = layers.as_deref_mut() else {
                continue;
            };
            l.ops += 1;
            l.op_ns += op_ns;
            l.plan_ns += (t1 - t0).as_nanos();
            l.execute_ns += (t2 - t1).as_nanos();
            l.wire_ns += u128::from(report.phase_wire_ns);
            l.merge_ns += u128::from(report.phase_merge_ns);
            l.rounds += report.rounds;
            l.plan_requests += stats.requests;
            if let Err(e) = l.drain_trace(client, &mut last_trace) {
                self.problem(format!("rank {r}: {e}"));
            }
            let rank = &mut self.ranks[r];
            let regions = rank.request.file_region_count() as u64;
            match plan(&rank.request) {
                Ok(p) => l.replay_codec(p, user_buf(kind, rank, &mut self.read_buf), regions),
                Err(e) => self.problem(format!("rank {r}: replanning failed: {e}")),
            }
        }
    }

    /// An unmeasured write phase on a throwaway cluster, run before the
    /// passes. Without it the first pass of a process is an outlier:
    /// its write op p90 read 2.7 ms on `cyclic-list` where later passes
    /// read 1.7 ms, and its write op p50 1.45 ms on `list-beyond-cache`
    /// against 0.9 ms. Freeing the first cluster's storage raises the
    /// allocator's threshold for mapping fresh pages, which is a likely
    /// cause; a long-lived daemon runs in the state after it.
    fn warm_up(&mut self, order: &[usize]) -> Result<(), String> {
        let (_cluster, client, file, _) = spawn(self.spec, TraceMode::Off)?;
        let mut unmeasured = Phase::default();
        self.phase(&client, &file, IoKind::Write, order, &mut unmeasured, None);
        Ok(())
    }

    /// One pass on a fresh cluster: write every rank, read every rank
    /// back, tear the cluster down. Traced when `layers` is given.
    fn pass(
        &mut self,
        order: &[usize],
        mode: &mut Mode,
        mut layers: Option<&mut [Layers; 2]>,
    ) -> Result<(), String> {
        let traced = layers.is_some();
        let trace_mode = if traced {
            TraceMode::All
        } else {
            TraceMode::Off
        };
        let (cluster, client, file, _) = spawn(self.spec, trace_mode)?;
        let (client, handle) = (&client, file.handle());
        let (w0, r0) = (
            (mode.write.bytes, mode.write.ns),
            (mode.read.bytes, mode.read.ns),
        );
        let steal0 = host_steal();
        let before = Counters::read(&cluster, client, handle);
        self.phase(
            client,
            &file,
            IoKind::Write,
            order,
            &mut mode.write,
            layers.as_deref_mut().map(|l| &mut l[0]),
        );
        let middle = Counters::read(&cluster, client, handle);
        self.phase(
            client,
            &file,
            IoKind::Read,
            order,
            &mut mode.read,
            layers.as_deref_mut().map(|l| &mut l[1]),
        );
        let after = Counters::read(&cluster, client, handle);
        if let Some(l) = layers {
            l[0].counters += middle.since(&before);
            l[1].counters += after.since(&middle);
        }
        mode.frames_rx += after.since(&before).frames_rx;
        mode.passes += 1;
        let steal = match (steal0, host_steal()) {
            (Some((s0, t0)), Some((s1, t1))) => ratio(100.0 * (s1 - s0) as f64, (t1 - t0) as f64),
            _ => 0.0,
        };
        println!(
            "pass {}{}: write {}, read {}, host steal {steal:.1}%",
            mode.passes,
            if traced { " traced" } else { "" },
            mode.write.end_pass(w0),
            mode.read.end_pass(r0)
        );
        Ok(())
    }
}

/// The buffer an op runs on: the rank's own bytes for a write, the
/// shared read buffer for a read.
fn user_buf<'a>(kind: IoKind, rank: &'a mut Rank, read_buf: &'a mut [u8]) -> &'a mut [u8] {
    match kind {
        IoKind::Write => &mut rank.data,
        IoKind::Read => &mut read_buf[..rank.data.len()],
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear-interpolated percentile of raw samples (`p` in 0..=1).
fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let x = p * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (x - lo as f64)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// (steal, total) CPU ticks of the host so far, from `/proc/stat`: the
/// time a hypervisor ran other guests while this one wanted the CPU.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// A reported metric: name, value, unit, and a human-readable note.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn end_to_end(spec: &Spec, m: &Mode, times: &SetupTimes, peak_rss: f64) -> Vec<Metric> {
    let user_mib = (m.write.bytes + m.read.bytes) as f64 / MIB;
    let (w, r) = (m.write.counts(), m.read.counts());
    vec![
        metric(
            "write_MBps",
            m.write.mbps(),
            "MB/s",
            format!("{} passes", m.passes),
        ),
        metric("read_MBps", m.read.mbps(), "MB/s", "verified bytes only"),
        metric(
            "write_op_p50_ms",
            mean(&m.write.pass_p50_ms),
            "ms",
            w.clone(),
        ),
        metric("write_op_p90_ms", mean(&m.write.pass_p90_ms), "ms", w),
        metric("read_op_p50_ms", mean(&m.read.pass_p50_ms), "ms", r.clone()),
        metric("read_op_p90_ms", mean(&m.read.pass_p90_ms), "ms", r),
        metric(
            "requests_per_MiB",
            ratio(m.frames_rx as f64, user_mib),
            "req/MiB",
            format!(
                "{} daemon frames, {} {}",
                m.frames_rx,
                spec.transport,
                spec.method.name()
            ),
        ),
        metric(
            "setup_s",
            median(&times.total),
            "s",
            format!("median of {} set-ups", times.total.len()),
        ),
        metric(
            "peak_rss_MiB",
            peak_rss,
            "MiB",
            "VmHWM after set-up and the warm-up",
        ),
    ]
}

/// Per-layer metrics from the traced passes. Sums and counts are per
/// traced pass (write and read phases together); ratios are over all
/// traced passes. Set-up steps are medians over set-ups.
fn per_layer(
    spec: &Spec,
    traced: &Mode,
    untraced: &Mode,
    l: &Layers,
    times: &SetupTimes,
) -> Vec<Metric> {
    let per = |x: f64| x / traced.passes.max(1) as f64;
    let per_s = |ns: u128| per(secs(ns));
    let (c, rpcs) = (&l.counters, l.rpcs() as f64);
    let workers = (spec.servers as usize * IodConfig::default().workers) as f64;
    let (tw, tr) = (traced.write.mbps(), traced.read.mbps());
    let rows = [
        ("workloads.gen_s", median(&times.generate), "s"),
        ("manager.create_s", median(&times.create), "s"),
        ("core.plan_s", per_s(l.plan_ns), "s"),
        ("core.wire_requests", per(l.plan_requests as f64), "count"),
        (
            "core.regions_per_request",
            ratio(l.wire_regions as f64, l.wire_requests as f64),
            "ratio",
        ),
        ("proto.encode_s", per_s(l.encode_ns), "s"),
        ("proto.decode_s", per_s(l.decode_ns), "s"),
        ("proto.frame_bytes", per(l.frame_bytes as f64), "B"),
        ("client.execute_s", per_s(l.execute_ns), "s"),
        ("client.phase_wire_s", per_s(l.wire_ns), "s"),
        ("client.phase_merge_s", per_s(l.merge_ns), "s"),
        ("client.scatter_s", per_s(l.scatter_ns()), "s"),
        ("client.rounds", per(l.rounds as f64), "count"),
        ("net.rpcs", per(rpcs), "count"),
        (
            "net.attempts_per_rpc",
            ratio(c.attempts as f64, rpcs),
            "ratio",
        ),
        (
            "net.rpc_mean_us",
            ratio(l.rpc_ns() as f64, rpcs) / 1e3,
            "us",
        ),
        ("net.transit_s", per_s(l.transit_ns()), "s"),
        ("server.frames_rx", per(c.frames_rx as f64), "count"),
        ("server.bytes_rx", per(c.bytes_rx as f64), "B"),
        ("server.bytes_tx", per(c.bytes_tx as f64), "B"),
        ("server.regions", per(c.regions as f64), "count"),
        ("server.queue_wait_s", per_s(c.queue_wait_ns), "s"),
        ("server.service_s", per_s(c.service_ns), "s"),
        (
            "server.busy_share",
            ratio(secs(c.service_ns), workers * secs(l.op_ns)),
            "ratio",
        ),
        ("server.errors", per(c.errors as f64), "count"),
        (
            "disk.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        ("disk.cache_misses", per(c.cache_misses as f64), "count"),
        ("disk.writebacks", per(c.writebacks as f64), "count"),
        ("disk.storage_read_s", per_s(l.storage_read_ns), "s"),
        ("disk.storage_write_s", per_s(l.storage_write_ns), "s"),
        ("trace.write_MBps", tw, "MB/s"),
        ("trace.read_MBps", tr, "MB/s"),
        (
            "trace.write_ratio",
            ratio(tw, untraced.write.mbps()),
            "ratio",
        ),
        ("trace.read_ratio", ratio(tr, untraced.read.mbps()), "ratio"),
    ];
    rows.into_iter()
        .map(|(name, value, unit)| metric(name, value, unit, ""))
        .collect()
}

/// Counts that must agree exactly in a traced run; each mismatch is
/// returned as a sentence.
fn reconcile(l: &Layers) -> Vec<String> {
    let c = &l.counters;
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    check(
        c.frames_rx == l.plan_requests,
        format!(
            "server.frames_rx {} != PlanStats requests {}",
            c.frames_rx, l.plan_requests
        ),
    );
    let rpcs = l.rpcs();
    check(
        c.frames_rx == rpcs,
        format!("server.frames_rx {} != net.rpcs {rpcs}", c.frames_rx),
    );
    check(
        c.attempts == rpcs,
        format!(
            "net attempts {} != net.rpcs {rpcs} on a healthy cluster",
            c.attempts
        ),
    );
    check(
        l.list_rule_violations == 0,
        format!(
            "{} rounds or ops broke the ceil(regions/64) bound",
            l.list_rule_violations
        ),
    );
    check(
        l.traces == l.ops && l.service_spans == c.frames_rx && l.rpc_spans == rpcs,
        format!(
            "trace coverage: {} traces for {} ops, {} service spans for {} frames, {} rpc spans for {rpcs} rpcs",
            l.traces, l.ops, l.service_spans, c.frames_rx, l.rpc_spans
        ),
    );
    bad
}

/// Where each phase's time went, as shares of the phase time. Daemon
/// times are summed over daemons serving in parallel.
fn print_split(phases: &[(&str, &Layers)]) {
    println!(
        "{:<8} {:>9} {:>7} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "phase", "time_s", "plan", "execute", "scatter", "transit", "queue", "service", "storage"
    );
    for (name, l) in phases {
        let t = l.op_ns as f64;
        let share = |ns: u128| format!("{:.1}%", ratio(100.0 * ns as f64, t));
        let c = &l.counters;
        println!(
            "{:<8} {:>9.4} {:>7} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8}",
            name,
            secs(l.op_ns),
            share(l.plan_ns),
            share(l.execute_ns),
            share(l.scatter_ns()),
            share(l.transit_ns()),
            share(c.queue_wait_ns),
            share(c.service_ns),
            share(l.storage_read_ns + l.storage_write_ns),
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(spec: &Spec, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("workload: {}", spec.describe());

    let mut times = SetupTimes::default();
    let mut ranks = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut ranks));
        ranks = set_up(spec, args.seed, &mut times)?;
    }
    let max_len = ranks.iter().map(|r| r.data.len()).max().unwrap_or(0);
    let mut bench = Bench {
        spec,
        ranks,
        read_buf: vec![0u8; max_len],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // One seeded order for both phases of every pass: passes repeat one
    // measurement, every count repeats exactly, and a working set larger
    // than the daemon cache is re-read in the order it was written, the
    // LRU worst case, whatever the seed.
    let order = Rng::new(args.seed, 2).permutation(bench.ranks.len());
    let mut untraced = Mode::default();
    let mut traced = Mode::default();
    let mut layers = [Layers::default(), Layers::default()];
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    bench.warm_up(&order)?;
    // The first cluster of the process has held the whole file by now.
    // Later clusters land in memory the allocator kept from earlier
    // ones, which would drift the high-water mark from run to run.
    let peak_rss = peak_rss_mib();
    // Passes alternate untraced and traced in a traced run. A pass
    // starts only if one like the last of its kind still fits in the
    // budget, once each kind the run reports has had a pass.
    let mut took = [Duration::ZERO; 2];
    for pass in 0usize.. {
        let kind = usize::from(args.trace && pass % 2 == 1);
        let t = Instant::now();
        if kind == 1 {
            bench.pass(&order, &mut traced, Some(&mut layers))?;
        } else {
            bench.pass(&order, &mut untraced, None)?;
        }
        took[kind] = t.elapsed();
        let next = usize::from(args.trace && pass % 2 == 0);
        let next_took = if took[next].is_zero() {
            took[kind]
        } else {
            took[next]
        };
        let covered = !args.trace || traced.passes > 0;
        if bench.failed > 0 || (covered && started.elapsed() + next_took > budget) {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let (attempted, failed) = (bench.attempted, bench.failed);
    let mut problems = std::mem::take(&mut bench.problems);
    drop(bench);

    let planned = untraced.write.plan_requests + untraced.read.plan_requests;
    if untraced.frames_rx != planned {
        problems.push(format!(
            "untraced passes: {} daemon frames for {planned} planned requests",
            untraced.frames_rx
        ));
    }
    let mut total = layers[0].clone();
    total += &layers[1];
    let metrics = if args.trace {
        problems.extend(reconcile(&total));
        per_layer(spec, &traced, &untraced, &total, &times)
    } else {
        end_to_end(spec, &untraced, &times, peak_rss)
    };

    println!(
        "measured {measured_s:.2} s: {} untraced + {} traced passes, {attempted} ops",
        untraced.passes, traced.passes
    );
    println!("{:<26} {:>16} {:<8} note", "metric", "value", "unit");
    for m in &metrics {
        let line = format!("{:<26} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        println!("{}", line.trim_end());
    }
    println!(
        "{:<26} {:>16.6} {:<8} {failed} of {attempted} ops failed or did not verify",
        "failed_op_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio"
    );
    if args.trace {
        for (name, u, t) in [
            ("write", &untraced.write, &traced.write),
            ("read", &untraced.read, &traced.read),
        ] {
            println!(
                "tracing overhead, {name}: untraced {:.2} MB/s, traced {:.2} MB/s, ratio {:.3}",
                u.mbps(),
                t.mbps(),
                ratio(t.mbps(), u.mbps())
            );
        }
        println!(
            "trace: drained after every op, none sampled away: {} traces for {} ops, \
             {} rpc spans, {} daemon service spans",
            total.traces, total.ops, total.rpc_spans, total.service_spans
        );
        println!("split of traced phase time (RPC and daemon times summed over parallel RPCs):");
        print_split(&[
            ("write", &layers[0]),
            ("read", &layers[1]),
            ("both", &total),
        ]);
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
