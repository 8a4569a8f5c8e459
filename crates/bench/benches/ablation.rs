//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the trailing-data limit (the paper's "conservative" 64),
//! * the data sieving buffer size (the paper's 32 MB),
//! * hybrid clustering gap,
//! * datatype compression vs explicit lists.
//!
//! Each reports the *simulated* seconds through criterion's wall-time
//! of a deterministic sim run — the run itself is the measurement
//! kernel, and the simulated results are printed once per config so
//! the ablation numbers land in the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pvfs_core::{plan, IoKind, ListRequest, Method, MethodConfig};
use pvfs_sim::CostConfig;
use pvfs_simcluster::{ClientJob, SimCluster};
use pvfs_types::{FileHandle, RegionList, StripeLayout};
use std::time::Duration;

const FH: FileHandle = FileHandle(9);

fn strided_request(n: u64, len: u64, stride: u64) -> ListRequest {
    ListRequest::gather(RegionList::from_pairs((0..n).map(|i| (i * stride, len))).unwrap())
}

fn simulate(request: &ListRequest, method: Method, kind: IoKind, cfg: &MethodConfig) -> f64 {
    let layout = StripeLayout::paper_default(8);
    let mut sim = SimCluster::new(8, CostConfig::paper_default());
    let file_size = request.file.extent().unwrap().end();
    if kind == IoKind::Read {
        sim.seed_warm(FH, &layout, file_size);
    }
    let p = plan(method, kind, request, FH, layout, cfg).unwrap();
    let user = vec![0u8; request.mem.extent().map(|e| e.end()).unwrap_or(0) as usize];
    let (report, _) = sim.run(vec![ClientJob { plan: p, user }]).unwrap();
    report.seconds()
}

/// The paper chose 64 regions per list request to fit one Ethernet
/// frame and called it conservative. Sweep the limit.
fn ablate_trailing_limit(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_trailing_limit");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let request = strided_request(8192, 64, 256);
    for limit in [8usize, 16, 32, 64] {
        let cfg = MethodConfig {
            max_list_regions: limit,
            ..MethodConfig::paper_default()
        };
        let sim_secs = simulate(&request, Method::List, IoKind::Write, &cfg);
        println!("ablation trailing_limit={limit}: simulated {sim_secs:.3}s");
        g.bench_with_input(BenchmarkId::from_parameter(limit), &limit, |b, _| {
            b.iter(|| simulate(&request, Method::List, IoKind::Write, &cfg))
        });
    }
    g.finish();
}

/// The 32 MB sieve buffer against smaller windows on a dense pattern.
fn ablate_sieve_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sieve_buffer");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let request = strided_request(16_384, 256, 512); // 8 MiB extent, 50% dense
    for buffer in [256 << 10u64, 1 << 20, 4 << 20, 32 << 20] {
        let cfg = MethodConfig {
            sieve_buffer: buffer,
            ..MethodConfig::paper_default()
        };
        let sim_secs = simulate(&request, Method::DataSieving, IoKind::Read, &cfg);
        println!(
            "ablation sieve_buffer={}KiB: simulated {sim_secs:.3}s",
            buffer >> 10
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(buffer >> 10),
            &buffer,
            |b, _| b.iter(|| simulate(&request, Method::DataSieving, IoKind::Read, &cfg)),
        );
    }
    g.finish();
}

/// Hybrid gap threshold across a clustered pattern.
fn ablate_hybrid_gap(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hybrid_gap");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    // Clusters: 8 regions of 512 B with 128 B gaps, clusters 1 MiB apart.
    let mut file = RegionList::new();
    let mut off = 0u64;
    for _ in 0..256 {
        for _ in 0..8 {
            file.push(pvfs_types::Region::new(off, 512));
            off += 512 + 128;
        }
        off += 1 << 20;
    }
    let request = ListRequest::gather(file);
    for gap in [0u64, 128, 1024, 65_536] {
        let cfg = MethodConfig {
            hybrid_gap: gap,
            hybrid_min_density: 0.3,
            ..MethodConfig::paper_default()
        };
        let sim_secs = simulate(&request, Method::Hybrid, IoKind::Read, &cfg);
        println!("ablation hybrid_gap={gap}: simulated {sim_secs:.3}s");
        g.bench_with_input(BenchmarkId::from_parameter(gap), &gap, |b, _| {
            b.iter(|| simulate(&request, Method::Hybrid, IoKind::Read, &cfg))
        });
    }
    g.finish();
}

/// Datatype compression against explicit lists on a regular pattern.
fn ablate_datatype(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_datatype_vs_list");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let request = strided_request(32_768, 32, 128);
    for method in [Method::List, Method::Datatype] {
        let cfg = MethodConfig::paper_default();
        let sim_secs = simulate(&request, method, IoKind::Read, &cfg);
        println!("ablation {}: simulated {sim_secs:.3}s", method.name());
        g.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &m| b.iter(|| simulate(&request, m, IoKind::Read, &cfg)),
        );
    }
    g.finish();
}

/// Cold sequential reads with and without kernel-style read-ahead, and
/// LRU vs CLOCK replacement under a thrashing pattern.
fn ablate_cache(c: &mut Criterion) {
    use pvfs_disk::{CacheConfig, CachePolicy, CostModel, DiskModel};
    let mut g = c.benchmark_group("ablation_cache");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for ra in [0u64, 32] {
        let cold_sequential = move || {
            let mut cfg = CacheConfig::paper_default();
            cfg.readahead_blocks = ra;
            let mut m = CostModel::new(cfg, DiskModel::paper_default());
            let mut disk_ns = 0u64;
            for i in 0..512u64 {
                disk_ns += m.charge_read(i * 4096, 4096).disk_ns;
            }
            disk_ns
        };
        let ns = cold_sequential();
        println!(
            "ablation readahead={ra}: cold sequential 2 MiB costs {:.1} ms of disk",
            ns as f64 / 1e6
        );
        g.bench_with_input(BenchmarkId::new("readahead", ra), &ra, |b, _| {
            b.iter(cold_sequential)
        });
    }
    for policy in [CachePolicy::Lru, CachePolicy::Clock] {
        let thrash = move || {
            let mut cfg = CacheConfig::paper_default();
            cfg.capacity_blocks = 256;
            cfg.policy = policy;
            let mut m = CostModel::new(cfg, DiskModel::paper_default());
            let mut hits = 0u64;
            // A re-referenced hot set (fits) plus one-touch scans that
            // don't: the classic scan-resistance scenario CLOCK's
            // second chances help with and exact LRU does not.
            for round in 0..64u64 {
                for _ in 0..3 {
                    for h in 0..128u64 {
                        hits += m.charge_read(h * 4096, 64).cache.hit_blocks;
                    }
                }
                let r = m.charge_read((1000 + round * 200) * 4096, 200 * 4096);
                hits += r.cache.hit_blocks;
            }
            hits
        };
        let hits = thrash();
        println!("ablation cache policy {policy:?}: {hits} hits under scan pressure");
        g.bench_with_input(
            BenchmarkId::new("policy", format!("{policy:?}")),
            &policy,
            |b, _| b.iter(thrash),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_trailing_limit,
    ablate_sieve_buffer,
    ablate_hybrid_gap,
    ablate_datatype,
    ablate_cache
);
criterion_main!(benches);
