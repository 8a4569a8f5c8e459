//! The named workloads and their seeded inputs.
//!
//! Every workload is the paper's 1-D cyclic pattern (Fig. 7, generated
//! by `pvfs_workloads::Cyclic`): rank `r` of `clients` owns every
//! `clients`-th region of the file. One op is one rank's whole request,
//! so the region count per op is `accesses_per_client`. Rank counts are
//! chosen so the cyclic stride is not a multiple of `servers × STRIPE`;
//! otherwise every region of a rank would land on a single daemon.

use pvfs_core::{ListRequest, Method};
use pvfs_net::TransportKind;
use pvfs_types::PvfsResult;
use pvfs_workloads::Cyclic;

/// Stripe unit of every benchmark file.
pub const STRIPE: u64 = 16 * 1024;

/// One named workload: cluster shape, access method and pattern.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub servers: u32,
    pub transport: TransportKind,
    pub method: Method,
    pub pattern: Cyclic,
}

impl Spec {
    /// Look a workload up by its `BENCHMARK.json` name.
    pub fn named(name: &str) -> Option<Spec> {
        let cyclic = |clients: u64, accesses: u64, region: u64| Cyclic {
            clients,
            accesses_per_client: accesses,
            aggregate_bytes: clients * accesses * region,
        };
        let spec = match name {
            // 250 MiB over 4 daemons: about 62 MiB each, half the
            // per-handle cache, so eviction never runs.
            "cyclic-list" => Spec {
                name: "cyclic-list",
                servers: 4,
                transport: TransportKind::Chan,
                method: Method::List,
                pattern: cyclic(1000, 1024, 256),
            },
            // 15.6 MiB, one RPC per 1 KiB region over TCP loopback.
            "multiple-tcp" => Spec {
                name: "multiple-tcp",
                servers: 2,
                transport: TransportKind::Tcp,
                method: Method::Multiple,
                pattern: cyclic(125, 128, 1024),
            },
            // 319 MiB over 2 daemons: about 1.25x the 128 MiB
            // per-handle cache on each.
            "list-beyond-cache" => Spec {
                name: "list-beyond-cache",
                servers: 2,
                transport: TransportKind::Chan,
                method: Method::List,
                pattern: cyclic(319, 256, 4096),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Bytes of one region.
    pub fn region_bytes(&self) -> u64 {
        self.pattern.aggregate_bytes / (self.pattern.clients * self.pattern.accesses_per_client)
    }

    /// One-line description for the report header.
    pub fn describe(&self) -> String {
        format!(
            "{} {} daemons, {}, {} ranks x {} regions x {} B = {:.1} MiB, {} KiB stripes",
            self.servers,
            self.transport,
            self.method.name(),
            self.pattern.clients,
            self.pattern.accesses_per_client,
            self.region_bytes(),
            self.pattern.aggregate_bytes as f64 / MIB,
            STRIPE / 1024
        )
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// One rank's request and the bytes it writes (and must read back).
pub struct Rank {
    pub request: ListRequest,
    pub data: Vec<u8>,
}

/// SplitMix64: a tiny seeded generator, enough for fill bytes and
/// shuffles.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// Every rank's request plus its seeded fill bytes.
pub fn generate(spec: &Spec, seed: u64) -> PvfsResult<Vec<Rank>> {
    let mut rng = Rng::new(seed, 1);
    (0..spec.pattern.clients)
        .map(|rank| {
            let request = spec.pattern.request_for(rank)?;
            let mut data = vec![0u8; request.total_len() as usize];
            rng.fill(&mut data);
            Ok(Rank { request, data })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = Spec::named("multiple-tcp").unwrap();
        let a = generate(&spec, 7).unwrap();
        let b = generate(&spec, 7).unwrap();
        let c = generate(&spec, 8).unwrap();
        assert!(a.iter().zip(&b).all(|(x, y)| x.data == y.data));
        assert!(a.iter().zip(&c).any(|(x, y)| x.data != y.data));
        assert_eq!(
            Rng::new(3, 2).permutation(50),
            Rng::new(3, 2).permutation(50)
        );
    }

    #[test]
    fn ranks_spread_over_every_daemon() {
        for name in ["cyclic-list", "multiple-tcp", "list-beyond-cache"] {
            let spec = Spec::named(name).unwrap();
            let stride = spec.region_bytes() * spec.pattern.clients;
            assert_ne!(stride % (STRIPE * u64::from(spec.servers)), 0, "{name}");
        }
    }
}
