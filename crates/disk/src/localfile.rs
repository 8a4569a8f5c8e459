//! One I/O daemon's local file: the bytes of one handle.

use crate::backend::{CrashPoint, StorageBackend};
use crate::cache::CacheStats;
use crate::store::SparseStore;
use pvfs_types::PvfsResult;

/// A local file under one I/O daemon: a [`StorageBackend`] for the
/// bytes (memory or durable file+journal) and the count of mutations
/// applied to it. It models no cost; the simulator charges its
/// [`CostModel`](crate::CostModel) with the same accesses instead.
#[derive(Debug)]
pub struct LocalFile {
    store: Box<dyn StorageBackend>,
    /// Mutating ops applied this daemon incarnation. Deliberately not
    /// persisted: a freshly restarted daemon answers 0, so anti-entropy
    /// scrub never mistakes it for the freshest copy.
    write_version: u64,
}

impl LocalFile {
    /// New empty memory-backed file.
    pub fn in_memory() -> LocalFile {
        LocalFile::with_backend(Box::new(SparseStore::new()))
    }

    /// A file over an explicit backend (the durable
    /// [`FileStore`](crate::FileStore), a test double, ...).
    pub fn with_backend(store: Box<dyn StorageBackend>) -> LocalFile {
        LocalFile {
            store,
            write_version: 0,
        }
    }

    /// Local file size (one past the highest byte written).
    pub fn size(&self) -> u64 {
        self.store.size()
    }

    /// The storage backend (accounting, crash injection, oracles).
    pub fn backend(&self) -> &dyn StorageBackend {
        self.store.as_ref()
    }

    /// Cache statistics: always zero, because a live file keeps no cache
    /// model. Kept so per-layer reports can still ask.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Read `len` bytes at `offset` (zero-filled past EOF).
    pub fn read_at(&self, offset: u64, len: usize) -> PvfsResult<Vec<u8>> {
        self.store.read_vec(offset, len)
    }

    /// Write `data` at `offset`.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> PvfsResult<()> {
        self.write_batch(&[(offset, data)])
    }

    /// Apply a whole request's runs as one batch — all-or-nothing
    /// across a crash on durable backends (one journal record), plain
    /// in-order writes on memory.
    pub fn write_batch(&mut self, runs: &[(u64, &[u8])]) -> PvfsResult<()> {
        self.store.write_batch(runs)?;
        self.write_version += 1;
        Ok(())
    }

    /// Durability barrier: fsync the backend. Returns the bytes now
    /// durable.
    pub fn sync(&mut self) -> PvfsResult<u64> {
        self.store.sync()
    }

    /// Truncate the file.
    pub fn truncate(&mut self, size: u64) -> PvfsResult<()> {
        self.store.truncate(size)?;
        self.write_version += 1;
        Ok(())
    }

    /// Mutating ops applied since this `LocalFile` was opened.
    pub fn write_version(&self) -> u64 {
        self.write_version
    }

    /// Anti-entropy digests: fnv1a64 over each `chunk`-byte piece of
    /// the local bytes `[i*chunk, min((i+1)*chunk, size))`, plus the
    /// in-memory write version.
    pub fn digest_chunks(&self, chunk: u64) -> PvfsResult<(u64, Vec<u64>)> {
        debug_assert!(chunk > 0, "digest chunk must be nonzero");
        let size = self.store.size();
        let n = size.div_ceil(chunk);
        let mut chunks = Vec::with_capacity(n as usize);
        for i in 0..n {
            let offset = i * chunk;
            let len = chunk.min(size - offset) as usize;
            let data = self.store.read_vec(offset, len)?;
            chunks.push(crate::journal::fnv1a64(&data));
        }
        Ok((self.write_version, chunks))
    }

    /// Arm a storage crash (test fault injection; no-op on memory).
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.store.inject_crash(point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut f = LocalFile::in_memory();
        f.write_at(100, b"parallel virtual file system").unwrap();
        let data = f.read_at(100, 28).unwrap();
        assert_eq!(&data, b"parallel virtual file system");
        assert_eq!(f.size(), 128);
    }

    #[test]
    fn truncate_zeroes_tail() {
        let mut f = LocalFile::in_memory();
        f.write_at(0, &[5u8; 100]).unwrap();
        f.truncate(50).unwrap();
        assert_eq!(f.size(), 50);
        let d = f.read_at(40, 20).unwrap();
        assert_eq!(&d[..10], &[5u8; 10]);
        assert_eq!(&d[10..], &[0u8; 10]);
    }

    #[test]
    fn write_batch_applies_every_run() {
        let mut f = LocalFile::in_memory();
        f.write_batch(&[(0, &[1u8; 16]), (64, &[2u8; 32])]).unwrap();
        assert_eq!(f.size(), 96);
        assert_eq!(f.read_at(0, 16).unwrap(), vec![1u8; 16]);
        assert_eq!(f.read_at(64, 32).unwrap(), vec![2u8; 32]);
        assert_eq!(f.write_version(), 1, "one batch is one mutation");
    }

    #[test]
    fn digest_chunks_cover_the_tail_and_track_writes() {
        let mut f = LocalFile::in_memory();
        assert_eq!(f.write_version(), 0);
        assert_eq!(f.digest_chunks(16).unwrap(), (0, vec![]));
        f.write_at(0, &[1u8; 40]).unwrap();
        let (v, d) = f.digest_chunks(16).unwrap();
        assert_eq!(v, 1);
        assert_eq!(d.len(), 3); // 16 + 16 + 8-byte tail
                                // Same bytes, different chunking boundaries -> same per-chunk
                                // hashes as a hand computation.
        assert_eq!(d[0], crate::journal::fnv1a64(&[1u8; 16]));
        assert_eq!(d[2], crate::journal::fnv1a64(&[1u8; 8]));
        // A write anywhere bumps the version; an identical overwrite
        // leaves the digests equal.
        f.write_at(0, &[1u8; 40]).unwrap();
        let (v2, d2) = f.digest_chunks(16).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(d2, d);
        // A divergent byte flips exactly its chunk.
        f.write_at(17, &[9u8]).unwrap();
        let (_, d3) = f.digest_chunks(16).unwrap();
        assert_eq!(d3[0], d[0]);
        assert_ne!(d3[1], d[1]);
        assert_eq!(d3[2], d[2]);
        // Truncate counts as a mutation too.
        f.truncate(10).unwrap();
        let (v4, d4) = f.digest_chunks(16).unwrap();
        assert_eq!(v4, 4);
        assert_eq!(d4.len(), 1);
    }

    #[test]
    fn memory_backend_sync_reports_nothing_durable() {
        let mut f = LocalFile::in_memory();
        f.write_at(0, &[1u8; 64]).unwrap();
        assert_eq!(f.sync().unwrap(), 0);
        assert_eq!(f.backend().durable_bytes(), 0);
        assert!(f.backend().resident_bytes() > 0);
    }
}
