//! Local storage under each PVFS I/O daemon, and the simulator's model
//! of what that storage costs.
//!
//! PVFS is "built on the local file system, which allows the Linux buffer
//! cache to reduce the cost of individual local disk operations on the
//! I/O servers" (§2). The two halves of that sentence live apart here:
//!
//! * [`LocalFile`] — one I/O daemon's bytes for one handle, behind the
//!   [`StorageBackend`] seam: [`SparseStore`] is the volatile in-memory
//!   backend, and [`FileStore`] is the durable one — a real local file
//!   per handle plus a write-ahead intent journal ([`journal`]) that
//!   makes noncontiguous list writes all-or-nothing across a crash
//!   (`PVFS_STORAGE=file:<dir>`, `PVFS_SYNC=never|interval:<ms>|always`).
//!   Live daemons serve bytes from it and model no cost.
//! * [`CostModel`] — the simulator's per-file cost model, charged with
//!   the same local accesses: a [`BufferCache`] LRU block *residency
//!   model* (which blocks would be memory-resident, without holding
//!   data) and a [`DiskModel`] seek + rotational + transfer timing for
//!   the accesses that miss it (calibrated to the paper's 9 GB Quantum
//!   Atlas IV SCSI disks). Each charge returns a [`CostReport`] that the
//!   discrete-event simulator converts to virtual time.

pub mod backend;
pub mod cache;
pub mod cost;
pub mod filestore;
pub mod journal;
pub mod localfile;
pub mod model;
pub mod scratch;
pub mod store;

pub use backend::{CrashPoint, StorageBackend, StorageConfig, StorageMetrics, SyncPolicy};
pub use cache::{BufferCache, CacheConfig, CacheOutcome, CachePolicy};
pub use cost::{CostModel, CostReport};
pub use filestore::FileStore;
pub use journal::{Journal, JournalRecord};
pub use localfile::LocalFile;
pub use model::DiskModel;
pub use scratch::ScratchDir;
pub use store::SparseStore;
