//! The two-tier content-addressed result store.
//!
//! Tier 1 is a bounded in-memory LRU keyed by [`JobDigest`]; tier 2 is
//! an optional on-disk directory with one file per digest. Both tiers
//! store the *encoded* result payload (see
//! [`crate::proto::encode_result`]) verbatim, so a hit replays the
//! exact bytes a miss produced — the cache can never drift from the
//! simulator while the simulator stays deterministic.
//!
//! ## Disk entry layout
//!
//! ```text
//! +-------+---------+------------------+------------------+----------------+
//! | GSPC  | ver u16 | job digest 16 B  | payload u32+data | content digest |
//! +-------+---------+------------------+------------------+----------------+
//! ```
//!
//! The job digest binds the entry to its file name (a renamed or
//! cross-linked file is rejected); the trailing content digest is a
//! checksum of the payload. A read that fails *any* check — magic,
//! version, binding, length, checksum — deletes the entry, bumps the
//! corruption counter and reports a miss, so a damaged cache heals by
//! recomputation instead of serving garbage.
//!
//! The store itself is purely deterministic data-structure code (BTreeMap
//! tiers, explicit recency stamps); all filesystem access lives in the
//! clearly-marked disk-tier methods at the bottom.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]
// `assert!` and friends too (clippy.toml `disallowed-macros`), outside tests.
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpusimpow_trace::wire::{CodecError, Reader, Writer};

use crate::digest::JobDigest;

/// Magic prefix of an on-disk cache entry.
pub const CACHE_MAGIC: [u8; 4] = *b"GSPC";

/// Version of the on-disk entry layout; foreign versions read as
/// corrupt (evict + recompute).
pub const CACHE_ENTRY_VERSION: u16 = 1;

/// Which tier satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTier {
    /// In-memory LRU.
    Memory,
    /// On-disk directory (the entry was promoted to memory).
    Disk,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Disk-tier directory; `None` disables the disk tier.
    pub dir: Option<PathBuf>,
    /// Maximum entries held in the memory tier (≥ 1).
    pub mem_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            dir: None,
            mem_capacity: 1024,
        }
    }
}

/// Counters the store maintains (surfaced through the server's stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    /// Corrupt disk entries detected, deleted and reported as misses.
    pub corrupt_evictions: u64,
    /// Entries written to the disk tier.
    pub disk_writes: u64,
    /// Entries read (and verified) from the disk tier.
    pub disk_reads: u64,
}

/// The two-tier store. Not internally synchronized — the server wraps
/// it in its cache mutex.
#[derive(Debug)]
pub struct ResultStore {
    config: StoreConfig,
    /// digest → (recency stamp, payload). BTreeMap keeps iteration
    /// deterministic (the root `clippy.toml` disallows `HashMap`).
    mem: BTreeMap<JobDigest, (u64, Arc<Vec<u8>>)>,
    /// recency stamp → digest; the smallest stamp is the LRU victim.
    recency: BTreeMap<u64, JobDigest>,
    /// Monotonic logical clock for recency stamps.
    next_stamp: u64,
    counters: StoreCounters,
}

impl ResultStore {
    /// Creates the store, creating the disk-tier directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the disk directory cannot be created.
    pub fn new(mut config: StoreConfig) -> std::io::Result<ResultStore> {
        config.mem_capacity = config.mem_capacity.max(1);
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ResultStore {
            config,
            mem: BTreeMap::new(),
            recency: BTreeMap::new(),
            next_stamp: 0,
            counters: StoreCounters::default(),
        })
    }

    /// Current number of memory-tier entries.
    pub fn mem_entries(&self) -> usize {
        self.mem.len()
    }

    /// The store's counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Looks up a digest, telling the caller which tier answered. A
    /// disk hit is promoted into the memory tier.
    pub fn get(&mut self, digest: JobDigest) -> Option<(Arc<Vec<u8>>, StoreTier)> {
        if let Some((stamp, payload)) = self.mem.get(&digest) {
            let (old_stamp, payload) = (*stamp, Arc::clone(payload));
            self.touch(digest, old_stamp);
            return Some((payload, StoreTier::Memory));
        }
        let payload = self.disk_read(digest)?;
        let payload = Arc::new(payload);
        self.insert_mem(digest, Arc::clone(&payload));
        Some((payload, StoreTier::Disk))
    }

    /// Inserts a freshly computed payload into both tiers.
    pub fn insert(&mut self, digest: JobDigest, payload: Arc<Vec<u8>>) {
        self.disk_write(digest, &payload);
        self.insert_mem(digest, payload);
    }

    // --- memory tier (pure data structures) ------------------------------

    fn touch(&mut self, digest: JobDigest, old_stamp: u64) {
        self.recency.remove(&old_stamp);
        let stamp = self.fresh_stamp();
        self.recency.insert(stamp, digest);
        if let Some(entry) = self.mem.get_mut(&digest) {
            entry.0 = stamp;
        }
    }

    fn insert_mem(&mut self, digest: JobDigest, payload: Arc<Vec<u8>>) {
        if let Some((old_stamp, _)) = self.mem.get(&digest) {
            let old_stamp = *old_stamp;
            self.recency.remove(&old_stamp);
        }
        let stamp = self.fresh_stamp();
        self.mem.insert(digest, (stamp, payload));
        self.recency.insert(stamp, digest);
        while self.mem.len() > self.config.mem_capacity {
            // `recency` holds one stamp per mem entry, so it is never
            // empty while `mem` is over capacity.
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            self.mem.remove(&victim);
        }
    }

    /// The next recency stamp. A `u64` bumped once per cache access
    /// does not wrap within any process lifetime.
    fn fresh_stamp(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp = stamp.wrapping_add(1);
        stamp
    }

    // --- disk tier (the filesystem edge) ----------------------------------

    fn entry_path(dir: &Path, digest: JobDigest) -> PathBuf {
        dir.join(format!("{}.gspc", digest.to_hex()))
    }

    /// Encodes one disk entry: header, payload, trailing checksum.
    fn encode_entry(digest: JobDigest, payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_header(&CACHE_MAGIC, CACHE_ENTRY_VERSION);
        w.put_raw(&digest.0);
        w.put_bytes(payload);
        w.put_raw(&JobDigest::compute(payload).0);
        w.into_bytes()
    }

    /// Decodes and fully verifies one disk entry.
    fn decode_entry(digest: JobDigest, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = Reader::new(bytes);
        r.header(&CACHE_MAGIC, CACHE_ENTRY_VERSION)?;
        if JobDigest(r.array("bound job digest")?) != digest {
            return Err(CodecError::Malformed(format!(
                "entry is bound to another job, not {digest}"
            )));
        }
        let payload = r.bytes("cached payload")?;
        let check = JobDigest(r.array("content digest")?);
        r.finish("cache entry")?;
        if check != JobDigest::compute(payload) {
            return Err(CodecError::DigestMismatch);
        }
        Ok(payload.to_vec())
    }

    /// Reads a digest from the disk tier; any verification failure
    /// deletes the entry and counts a corrupt eviction.
    fn disk_read(&mut self, digest: JobDigest) -> Option<Vec<u8>> {
        let dir = self.config.dir.as_ref()?;
        let path = Self::entry_path(dir, digest);
        let bytes = std::fs::read(&path).ok()?;
        match Self::decode_entry(digest, &bytes) {
            Ok(payload) => {
                self.counters.disk_reads = self.counters.disk_reads.saturating_add(1);
                Some(payload)
            }
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                self.counters.corrupt_evictions = self.counters.corrupt_evictions.saturating_add(1);
                None
            }
        }
    }

    /// Writes an entry atomically: temp file in the same directory,
    /// then rename over the final name. A crash mid-write leaves
    /// either the old entry or a stray temp file, never a torn entry.
    fn disk_write(&mut self, digest: JobDigest, payload: &[u8]) {
        let Some(dir) = self.config.dir.as_ref() else {
            return;
        };
        let path = Self::entry_path(dir, digest);
        let tmp = dir.join(format!(".{}.tmp.{}", digest.to_hex(), std::process::id()));
        let bytes = Self::encode_entry(digest, payload);
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        };
        match write() {
            Ok(()) => self.counters.disk_writes = self.counters.disk_writes.saturating_add(1),
            Err(_) => {
                // Disk-tier failures degrade to memory-only caching.
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u8) -> JobDigest {
        JobDigest([n; 16])
    }

    fn payload(n: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![n; 64])
    }

    fn mem_only(capacity: usize) -> ResultStore {
        ResultStore::new(StoreConfig {
            dir: None,
            mem_capacity: capacity,
        })
        .unwrap()
    }

    #[test]
    fn memory_tier_hits_and_misses() {
        let mut store = mem_only(8);
        assert!(store.get(digest(1)).is_none());
        store.insert(digest(1), payload(1));
        let (p, tier) = store.get(digest(1)).unwrap();
        assert_eq!(tier, StoreTier::Memory);
        assert_eq!(*p, vec![1; 64]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut store = mem_only(2);
        store.insert(digest(1), payload(1));
        store.insert(digest(2), payload(2));
        // Touch 1 so 2 becomes the LRU victim.
        store.get(digest(1)).unwrap();
        store.insert(digest(3), payload(3));
        assert_eq!(store.mem_entries(), 2);
        assert!(store.get(digest(1)).is_some());
        assert!(store.get(digest(2)).is_none());
        assert!(store.get(digest(3)).is_some());
    }

    #[test]
    fn reinsert_updates_payload_without_leaking_recency() {
        let mut store = mem_only(2);
        store.insert(digest(1), payload(1));
        store.insert(digest(1), payload(9));
        assert_eq!(store.mem_entries(), 1);
        assert_eq!(store.recency.len(), 1);
        let (p, _) = store.get(digest(1)).unwrap();
        assert_eq!(*p, vec![9; 64]);
    }

    #[test]
    fn disk_tier_survives_a_fresh_store() {
        let dir = std::env::temp_dir().join(format!("gspc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            mem_capacity: 4,
        };
        {
            let mut store = ResultStore::new(cfg.clone()).unwrap();
            store.insert(digest(5), payload(5));
            assert_eq!(store.counters().disk_writes, 1);
        }
        // A brand-new store (cold memory tier) finds it on disk.
        let mut store = ResultStore::new(cfg).unwrap();
        let (p, tier) = store.get(digest(5)).unwrap();
        assert_eq!(tier, StoreTier::Disk);
        assert_eq!(*p, vec![5; 64]);
        // The disk hit was promoted: next lookup is a memory hit.
        let (_, tier) = store.get(digest(5)).unwrap();
        assert_eq!(tier, StoreTier::Memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_are_evicted() {
        let dir = std::env::temp_dir().join(format!("gspc-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            mem_capacity: 4,
        };
        let path = {
            let mut store = ResultStore::new(cfg.clone()).unwrap();
            store.insert(digest(6), payload(6));
            ResultStore::entry_path(&dir, digest(6))
        };

        // Truncated entry.
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let mut store = ResultStore::new(cfg.clone()).unwrap();
        assert!(store.get(digest(6)).is_none());
        assert_eq!(store.counters().corrupt_evictions, 1);
        assert!(!path.exists(), "corrupt entry must be deleted");

        // Flipped payload byte (checksum failure).
        let mut flipped = good.clone();
        let idx = flipped.len() - 20; // inside the payload
        flipped[idx] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let mut store = ResultStore::new(cfg.clone()).unwrap();
        assert!(store.get(digest(6)).is_none());
        assert_eq!(store.counters().corrupt_evictions, 1);
        assert!(!path.exists());

        // Entry bound to a different digest (renamed file).
        std::fs::write(&path, &good).unwrap();
        let other = ResultStore::entry_path(&dir, digest(7));
        std::fs::rename(&path, &other).unwrap();
        let mut store = ResultStore::new(cfg).unwrap();
        assert!(store.get(digest(7)).is_none());
        assert_eq!(store.counters().corrupt_evictions, 1);
        assert!(!other.exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recompute_after_corruption_heals_the_entry() {
        let dir = std::env::temp_dir().join(format!("gspc-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            mem_capacity: 4,
        };
        let mut store = ResultStore::new(cfg.clone()).unwrap();
        store.insert(digest(8), payload(8));
        let path = ResultStore::entry_path(&dir, digest(8));
        std::fs::write(&path, b"garbage").unwrap();

        let mut cold = ResultStore::new(cfg).unwrap();
        assert!(cold.get(digest(8)).is_none()); // detected + evicted
        cold.insert(digest(8), payload(8)); // "recomputed"
        let (p, _) = cold.get(digest(8)).unwrap();
        assert_eq!(*p, vec![8; 64]);
        assert_eq!(cold.counters().corrupt_evictions, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
