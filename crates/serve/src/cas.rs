//! Content-addressed store for completed sweep cells.
//!
//! Every finished cell's report is filed under
//! `sha256(config_key_material(config, CODE_REV))` — a digest of the
//! *canonical* config encoding ([`bc_experiments::schema`]) with the
//! simulator revision folded in. Because report bytes are a pure function
//! of that key material (the determinism and shard-identity suites prove
//! `--jobs`/`--shards` never change a byte, and `shards` is normalized out
//! of the key), a key hit can serve the stored bytes as if the simulation
//! had run.
//!
//! Objects are one file per key:
//!
//! ```text
//! bc-cas 1 <sha256 hex of payload>
//! <payload bytes>
//! ```
//!
//! The header digest is recomputed on every load; a mismatch (bit rot,
//! truncation, a partial write that survived a crash) is treated as a
//! **miss** — counted separately, never served, and overwritten by the
//! re-run's `put`. Writes go through [`bc_sim::store::publish`] (a temp
//! file unique to the call, synced, then renamed), so a concurrent reader
//! sees either the old object or the new one, never a torn write, and
//! concurrent writers of one key never collide.
//!
//! A store opened with [`Cas::open_bounded`] enforces a byte budget:
//! after every `put` the oldest objects — ordered by (modification time,
//! object name), the name tiebreak making eviction deterministic when a
//! burst of puts lands inside the filesystem's timestamp granularity —
//! are deleted until the store fits, never touching the object just
//! written (so a single oversize object is stored, not thrashed).
//! Eviction only ever costs a future *miss*: every object is a pure
//! function of its key, so the next client that wants an evicted result
//! re-simulates and re-files it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bc_experiments::schema;
use bc_system::SystemConfig;

use crate::sha256;

/// Magic + format version on every object's header line.
const HEADER_TAG: &str = "bc-cas 1";

/// Hit/miss/corruption counters, as told by [`Cas::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasStats {
    /// Loads that served stored bytes.
    pub hits: u64,
    /// Loads that found no object.
    pub misses: u64,
    /// Loads that found an object whose payload failed its digest
    /// re-check (served as misses).
    pub corrupt: u64,
    /// Objects written.
    pub puts: u64,
    /// Objects deleted to keep the store under its byte budget.
    pub evictions: u64,
    /// Total payload-file bytes those evictions reclaimed.
    pub evicted_bytes: u64,
}

/// A directory of content-addressed result objects.
pub struct Cas {
    dir: PathBuf,
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    puts: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl Cas {
    /// Opens (creating if needed) the store rooted at `dir`, unbounded.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Cas> {
        Cas::open_bounded(dir, None)
    }

    /// Opens the store with an optional byte budget: `Some(n)` caps the
    /// sum of object file sizes at `n`, evicting oldest-first after each
    /// `put` (see the module docs for the exact order). `None` is
    /// [`Cas::open`].
    pub fn open_bounded(dir: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<Cas> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Cas {
            dir,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        })
    }

    /// The byte budget, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key of `config` under the current [`schema::CODE_REV`]:
    /// lowercase-hex SHA-256 of the canonical key material.
    #[must_use]
    pub fn key_for(config: &SystemConfig) -> String {
        Self::key_for_rev(config, schema::CODE_REV)
    }

    /// [`Cas::key_for`] under an explicit code revision (tests pin that a
    /// revision bump re-keys every object).
    #[must_use]
    pub fn key_for_rev(config: &SystemConfig, code_rev: &str) -> String {
        sha256::hex_digest(schema::config_key_material(config, code_rev).as_bytes())
    }

    fn object_path(&self, key: &str) -> PathBuf {
        self.dir.join(key)
    }

    /// Loads the payload stored under `key`, re-checking its digest.
    /// Absent objects and digest mismatches both return `None`; only the
    /// counters tell them apart.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        let text = match fs::read_to_string(self.object_path(key)) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let Some((header, payload)) = text.split_once('\n') else {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let Some(stored_digest) = header.strip_prefix(HEADER_TAG).map(str::trim) else {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if sha256::hex_digest(payload.as_bytes()) != stored_digest {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(payload.to_string())
    }

    /// Stores `payload` under `key` ([`bc_sim::store::publish`]; last
    /// writer wins, which is safe because all writers of one key hold
    /// identical bytes).
    pub fn put(&self, key: &str, payload: &str) -> io::Result<()> {
        let object = format!(
            "{HEADER_TAG} {}\n{payload}",
            sha256::hex_digest(payload.as_bytes())
        );
        bc_sim::store::publish(&self.object_path(key), object.as_bytes())?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.enforce_bound(key);
        Ok(())
    }

    /// Deletes oldest objects (by modification time, then name) until the
    /// store fits its budget, sparing `fresh_key` — the object the caller
    /// just wrote. Enumeration failures degrade to an unenforced bound;
    /// the store keeps serving either way.
    fn enforce_bound(&self, fresh_key: &str) {
        let Some(max) = self.max_bytes else { return };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut objects: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            // Temp files are in-flight writes, not store contents.
            if name.starts_with('.') {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            objects.push((mtime, name, meta.len()));
        }
        let mut total: u64 = objects.iter().map(|(_, _, len)| len).sum();
        objects.sort(); // oldest mtime first, name breaks ties
        for (_, name, len) in objects {
            if total <= max {
                break;
            }
            if name == fresh_key {
                continue;
            }
            if fs::remove_file(self.dir.join(&name)).is_ok() {
                // bc-lint: allow(saturating-counter) — local byte-total
                // accumulator, not simulator state; clamping at zero only
                // ends eviction early, the safe direction.
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(len, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CasStats {
        CasStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }
}
