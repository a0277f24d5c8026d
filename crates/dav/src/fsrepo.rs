//! The mod_dav-style filesystem repository.
//!
//! "The mod_dav implementation uses file system files and directories to
//! provide persistence for data objects and collections, respectively.
//! Metadata is stored in a hash table within a database manager (DBM)
//! formatted file, one file per document or collection" (§3.2.1).
//!
//! This repository reproduces that layout exactly:
//!
//! * a document at `/a/b` is the file `<root>/a/b`;
//! * a collection at `/a` is the directory `<root>/a`;
//! * the dead properties of `/a/b` live in a DBM database at
//!   `<root>/a/.DAV/b.{pag,dir}` (SDBM) or `.db` (GDBM) — created lazily,
//!   so only resources *with* metadata pay the initial allocation (the
//!   8 KB / 25 KB floors that drive the §3.2.4 disk-usage deltas);
//! * the properties of collection `/a` live in `<root>/a/.DAV/__dir__`.
//!
//! Property databases are opened, queried, and closed per request — the
//! behaviour whose cost the paper observed ("50 separate database files
//! were opened, queried, and closed") and which alternative server-side
//! implementations were expected to improve. This implementation *is*
//! one of those improvements: a sharded in-memory property cache
//! ([`pse_cache::ShardedCache`]) holds each resource's full property
//! snapshot, so a warm depth=1 PROPFIND touches zero DBM files. Every
//! mutating operation (PUT/DELETE/MKCOL/COPY/MOVE/PROPPATCH) drops the
//! affected paths, so readers never observe stale metadata.
//!
//! Concurrency: operations synchronise through the sharded
//! hierarchy-aware path locks of [`crate::pathlock`] — reads take
//! shared locks on the touched path, point writes take exclusive locks
//! on the touched path (plus a shared parent hold), and collection
//! COPY/MOVE/DELETE take a subtree write intent. See DESIGN.md
//! §Concurrency for the lock-ordering and cache-coherence argument.

use crate::error::{DavError, Result};
use crate::pathlock::{PathLockStats, PathLocks};
use crate::property::{Property, PropertyName};
use crate::propindex::{IndexStats, Probe, PropIndex};
use crate::repo::{
    check_copy_overlap, live_props_from_meta, PropPatchOp, Repository, ResourceMeta, StageStatus,
};
use pse_cache::{CacheConfig, CacheStats, ShardedCache};
use pse_dbm::{dbm_exists, open_dbm, remove_dbm, Dbm, DbmKind, StoreMode};
use pse_http::uri::{normalize_path, parent_path};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

/// Bytes a file actually occupies on disk (allocated blocks, as `du`
/// reports) — preallocated DBM and segment files are sparse, so the
/// apparent length would overstate the migration-study numbers.
fn allocated_size(meta: &fs::Metadata) -> u64 {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        return meta.blocks() * 512;
    }
    #[allow(unreachable_code)]
    meta.len()
}

/// Name of the per-directory metadata directory.
const DAV_DIR: &str = ".DAV";
/// Property-database stem for the directory itself.
const DIR_SELF: &str = "__dir__";
/// Subdirectory of the root `.DAV` dir holding staged (resumable)
/// uploads — invisible to listings like everything under `.DAV`.
const STAGE_DIR: &str = "stage";
/// Subdirectory of the root `.DAV` dir holding the persistent property
/// index (snapshot + journal; see [`crate::propindex`]).
const INDEX_DIR: &str = "index";
/// Reserved DBM key holding the stored content type.
const KEY_CONTENT_TYPE: &[u8] = b"\x01content-type";

/// Repository configuration.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Which DBM engine backs property databases.
    pub dbm_kind: DbmKind,
    /// Maximum size of one property value — the paper's post-testing
    /// initial limit was 10 MB.
    pub max_property_size: usize,
    /// Byte budget for the in-memory property cache; 0 disables it and
    /// restores the paper's open-query-close DBM access per request.
    pub property_cache_bytes: usize,
    /// Number of path-lock shards (see [`crate::pathlock`]). More
    /// shards mean fewer false conflicts between unrelated paths.
    pub lock_shards: usize,
    /// Ablation switch: route every path-lock acquisition through one
    /// exclusive shard, restoring whole-repository serialisation.
    pub global_lock: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            dbm_kind: DbmKind::Gdbm,
            max_property_size: 10 * 1024 * 1024,
            property_cache_bytes: 4 * 1024 * 1024,
            lock_shards: crate::pathlock::DEFAULT_SHARDS,
            global_lock: false,
        }
    }
}

/// Everything the repository knows about one resource's metadata,
/// loaded from its property database in a single open.
struct PropSnapshot {
    /// Stored content type (documents only).
    content_type: Option<String>,
    /// Dead properties as (name, storage bytes), sorted by name.
    props: Vec<(PropertyName, Vec<u8>)>,
    /// Modification time of the property database files, if any; folded
    /// into `ResourceMeta::modified` so ETags change on PROPPATCH.
    props_mtime: Option<SystemTime>,
}

impl PropSnapshot {
    /// Approximate bytes this snapshot pins in the cache.
    fn cost(&self) -> usize {
        let mut total = 64 + self.content_type.as_ref().map_or(0, |s| s.len());
        for (name, data) in &self.props {
            total += name.namespace.len() + name.local.len() + data.len() + 48;
        }
        total
    }
}

/// A filesystem-backed DAV repository.
pub struct FsRepository {
    root: PathBuf,
    config: FsConfig,
    /// Sharded hierarchy-aware path locks: readers of distinct paths
    /// run in parallel, writers exclude only the paths they touch,
    /// subtree operations take a whole-table write intent. mod_dav
    /// relied on per-file flock; this gives the same observable
    /// semantics without serialising the repository.
    locks: Arc<PathLocks>,
    /// Property snapshots keyed by normalized DAV path. `Arc` so the
    /// cache can contribute its stats to a metric registry via a weak
    /// reference without tying the registry's lifetime to the repo's.
    /// Coherence: snapshots are loaded and inserted under the path's
    /// shard read lock, and every mutation invalidates under the same
    /// shard's write lock, so a stale snapshot can never be re-inserted
    /// over a newer state.
    prop_cache: Arc<ShardedCache<String, Arc<PropSnapshot>>>,
    /// Secondary property index for SEARCH, updated at every mutation
    /// point under the same lock plans that keep `prop_cache` coherent
    /// and persisted under `<root>/.DAV/index/`. A leaf lock: its
    /// internal mutex is never held while acquiring a path lock.
    index: PropIndex,
}

impl FsRepository {
    /// Open (creating the root directory if needed) a repository.
    pub fn create(root: impl AsRef<Path>, config: FsConfig) -> Result<FsRepository> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let prop_cache = Arc::new(ShardedCache::new(CacheConfig::with_capacity(
            config.property_cache_bytes,
        )));
        let locks = Arc::new(PathLocks::new(config.lock_shards, config.global_lock));
        let (index, rebuild) = PropIndex::open(&root.join(DAV_DIR).join(INDEX_DIR));
        let repo = FsRepository {
            root,
            config,
            locks,
            prop_cache,
            index,
        };
        if rebuild {
            // Missing or corrupt index files: the DBM property databases
            // are the source of truth, so re-derive the whole index.
            repo.rebuild_index()?;
        }
        Ok(repo)
    }

    /// Re-derive the index from the on-disk property databases and
    /// persist a fresh snapshot. Runs at construction (before the
    /// repository is shared); callers invoking it on a live repository
    /// must exclude writers themselves.
    pub fn rebuild_index(&self) -> Result<()> {
        let mut paths = Vec::new();
        self.walk("/", None, &mut |p| paths.push(p.to_owned()))?;
        for path in paths {
            // A resource without a property database costs nothing here.
            let _ = self.reindex_path(&path);
        }
        self.index.compact();
        Ok(())
    }

    /// Replace the index entries for `path` with what its property
    /// database holds right now. The caller holds at least a read lock
    /// on the path (or has exclusive access to the repository).
    fn reindex_path(&self, norm: &str) -> Result<()> {
        let snap = self.snapshot(norm)?;
        let mut entries = Vec::with_capacity(snap.props.len());
        for (name, data) in &snap.props {
            if let Ok(p) = Property::from_storage(name.clone(), data) {
                entries.push((name.clone(), p.text_value()));
            }
        }
        self.index.set_path(norm, &entries);
        Ok(())
    }

    /// Property-index probe counters.
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// The configured DBM engine.
    pub fn dbm_kind(&self) -> DbmKind {
        self.config.dbm_kind
    }

    /// Property-cache counters; the compliance suite asserts coherence
    /// (every mutating method must invalidate) through these.
    pub fn cache_stats(&self) -> CacheStats {
        self.prop_cache.stats()
    }

    /// Path-lock counters (acquisitions, contended plans, wait time).
    pub fn lock_stats(&self) -> PathLockStats {
        self.locks.stats()
    }

    /// The on-disk root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Map a DAV path to its filesystem location.
    fn fs_path(&self, path: &str) -> PathBuf {
        let norm = normalize_path(path);
        let mut p = self.root.clone();
        for seg in norm.split('/').filter(|s| !s.is_empty()) {
            p.push(seg);
        }
        p
    }

    /// Property-database stem for a resource.
    fn props_base(&self, path: &str) -> PathBuf {
        let norm = normalize_path(path);
        let fsp = self.fs_path(&norm);
        if fsp.is_dir() {
            fsp.join(DAV_DIR).join(DIR_SELF)
        } else {
            let name = pse_http::uri::basename(&norm);
            fsp.parent()
                .unwrap_or(&self.root)
                .join(DAV_DIR)
                .join(name)
        }
    }

    /// Open the property DB for `path`, creating it when `create` is set.
    /// Returns `None` when it does not exist and `create` is false.
    fn open_props(&self, path: &str, create: bool) -> Result<Option<Box<dyn Dbm>>> {
        self.open_props_at(&self.props_base(path), create)
    }

    /// [`Self::open_props`] for an already-derived property-database stem.
    fn open_props_at(&self, base: &Path, create: bool) -> Result<Option<Box<dyn Dbm>>> {
        if !dbm_exists(self.config.dbm_kind, base) && !create {
            return Ok(None);
        }
        if create {
            if let Some(parent) = base.parent() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(Some(open_dbm(self.config.dbm_kind, base)?))
    }

    fn check_exists(&self, path: &str) -> Result<PathBuf> {
        let fsp = self.fs_path(path);
        if fsp.exists() {
            Ok(fsp)
        } else {
            Err(DavError::NotFound(normalize_path(path)))
        }
    }

    /// Parent-collection check usable while shard locks are held: the
    /// generic [`crate::repo::require_parent`] re-enters `exists`/`meta`
    /// (which take their own locks — a re-entrancy deadlock against a
    /// queued writer on the same shard), so locked sections use this
    /// direct filesystem probe instead.
    fn require_parent_unlocked(&self, norm: &str) -> Result<()> {
        let parent = parent_path(norm);
        if parent != norm && !self.fs_path(&parent).is_dir() {
            return Err(DavError::Conflict(parent));
        }
        Ok(())
    }

    /// Metadata plus the property snapshot it was derived from, for
    /// callers that need both under one lock hold. Assumes the caller
    /// holds at least a read lock on `norm`'s shard.
    fn meta_and_snapshot(&self, norm: &str) -> Result<(ResourceMeta, Arc<PropSnapshot>)> {
        let fsp = self.check_exists(norm)?;
        let m = fs::metadata(&fsp)?;
        let fs_modified = m.modified().unwrap_or(SystemTime::now());
        let snap = self.snapshot(norm)?;
        // Fold the property database's mtime into the resource's
        // modification time so PROPPATCH moves the ETag, not just PUT.
        let modified = match snap.props_mtime {
            Some(t) => fs_modified.max(t),
            None => fs_modified,
        };
        let meta = ResourceMeta {
            is_collection: m.is_dir(),
            content_length: if m.is_file() { m.len() } else { 0 },
            modified,
            created: self.created_of(norm).unwrap_or(fs_modified),
            content_type: if m.is_file() {
                snap.content_type.clone()
            } else {
                None
            },
        };
        Ok((meta, snap))
    }

    /// Recursive filesystem copy including `.DAV` property databases.
    fn copy_tree(src: &Path, dst: &Path) -> Result<()> {
        if src.is_dir() {
            fs::create_dir_all(dst)?;
            for entry in fs::read_dir(src)? {
                let entry = entry?;
                Self::copy_tree(&entry.path(), &dst.join(entry.file_name()))?;
            }
        } else {
            if let Some(parent) = dst.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::copy(src, dst)?;
        }
        Ok(())
    }

    /// Copy the property database of a *document* between `.DAV` dirs
    /// (collection property DBs travel with their directory).
    fn copy_doc_props(&self, src: &str, dst: &str) -> Result<()> {
        if let Some(mut sdb) = self.open_props(src, false)? {
            let mut ddb = self
                .open_props(dst, true)?
                .expect("create=true always yields a database");
            for (key, v) in sdb.scan()? {
                ddb.store(&key, &v, StoreMode::Replace)?;
            }
            ddb.sync()?;
        }
        Ok(())
    }

    fn delete_doc_props(&self, path: &str) -> Result<()> {
        let base = self.props_base(path);
        remove_dbm(self.config.dbm_kind, &base)?;
        Ok(())
    }

    fn du(path: &Path) -> Result<u64> {
        let meta = fs::symlink_metadata(path)?;
        if meta.is_dir() {
            let mut total = 0;
            for entry in fs::read_dir(path)? {
                total += Self::du(&entry?.path())?;
            }
            Ok(total)
        } else {
            Ok(allocated_size(&meta))
        }
    }

    /// Creation time via the filesystem where available; callers fall
    /// back to mtime. (mod_dav creates a property database only when a
    /// resource first receives real metadata — stamping creation times
    /// into the DBM would give *every* resource the 8 KB / 25 KB floor
    /// and distort the migration study.)
    fn created_of(&self, path: &str) -> Option<SystemTime> {
        std::fs::metadata(self.fs_path(path)).ok()?.created().ok()
    }

    /// Modification time of the property database at stem `base`, if
    /// one exists (the latest over the configured engine's files).
    fn props_file_mtime(&self, base: &Path) -> Option<SystemTime> {
        let mut latest: Option<SystemTime> = None;
        for ext in self.config.dbm_kind.extensions() {
            if let Ok(m) = fs::metadata(base.with_extension(ext)) {
                if let Ok(t) = m.modified() {
                    latest = Some(latest.map_or(t, |l| l.max(t)));
                }
            }
        }
        latest
    }

    /// Load the full property snapshot for `path`, from cache when
    /// possible, otherwise with a single DBM open and one `scan`.
    fn snapshot(&self, path: &str) -> Result<Arc<PropSnapshot>> {
        let key = normalize_path(path);
        if let Some(snap) = self.prop_cache.get(&key) {
            return Ok(snap);
        }
        let base = self.props_base(&key);
        let mut content_type = None;
        let mut props = Vec::new();
        if let Some(mut db) = self.open_props_at(&base, false)? {
            for (dbm_key, data) in db.scan()? {
                if dbm_key == KEY_CONTENT_TYPE {
                    content_type = String::from_utf8(data).ok();
                } else if !dbm_key.starts_with(b"\x01") {
                    if let Some(name) = PropertyName::from_storage_key(&dbm_key) {
                        props.push((name, data));
                    }
                }
            }
        }
        props.sort_by(|a, b| a.0.cmp(&b.0));
        let snap = Arc::new(PropSnapshot {
            content_type,
            props,
            props_mtime: self.props_file_mtime(&base),
        });
        let cost = snap.cost();
        self.prop_cache.insert(key, Arc::clone(&snap), cost);
        Ok(snap)
    }

    /// Drop the cached snapshot for one path.
    fn invalidate_path(&self, path: &str) {
        self.prop_cache.remove(&normalize_path(path));
    }

    /// Drop the cached snapshots for a path and everything under it
    /// (DELETE/COPY/MOVE of collections affect whole subtrees).
    fn invalidate_tree(&self, path: &str) {
        let norm = normalize_path(path);
        let prefix = format!("{}/", norm.trim_end_matches('/'));
        self.prop_cache
            .invalidate_matching(|k| *k == norm || k.starts_with(&prefix));
    }

    /// Where the staged upload for `norm` keeps its bytes and its
    /// declared total. One flat directory, with `/` and `%` in the DAV
    /// path percent-escaped so distinct paths can never collide.
    fn stage_paths(&self, norm: &str) -> (PathBuf, PathBuf) {
        let mut key = String::with_capacity(norm.len());
        for ch in norm.chars() {
            match ch {
                '%' => key.push_str("%25"),
                '/' => key.push_str("%2F"),
                _ => key.push(ch),
            }
        }
        let dir = self.root.join(DAV_DIR).join(STAGE_DIR);
        (dir.join(format!("{key}.data")), dir.join(format!("{key}.total")))
    }

    fn read_stage_total(total_path: &Path, norm: &str) -> Result<u64> {
        fs::read_to_string(total_path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| DavError::BadRequest(format!("corrupt stage record for {norm}")))
    }

    /// Validate the resumable-upload contract (offset == staged length,
    /// total matches the recorded declaration, no write past the total)
    /// and open the stage's data file positioned for appending
    /// `add_len` more bytes. Creates the stage when `offset` is 0 and
    /// none exists. Caller holds the path's exclusive lock.
    fn stage_open_append(
        &self,
        norm: &str,
        offset: u64,
        total: u64,
        add_len: u64,
    ) -> Result<(fs::File, u64)> {
        let (data_path, total_path) = self.stage_paths(norm);
        let staged = match fs::metadata(&data_path) {
            Ok(m) => {
                let recorded = Self::read_stage_total(&total_path, norm)?;
                if recorded != total {
                    return Err(DavError::BadRequest(format!(
                        "staged total is {recorded} bytes, request declared {total}"
                    )));
                }
                m.len()
            }
            Err(_) => {
                if offset != 0 {
                    return Err(DavError::StageMismatch { staged: 0 });
                }
                if let Some(parent) = data_path.parent() {
                    fs::create_dir_all(parent)?;
                }
                fs::write(&total_path, total.to_string())?;
                fs::write(&data_path, b"")?;
                0
            }
        };
        if offset != staged {
            return Err(DavError::StageMismatch { staged });
        }
        if staged.checked_add(add_len).map_or(true, |end| end > total) {
            return Err(DavError::BadRequest(format!(
                "append of {add_len} bytes at {staged} passes the declared total {total}"
            )));
        }
        let f = fs::OpenOptions::new().append(true).open(&data_path)?;
        Ok((f, staged))
    }

    /// Apply one PROPPATCH instruction to the property database,
    /// journalling the prior raw value for rollback. The caller holds
    /// the exclusive path lock.
    fn patch_one(
        &self,
        norm: &str,
        op: &PropPatchOp,
        journal: &mut Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<()> {
        match op {
            PropPatchOp::Set(p) if p.name.is_live() => {
                Err(DavError::BadRequest("cannot set a live property".into()))
            }
            PropPatchOp::Set(p) => {
                let stored = p.to_storage();
                if stored.len() > self.config.max_property_size {
                    return Err(DavError::PropertyTooLarge {
                        size: stored.len(),
                        limit: self.config.max_property_size,
                    });
                }
                let mut db = self
                    .open_props(norm, true)?
                    .expect("create=true always yields a database");
                let key = p.name.storage_key();
                let prior = db.fetch(&key)?;
                db.store(&key, &stored, StoreMode::Replace)?;
                journal.push((key, prior));
                Ok(())
            }
            PropPatchOp::Remove(name) => {
                let Some(mut db) = self.open_props(norm, false)? else {
                    return Ok(());
                };
                let key = name.storage_key();
                let prior = db.fetch(&key)?;
                if db.delete(&key)? {
                    journal.push((key, prior));
                }
                Ok(())
            }
        }
    }
}

impl Repository for FsRepository {
    fn register_obs(&self, registry: &Arc<pse_obs::Registry>) {
        // Property-cache hit/miss/eviction traffic under `dav.prop_cache.*`.
        self.prop_cache.register_obs(registry, "dav.prop_cache");
        // Path-lock acquisition/contention counters and the live
        // lock-wait histogram under `dav.pathlock.*`.
        self.locks.register_obs(registry, "dav.pathlock");
        // The DBM engines keep process-wide statics (handles are opened
        // and closed per operation); map them in as `dbm.*`.
        registry.register_source("dbm", |snap| {
            use std::sync::atomic::Ordering;
            snap.set_counter(
                "dbm.page_reads",
                pse_dbm::obs::PAGE_READS.load(Ordering::Relaxed),
            );
            snap.set_counter(
                "dbm.page_writes",
                pse_dbm::obs::PAGE_WRITES.load(Ordering::Relaxed),
            );
            snap.set_counter("dbm.splits", pse_dbm::obs::SPLITS.load(Ordering::Relaxed));
            // Occupancy as parts-per-thousand (gauges are integers).
            snap.set_gauge(
                "dbm.write_occupancy_permille",
                (pse_dbm::obs::mean_write_occupancy() * 1000.0) as i64,
            );
        });
    }

    fn exists(&self, path: &str) -> bool {
        let _g = self.locks.read(path);
        self.fs_path(path).exists()
    }

    fn meta(&self, path: &str) -> Result<ResourceMeta> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        Ok(self.meta_and_snapshot(&norm)?.0)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        let fsp = self.check_exists(&norm)?;
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{norm} is a collection")));
        }
        Ok(fs::read(fsp)?)
    }

    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool> {
        let norm = normalize_path(path);
        let _g = self.locks.write_with_parent(&norm);
        self.require_parent_unlocked(&norm)?;
        let fsp = self.fs_path(&norm);
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{norm} is a collection")));
        }
        let created = !fsp.exists();
        fs::write(&fsp, data)?;
        if let Some(ct) = content_type {
            let mut db = self
                .open_props(&norm, true)?
                .expect("create=true always yields a database");
            db.store(KEY_CONTENT_TYPE, ct.as_bytes(), StoreMode::Replace)?;
        }
        self.invalidate_path(&norm);
        Ok(created)
    }

    fn mkcol(&self, path: &str) -> Result<()> {
        let norm = normalize_path(path);
        let _g = self.locks.write_with_parent(&norm);
        self.require_parent_unlocked(&norm)?;
        let fsp = self.fs_path(&norm);
        if fsp.exists() {
            return Err(DavError::PreconditionFailed(format!("{norm} exists")));
        }
        fs::create_dir(&fsp)?;
        self.invalidate_path(&norm);
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<()> {
        let norm = normalize_path(path);
        // A document delete needs only its own path (plus a shared hold
        // on the parent); a collection delete touches an unenumerable
        // subtree and takes the whole-table write intent. The
        // classification is rechecked under the chosen locks and the
        // acquisition retried if a concurrent operation changed it.
        loop {
            let was_dir = self.fs_path(&norm).is_dir();
            let _g = if was_dir {
                self.locks.subtree()
            } else {
                self.locks.write_with_parent(&norm)
            };
            if self.fs_path(&norm).is_dir() != was_dir {
                continue;
            }
            let fsp = self.check_exists(&norm)?;
            if was_dir {
                fs::remove_dir_all(&fsp)?;
            } else {
                fs::remove_file(&fsp)?;
                self.delete_doc_props(&norm)?;
            }
            self.invalidate_tree(&norm);
            self.index.remove_tree(&norm);
            return Ok(());
        }
    }

    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (src, dst) = (normalize_path(src), normalize_path(dst));
        check_copy_overlap(&src, &dst)?;
        loop {
            let subtree =
                self.fs_path(&src).is_dir() || self.fs_path(&dst).is_dir();
            let _g = if subtree {
                self.locks.subtree()
            } else {
                self.locks.copy_doc(&src, &dst)
            };
            if (self.fs_path(&src).is_dir() || self.fs_path(&dst).is_dir()) != subtree {
                continue;
            }
            let sfs = self.check_exists(&src)?;
            self.require_parent_unlocked(&dst)?;
            let dfs = self.fs_path(&dst);
            let existed = dfs.exists();
            if existed && !overwrite {
                return Err(DavError::PreconditionFailed(format!("{dst} exists")));
            }
            if existed {
                if dfs.is_dir() {
                    fs::remove_dir_all(&dfs)?;
                } else {
                    fs::remove_file(&dfs)?;
                    self.delete_doc_props(&dst)?;
                }
            }
            Self::copy_tree(&sfs, &dfs)?;
            if sfs.is_file() {
                self.copy_doc_props(&src, &dst)?;
            }
            self.invalidate_tree(&dst);
            self.index.remove_tree(&dst);
            self.index.copy_tree(&src, &dst);
            return Ok(!existed);
        }
    }

    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (srcn, dstn) = (normalize_path(src), normalize_path(dst));
        check_copy_overlap(&srcn, &dstn)?;
        loop {
            let subtree =
                self.fs_path(&srcn).is_dir() || self.fs_path(&dstn).is_dir();
            // A document rename is two directory events (unlink + link);
            // write-locking both parents keeps concurrent listings from
            // observing the halfway state.
            let _g = if subtree {
                self.locks.subtree()
            } else {
                self.locks.rename_pair(&srcn, &dstn)
            };
            if (self.fs_path(&srcn).is_dir() || self.fs_path(&dstn).is_dir()) != subtree {
                continue;
            }
            let sfs = self.check_exists(&srcn)?;
            self.require_parent_unlocked(&dstn)?;
            let dfs = self.fs_path(&dstn);
            let existed = dfs.exists();
            if existed && !overwrite {
                return Err(DavError::PreconditionFailed(format!("{dstn} exists")));
            }
            if existed {
                if dfs.is_dir() {
                    fs::remove_dir_all(&dfs)?;
                } else {
                    fs::remove_file(&dfs)?;
                    self.delete_doc_props(&dstn)?;
                }
            }
            fs::rename(&sfs, &dfs)?;
            if dfs.is_file() {
                // Move the document's property database alongside it.
                self.copy_doc_props(&srcn, &dstn)?;
                self.delete_doc_props(&srcn)?;
            }
            self.invalidate_tree(&srcn);
            self.invalidate_tree(&dstn);
            self.index.remove_tree(&dstn);
            self.index.move_tree(&srcn, &dstn);
            return Ok(!existed);
        }
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        let fsp = self.check_exists(&norm)?;
        if !fsp.is_dir() {
            return Err(DavError::Conflict(format!("{norm} is not a collection")));
        }
        let mut out = Vec::new();
        for entry in fs::read_dir(&fsp)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name != DAV_DIR {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        self.check_exists(&norm)?;
        let snap = self.snapshot(&norm)?;
        match snap.props.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(i) => Ok(Some(Property::from_storage(
                name.clone(),
                &snap.props[i].1,
            )?)),
            Err(_) => Ok(None),
        }
    }

    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>> {
        // One lock hold, one snapshot: a concurrent PROPPATCH can never
        // produce a torn multi-property read.
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        self.check_exists(&norm)?;
        let snap = self.snapshot(&norm)?;
        names
            .iter()
            .map(|name| match snap.props.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => Property::from_storage(name.clone(), &snap.props[i].1).map(Some),
                Err(_) => Ok(None),
            })
            .collect()
    }

    fn list_props(&self, path: &str) -> Result<Vec<PropertyName>> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        self.check_exists(&norm)?;
        let snap = self.snapshot(&norm)?;
        Ok(snap.props.iter().map(|(n, _)| n.clone()).collect())
    }

    fn all_props(&self, path: &str) -> Result<Vec<Property>> {
        // Live + dead properties from a single metadata read and a
        // single snapshot under one lock hold — the view PROPFIND
        // serves can never interleave with a writer on this path.
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        let (meta, snap) = self.meta_and_snapshot(&norm)?;
        let mut props = live_props_from_meta(&norm, &meta);
        for (name, data) in &snap.props {
            props.push(Property::from_storage(name.clone(), data)?);
        }
        Ok(props)
    }

    fn set_prop(&self, path: &str, prop: &Property) -> Result<()> {
        let norm = normalize_path(path);
        let _g = self.locks.write(&norm);
        self.check_exists(&norm)?;
        let stored = prop.to_storage();
        if stored.len() > self.config.max_property_size {
            return Err(DavError::PropertyTooLarge {
                size: stored.len(),
                limit: self.config.max_property_size,
            });
        }
        let mut db = self
            .open_props(&norm, true)?
            .expect("create=true always yields a database");
        db.store(&prop.name.storage_key(), &stored, StoreMode::Replace)?;
        self.invalidate_path(&norm);
        self.index.set(&norm, &prop.name, &prop.text_value());
        Ok(())
    }

    fn remove_prop(&self, path: &str, name: &PropertyName) -> Result<bool> {
        let norm = normalize_path(path);
        let _g = self.locks.write(&norm);
        self.check_exists(&norm)?;
        let Some(mut db) = self.open_props(&norm, false)? else {
            return Ok(false);
        };
        let removed = db.delete(&name.storage_key())?;
        if removed {
            self.invalidate_path(&norm);
            self.index.remove(&norm, name);
        }
        Ok(removed)
    }

    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)> {
        // The whole instruction list applies under one exclusive path
        // lock with an undo journal of raw stored values, so readers
        // (excluded for the duration) observe the property set moving
        // atomically from the old state to the new — or staying put.
        let norm = normalize_path(path);
        let _g = self.locks.write(&norm);
        self.check_exists(&norm).map_err(|e| (0, e))?;
        let mut journal: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        let mut failure: Option<(usize, DavError)> = None;
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = self.patch_one(&norm, op, &mut journal) {
                failure = Some((i, e));
                break;
            }
        }
        let result = match failure {
            None => {
                // The patch landed: mirror each instruction into the
                // index (values are already in hand — no extra DBM open).
                for op in ops {
                    match op {
                        PropPatchOp::Set(p) => {
                            self.index.set(&norm, &p.name, &p.text_value());
                        }
                        PropPatchOp::Remove(name) => self.index.remove(&norm, name),
                    }
                }
                Ok(())
            }
            Some(fail) => {
                // Roll back in reverse order; the database must exist if
                // anything was journalled.
                if !journal.is_empty() {
                    if let Ok(Some(mut db)) = self.open_props(&norm, false) {
                        for (key, prior) in journal.into_iter().rev() {
                            let _ = match prior {
                                Some(v) => db.store(&key, &v, StoreMode::Replace).map(|_| true),
                                None => db.delete(&key),
                            };
                        }
                    }
                }
                Err(fail)
            }
        };
        self.invalidate_path(&norm);
        if result.is_err() {
            // Rollback best-effort may have left the database anywhere
            // between old and new: re-derive this path's entries from
            // what is actually stored (still under the exclusive lock).
            let _ = self.reindex_path(&norm);
        }
        result
    }

    fn disk_usage(&self) -> Result<u64> {
        let _g = self.locks.subtree_read();
        Self::du(&self.root)
    }

    fn stage_status(&self, path: &str) -> Result<Option<StageStatus>> {
        let norm = normalize_path(path);
        let _g = self.locks.read(&norm);
        let (data_path, total_path) = self.stage_paths(&norm);
        match fs::metadata(&data_path) {
            Ok(m) => Ok(Some(StageStatus {
                staged: m.len(),
                total: Self::read_stage_total(&total_path, &norm)?,
            })),
            Err(_) => Ok(None),
        }
    }

    fn stage_append(&self, path: &str, offset: u64, total: u64, data: &[u8]) -> Result<StageStatus> {
        let norm = normalize_path(path);
        let _g = self.locks.write(&norm);
        let (mut f, staged) = self.stage_open_append(&norm, offset, total, data.len() as u64)?;
        f.write_all(data)?;
        Ok(StageStatus {
            staged: staged + data.len() as u64,
            total,
        })
    }

    fn stage_copy_from(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        src: &str,
        src_start: u64,
        src_len: u64,
    ) -> Result<StageStatus> {
        let norm = normalize_path(path);
        let srcn = normalize_path(src);
        // The copy_doc plan (src shared, dst exclusive) also covers
        // src == dst: the plan merger collapses the pair to one
        // exclusive hold, which is exactly what delta-syncing a
        // resource against its own previous version needs.
        let _g = self.locks.copy_doc(&srcn, &norm);
        let sfs = self.check_exists(&srcn)?;
        if sfs.is_dir() {
            return Err(DavError::Conflict(format!("{srcn} is a collection")));
        }
        let mut sf = fs::File::open(&sfs)?;
        let slen = sf.metadata()?.len();
        if src_start.checked_add(src_len).map_or(true, |end| end > slen) {
            return Err(DavError::BadRequest(format!(
                "source range {src_start}+{src_len} exceeds {slen}-byte {srcn}"
            )));
        }
        sf.seek(SeekFrom::Start(src_start))?;
        let (mut f, staged) = self.stage_open_append(&norm, offset, total, src_len)?;
        // Stream rather than buffer: unchanged-chunk runs in a delta
        // sync of a trajectory file can be hundreds of megabytes.
        let copied = std::io::copy(&mut (&mut sf).take(src_len), &mut f)?;
        if copied != src_len {
            return Err(DavError::BadRequest(format!(
                "source {srcn} shrank during copy ({copied} of {src_len} bytes)"
            )));
        }
        Ok(StageStatus {
            staged: staged + src_len,
            total,
        })
    }

    fn stage_commit(&self, path: &str, content_type: Option<&str>) -> Result<bool> {
        let norm = normalize_path(path);
        let _g = self.locks.write_with_parent(&norm);
        self.require_parent_unlocked(&norm)?;
        let (data_path, total_path) = self.stage_paths(&norm);
        let m = fs::metadata(&data_path)
            .map_err(|_| DavError::Conflict(format!("no staged upload for {norm}")))?;
        let total = Self::read_stage_total(&total_path, &norm)?;
        if m.len() != total {
            return Err(DavError::Conflict(format!(
                "staged upload for {norm} incomplete: {} of {total} bytes",
                m.len()
            )));
        }
        let fsp = self.fs_path(&norm);
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{norm} is a collection")));
        }
        let created = !fsp.exists();
        // The stage lives on the same filesystem as the tree, so this
        // rename is the atomic tmp+rename promote: readers see either
        // the old body or the complete new one, never a prefix.
        fs::rename(&data_path, &fsp)?;
        let _ = fs::remove_file(&total_path);
        if let Some(ct) = content_type {
            let mut db = self
                .open_props(&norm, true)?
                .expect("create=true always yields a database");
            db.store(KEY_CONTENT_TYPE, ct.as_bytes(), StoreMode::Replace)?;
        }
        self.invalidate_path(&norm);
        Ok(created)
    }

    fn stage_abort(&self, path: &str) -> Result<()> {
        let norm = normalize_path(path);
        let _g = self.locks.write(&norm);
        let (data_path, total_path) = self.stage_paths(&norm);
        let _ = fs::remove_file(&data_path);
        let _ = fs::remove_file(&total_path);
        Ok(())
    }

    fn index_probe(&self, probe: &Probe) -> Option<Vec<String>> {
        self.index.probe(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn repo(kind: DbmKind) -> (FsRepository, PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "pse-fsrepo-{}-{n}-{}",
            kind.name(),
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                dbm_kind: kind,
                ..FsConfig::default()
            },
        )
        .unwrap();
        (r, d)
    }

    #[test]
    fn document_lifecycle_both_kinds() {
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let (r, d) = repo(kind);
            r.mkcol("/proj").unwrap();
            assert!(r.put("/proj/doc.txt", b"hello", Some("text/plain")).unwrap());
            assert_eq!(r.get("/proj/doc.txt").unwrap(), b"hello");
            let meta = r.meta("/proj/doc.txt").unwrap();
            assert_eq!(meta.content_length, 5);
            assert_eq!(meta.content_type.as_deref(), Some("text/plain"));
            assert!(!meta.is_collection);
            assert!(r.meta("/proj").unwrap().is_collection);
            r.delete("/proj/doc.txt").unwrap();
            assert!(!r.exists("/proj/doc.txt"));
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn properties_persist_on_disk() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/m", b"", None).unwrap();
        let name = PropertyName::new("http://emsl.pnl.gov/ecce", "formula");
        r.set_prop("/m", &Property::text(name.clone(), "UO2(H2O)15"))
            .unwrap();
        // The DBM file exists where mod_dav would put it.
        assert!(d.join(DAV_DIR).join("m.db").exists());
        assert_eq!(
            r.get_prop("/m", &name).unwrap().unwrap().text_value(),
            "UO2(H2O)15"
        );
        assert_eq!(r.list_props("/m").unwrap(), vec![name.clone()]);
        assert!(r.remove_prop("/m", &name).unwrap());
        assert!(r.get_prop("/m", &name).unwrap().is_none());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn collection_properties_live_inside_dir() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/proj").unwrap();
        let name = PropertyName::new("urn:ecce", "project-title");
        r.set_prop("/proj", &Property::text(name.clone(), "Aqueous Uranium"))
            .unwrap();
        assert!(d.join("proj").join(DAV_DIR).join("__dir__.db").exists());
        assert_eq!(
            r.get_prop("/proj", &name).unwrap().unwrap().text_value(),
            "Aqueous Uranium"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn dav_dir_hidden_from_listing() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/c").unwrap();
        r.put("/c/a", b"", None).unwrap();
        r.set_prop("/c/a", &Property::text(PropertyName::new("u", "p"), "v"))
            .unwrap();
        r.set_prop("/c", &Property::text(PropertyName::new("u", "q"), "w"))
            .unwrap();
        assert_eq!(r.list("/c").unwrap(), vec!["a"]);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn copy_carries_properties() {
        let (r, d) = repo(DbmKind::Sdbm);
        r.mkcol("/src").unwrap();
        r.put("/src/doc", b"data", None).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/src/doc", &Property::text(name.clone(), "v"))
            .unwrap();
        r.set_prop("/src", &Property::text(name.clone(), "cv"))
            .unwrap();
        assert!(r.copy("/src", "/dst", false).unwrap());
        assert_eq!(r.get("/dst/doc").unwrap(), b"data");
        assert_eq!(
            r.get_prop("/dst/doc", &name).unwrap().unwrap().text_value(),
            "v"
        );
        assert_eq!(
            r.get_prop("/dst", &name).unwrap().unwrap().text_value(),
            "cv"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn move_single_document_with_props() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/a", b"1", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/a", &Property::text(name.clone(), "v")).unwrap();
        r.rename("/a", "/b", false).unwrap();
        assert!(!r.exists("/a"));
        assert_eq!(r.get("/b").unwrap(), b"1");
        assert_eq!(r.get_prop("/b", &name).unwrap().unwrap().text_value(), "v");
        assert_eq!(r.meta("/b").unwrap().content_type.as_deref(), Some("text/plain"));
        // Old property database is gone.
        assert!(!d.join(DAV_DIR).join("a.db").exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn overwrite_semantics() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/a", b"1", None).unwrap();
        r.put("/b", b"2", None).unwrap();
        assert!(matches!(
            r.copy("/a", "/b", false),
            Err(DavError::PreconditionFailed(_))
        ));
        assert!(!r.copy("/a", "/b", true).unwrap()); // overwrote: 204
        assert_eq!(r.get("/b").unwrap(), b"1");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn property_size_cap_enforced() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-cap-{n}-{}", std::process::id()));
        let r = FsRepository::create(
            &d,
            FsConfig {
                dbm_kind: DbmKind::Gdbm,
                max_property_size: 128,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/x", b"", None).unwrap();
        let big = "v".repeat(200);
        assert!(matches!(
            r.set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big)),
            Err(DavError::PropertyTooLarge { .. })
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sdbm_limit_surfaces_as_dbm_error() {
        // With SDBM backing, a property over ~1 KB cannot be stored at
        // all — the limit the paper works around by choosing GDBM.
        let (r, d) = repo(DbmKind::Sdbm);
        r.put("/x", b"", None).unwrap();
        let big = "v".repeat(2000);
        let err = r
            .set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big))
            .unwrap_err();
        assert!(matches!(err, DavError::Dbm(pse_dbm::Error::PairTooLarge { .. })));
        // GDBM accepts the same value.
        let (r2, d2) = repo(DbmKind::Gdbm);
        r2.put("/x", b"", None).unwrap();
        r2.set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big))
            .unwrap();
        fs::remove_dir_all(&d).unwrap();
        fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn path_escape_attempts_stay_inside_root() {
        let (r, d) = repo(DbmKind::Gdbm);
        // `..` segments resolve within the DAV namespace before touching
        // the filesystem, so nothing can land outside the root.
        r.put("/../../../escape.txt", b"safe", None).unwrap();
        assert!(d.join("escape.txt").exists());
        assert!(!d.parent().unwrap().join("escape.txt").exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn disk_usage_grows_with_content() {
        let (r, d) = repo(DbmKind::Gdbm);
        let before = r.disk_usage().unwrap();
        r.put("/big", &vec![0u8; 100_000], None).unwrap();
        let after = r.disk_usage().unwrap();
        assert!(after >= before + 100_000);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_resources_error() {
        let (r, d) = repo(DbmKind::Gdbm);
        assert!(matches!(r.get("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(r.meta("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(r.delete("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(
            r.get_prop("/nope", &PropertyName::dav("x")),
            Err(DavError::NotFound(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn property_cache_hits_and_invalidates() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/c").unwrap();
        r.put("/c/doc", b"x", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/c/doc", &Property::text(name.clone(), "v1")).unwrap();

        // First read populates the cache; repeats hit it.
        let before = r.cache_stats();
        r.get_prop("/c/doc", &name).unwrap().unwrap();
        r.get_prop("/c/doc", &name).unwrap().unwrap();
        r.list_props("/c/doc").unwrap();
        let after = r.cache_stats();
        assert_eq!(after.misses, before.misses + 1, "one cold load");
        assert!(after.hits >= before.hits + 2, "repeats served from cache");

        // PROPPATCH invalidates: the new value is visible immediately.
        r.set_prop("/c/doc", &Property::text(name.clone(), "v2")).unwrap();
        assert_eq!(
            r.get_prop("/c/doc", &name).unwrap().unwrap().text_value(),
            "v2"
        );

        // Deleting the parent collection flushes the whole subtree.
        r.get_prop("/c/doc", &name).unwrap();
        let before = r.cache_stats();
        r.delete("/c").unwrap();
        let after = r.cache_stats();
        assert!(after.invalidations > before.invalidations);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn proppatch_moves_the_modified_time() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"data", None).unwrap();
        let m1 = r.meta("/doc").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.set_prop("/doc", &Property::text(PropertyName::new("u", "p"), "v"))
            .unwrap();
        let m2 = r.meta("/doc").unwrap();
        assert!(
            m2.modified > m1.modified,
            "PROPPATCH must advance modified so the ETag changes"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn disabled_cache_still_correct() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-nocache-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                property_cache_bytes: 0,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/doc", b"x", None).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/doc", &Property::text(name.clone(), "v")).unwrap();
        r.get_prop("/doc", &name).unwrap().unwrap();
        r.get_prop("/doc", &name).unwrap().unwrap();
        let s = r.cache_stats();
        assert_eq!(s.hits, 0, "zero-budget cache stores nothing");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn put_into_missing_parent_conflicts() {
        let (r, d) = repo(DbmKind::Gdbm);
        assert!(matches!(
            r.put("/no/such/dir/doc", b"x", None),
            Err(DavError::Conflict(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn lock_stats_count_acquisitions() {
        let (r, d) = repo(DbmKind::Gdbm);
        let before = r.lock_stats().acquisitions;
        r.put("/doc", b"x", None).unwrap();
        r.get("/doc").unwrap();
        r.delete("/doc").unwrap();
        let after = r.lock_stats().acquisitions;
        assert!(after >= before + 3, "each operation takes one plan");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn global_lock_ablation_stays_correct() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-glob-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                global_lock: true,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.mkcol("/c").unwrap();
        r.put("/c/doc", b"hello", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/c/doc", &Property::text(name.clone(), "v")).unwrap();
        r.rename("/c/doc", "/c/doc2", false).unwrap();
        assert_eq!(r.get("/c/doc2").unwrap(), b"hello");
        assert_eq!(r.get_prop("/c/doc2", &name).unwrap().unwrap().text_value(), "v");
        r.delete("/c").unwrap();
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn staged_upload_lifecycle_and_crash_resume() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/traj").unwrap();
        // Build a 10-byte body in two appends.
        let s = r.stage_append("/traj/run.out", 0, 10, b"01234").unwrap();
        assert_eq!((s.staged, s.total), (5, 10));
        // Wrong offset reports how far the server got.
        assert!(matches!(
            r.stage_append("/traj/run.out", 3, 10, b"x"),
            Err(DavError::StageMismatch { staged: 5 })
        ));
        // Commit of an incomplete stage refuses.
        assert!(matches!(
            r.stage_commit("/traj/run.out", None),
            Err(DavError::Conflict(_))
        ));

        // "Crash": drop the repository and reopen over the same root —
        // the file-backed stage survives and reports its progress.
        drop(r);
        let r = FsRepository::create(&d, FsConfig::default()).unwrap();
        let s = r.stage_status("/traj/run.out").unwrap().unwrap();
        assert_eq!((s.staged, s.total), (5, 10));
        let s = r.stage_append("/traj/run.out", 5, 10, b"56789").unwrap();
        assert_eq!((s.staged, s.total), (10, 10));
        assert!(r.stage_commit("/traj/run.out", Some("text/plain")).unwrap());
        assert_eq!(r.get("/traj/run.out").unwrap(), b"0123456789");
        assert_eq!(
            r.meta("/traj/run.out").unwrap().content_type.as_deref(),
            Some("text/plain")
        );
        // The stage is consumed and the stage dir never shows in listings.
        assert!(r.stage_status("/traj/run.out").unwrap().is_none());
        assert!(r.list("/").unwrap().iter().all(|n| n != DAV_DIR));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stage_copy_from_assembles_delta() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"AAAABBBBCCCC", None).unwrap();
        // New version: keep AAAA, replace BBBB with XYZW, keep CCCC —
        // referencing the old version of the *same* path.
        let s = r.stage_copy_from("/doc", 0, 12, "/doc", 0, 4).unwrap();
        assert_eq!(s.staged, 4);
        let s = r.stage_append("/doc", 4, 12, b"XYZW").unwrap();
        assert_eq!(s.staged, 8);
        let s = r.stage_copy_from("/doc", 8, 12, "/doc", 8, 4).unwrap();
        assert_eq!(s.staged, 12);
        assert!(!r.stage_commit("/doc", None).unwrap(), "replace, not create");
        assert_eq!(r.get("/doc").unwrap(), b"AAAAXYZWCCCC");
        // Out-of-bounds source range refuses.
        assert!(matches!(
            r.stage_copy_from("/other", 0, 4, "/doc", 10, 4),
            Err(DavError::BadRequest(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stage_abort_and_guard_rails() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.stage_append("/up", 0, 8, b"1234").unwrap();
        r.stage_abort("/up").unwrap();
        assert!(r.stage_status("/up").unwrap().is_none());
        r.stage_abort("/up").unwrap(); // absent is fine
        // Appending past the declared total refuses.
        r.stage_append("/up", 0, 4, b"1234").unwrap();
        assert!(matches!(
            r.stage_append("/up", 4, 4, b"overflow"),
            Err(DavError::BadRequest(_))
        ));
        // A different declared total refuses.
        assert!(matches!(
            r.stage_append("/up", 4, 9, b"x"),
            Err(DavError::BadRequest(_))
        ));
        // Committing into a missing parent conflicts; the stage survives.
        r.stage_append("/no/parent", 0, 1, b"z").unwrap();
        assert!(matches!(
            r.stage_commit("/no/parent", None),
            Err(DavError::Conflict(_))
        ));
        assert!(r.stage_status("/no/parent").unwrap().is_some());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn patch_props_is_all_or_nothing() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-patch-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                max_property_size: 128,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/doc", b"x", None).unwrap();
        let a = PropertyName::new("u", "a");
        let b = PropertyName::new("u", "b");
        r.set_prop("/doc", &Property::text(a.clone(), "old")).unwrap();

        // Second instruction fails (over the size cap): the first must
        // roll back to its prior value.
        let ops = vec![
            PropPatchOp::Set(Property::text(a.clone(), "new")),
            PropPatchOp::Set(Property::text(b.clone(), &"v".repeat(200))),
        ];
        let err = r.patch_props("/doc", &ops).unwrap_err();
        assert_eq!(err.0, 1);
        assert!(matches!(err.1, DavError::PropertyTooLarge { .. }));
        assert_eq!(r.get_prop("/doc", &a).unwrap().unwrap().text_value(), "old");
        assert!(r.get_prop("/doc", &b).unwrap().is_none());

        // A clean batch applies everything.
        let ops = vec![
            PropPatchOp::Set(Property::text(a.clone(), "new")),
            PropPatchOp::Remove(PropertyName::new("u", "absent")),
            PropPatchOp::Set(Property::text(b.clone(), "bv")),
        ];
        r.patch_props("/doc", &ops).unwrap();
        assert_eq!(r.get_prop("/doc", &a).unwrap().unwrap().text_value(), "new");
        assert_eq!(r.get_prop("/doc", &b).unwrap().unwrap().text_value(), "bv");
        fs::remove_dir_all(&d).unwrap();
    }
}
