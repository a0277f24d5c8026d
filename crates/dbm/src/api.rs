//! The common DBM interface and the kind-selecting factory.

use crate::error::Result;
use crate::stats::DbmStats;
use std::path::Path;

/// How `store` treats an existing key — mirrors the classic
/// `DBM_INSERT` / `DBM_REPLACE` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Fail with [`crate::Error::AlreadyExists`] if the key is present.
    Insert,
    /// Overwrite any existing value.
    Replace,
}

/// Which backing implementation to use for a property database.
///
/// The DAV filesystem repository threads this choice through to every
/// per-resource metadata file, exactly as mod_dav's compile-time
/// SDBM/GDBM choice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DbmKind {
    /// Paged hash file with a 1 KB item limit and an 8 KB initial size.
    Sdbm,
    /// Extensible hashing with no item limit and a 25 KB initial size.
    #[default]
    Gdbm,
}

impl DbmKind {
    /// Short lowercase name, used in reports and file naming.
    pub fn name(self) -> &'static str {
        match self {
            DbmKind::Sdbm => "sdbm",
            DbmKind::Gdbm => "gdbm",
        }
    }

    /// Extensions of the files a database of this kind keeps at its
    /// stem, the one that always exists first.
    pub fn extensions(self) -> &'static [&'static str] {
        match self {
            DbmKind::Sdbm => &["pag", "dir"],
            DbmKind::Gdbm => &["db"],
        }
    }
}

/// A single-writer key/value database backed by one (or two, for SDBM)
/// files on disk.
///
/// Methods take `&mut self` even for reads because both implementations
/// keep a small page/bucket cache.
pub trait Dbm: Send {
    /// Store `value` under `key`.
    fn store(&mut self, key: &[u8], value: &[u8], mode: StoreMode) -> Result<()>;

    /// Fetch the value for `key`, or `None` when absent.
    fn fetch(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Remove `key`. Returns whether it was present.
    fn delete(&mut self, key: &[u8]) -> Result<bool>;

    /// All keys, in unspecified order.
    fn keys(&mut self) -> Result<Vec<Vec<u8>>>;

    /// All key/value pairs, in unspecified order.
    ///
    /// Loading a whole database (a property snapshot, a copy, a
    /// compaction) should use this rather than `keys` plus one `fetch`
    /// per key: both engines override it to read each page or record
    /// run once.
    fn scan(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        for key in self.keys()? {
            if let Some(v) = self.fetch(&key)? {
                out.push((key, v));
            }
        }
        Ok(out)
    }

    /// Number of stored pairs.
    fn len(&mut self) -> Result<usize>;

    /// True when the database holds no pairs.
    fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Is `key` present?
    fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.fetch(key)?.is_some())
    }

    /// Flush buffered state to the operating system.
    fn sync(&mut self) -> Result<()>;

    /// Occupancy statistics, including dead (unreclaimed) space.
    fn stats(&mut self) -> Result<DbmStats>;

    /// Bytes the database currently occupies on disk.
    fn disk_usage(&mut self) -> Result<u64> {
        Ok(self.stats()?.disk_bytes)
    }

    /// Reclaim dead space by rewriting the database in place.
    ///
    /// This is the "manual garbage collection utility" the paper notes
    /// both SDBM and GDBM require; neither store reclaims the space of
    /// changed or deleted items automatically.
    fn compact(&mut self) -> Result<()>;
}

/// Open (creating if absent) a database of the given kind at `base`.
///
/// `base` is a path *stem*: SDBM appends `.pag`/`.dir`, GDBM appends
/// `.db`, matching the historical file layouts.
pub fn open_dbm(kind: DbmKind, base: &Path) -> Result<Box<dyn Dbm>> {
    Ok(match kind {
        DbmKind::Sdbm => Box::new(crate::sdbm::Sdbm::open(base)?),
        DbmKind::Gdbm => Box::new(crate::gdbm::Gdbm::open(base)?),
    })
}

/// Remove the on-disk files of a database of `kind` at `base`, if present.
pub fn remove_dbm(kind: DbmKind, base: &Path) -> std::io::Result<()> {
    for ext in kind.extensions() {
        let p = base.with_extension(ext);
        if p.exists() {
            std::fs::remove_file(p)?;
        }
    }
    Ok(())
}

/// Do database files of `kind` exist at `base`?
pub fn dbm_exists(kind: DbmKind, base: &Path) -> bool {
    base.with_extension(kind.extensions()[0]).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(DbmKind::Sdbm.name(), "sdbm");
        assert_eq!(DbmKind::Gdbm.name(), "gdbm");
        assert_eq!(DbmKind::default(), DbmKind::Gdbm);
    }

    #[test]
    fn factory_roundtrip_both_kinds() {
        let dir = std::env::temp_dir().join(format!("pse-dbm-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let base = dir.join(kind.name());
            let mut db = open_dbm(kind, &base).unwrap();
            db.store(b"k", b"v", StoreMode::Insert).unwrap();
            assert!(db.contains(b"k").unwrap());
            assert!(!db.is_empty().unwrap());
            drop(db);
            assert!(dbm_exists(kind, &base));
            remove_dbm(kind, &base).unwrap();
            assert!(!dbm_exists(kind, &base));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
