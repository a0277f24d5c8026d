//! GDBM-style store: extensible hashing with out-of-line records.
//!
//! Follows the gdbm architecture: a doubling **directory** of bucket
//! pointers, fixed-size **buckets** of entry descriptors, and key/value
//! **records** appended to the data area. Values have no size limit —
//! the property that let the paper store 100 MB metadata values — and
//! superseded/deleted record space is *not* reused until an explicit
//! [`Gdbm::compact`] ("manual garbage collection"), reproducing the space
//! behaviour the paper measured.
//!
//! The freshly created file is preallocated to [`INITIAL_SIZE`] (25 KB),
//! gdbm 1.8's default initial database size quoted in §3.2.1.

use crate::api::{Dbm, StoreMode};
use crate::error::{Error, Result};
use crate::stats::DbmStats;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Default initial database size — the paper's "25 KB".
pub const INITIAL_SIZE: u64 = 25 * 1024;
/// Bucket size on disk.
const BUCKET_SIZE: u64 = 4096;
/// Entries per bucket: (4096 - 16 header) / 24 per entry.
const BUCKET_ELEMS: usize = 128;
/// Header block size.
const HEADER_SIZE: u64 = 64;
const MAGIC: &[u8; 8] = b"PSEGDBM1";

/// The gdbm-flavoured string hash (31-based polynomial with a salt, as in
/// gdbm's `_gdbm_hash`).
pub fn gdbm_hash(bytes: &[u8]) -> u32 {
    let mut value: u32 = 0x238F_13AFu32.wrapping_mul(bytes.len() as u32);
    for (i, &b) in bytes.iter().enumerate() {
        value = value.wrapping_add((b as u32) << ((i * 5) % 24));
    }
    value.wrapping_mul(1_103_515_243).wrapping_add(12_345)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    hash: u32,
    key_len: u32,
    val_len: u32,
    offset: u64,
}

impl Entry {
    /// Bytes the record occupies: the key, then the value.
    fn record_len(&self) -> u64 {
        u64::from(self.key_len) + u64::from(self.val_len)
    }
}

/// Where a live record sits in the file: `[start, end)`, key first.
#[derive(Debug, Clone, Copy)]
struct Extent {
    start: u64,
    end: u64,
    key_len: usize,
}

/// Split extents sorted by `start` into runs that one read covers,
/// returning the number of extents in each run. A run grows while the
/// next record starts less than one bucket past the run's end, so a
/// run reads at most a bucket's worth of dead space per record and a
/// wider gap (superseded large values, split buckets) is skipped.
fn read_runs(sorted: &[Extent]) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut rest = sorted;
    while let Some(first) = rest.first() {
        let mut end = first.end;
        let n = 1 + rest[1..]
            .iter()
            .take_while(|x| {
                let joins = x.start.saturating_sub(end) < BUCKET_SIZE;
                if joins {
                    end = end.max(x.end);
                }
                joins
            })
            .count();
        runs.push(n);
        rest = &rest[n..];
    }
    runs
}

#[derive(Debug, Clone)]
struct Bucket {
    local_depth: u32,
    entries: Vec<Entry>,
}

impl Bucket {
    fn decode(buf: &[u8]) -> Result<Bucket> {
        let local_depth = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let count = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        if count > BUCKET_ELEMS {
            return Err(Error::Corrupt(format!("bucket count {count} too large")));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let b = &buf[16 + i * 24..16 + i * 24 + 24];
            entries.push(Entry {
                hash: u32::from_le_bytes(b[0..4].try_into().unwrap()),
                key_len: u32::from_le_bytes(b[4..8].try_into().unwrap()),
                val_len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
                offset: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            });
        }
        Ok(Bucket {
            local_depth,
            entries,
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BUCKET_SIZE as usize];
        buf[0..4].copy_from_slice(&self.local_depth.to_le_bytes());
        buf[4..8].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (i, e) in self.entries.iter().enumerate() {
            let b = &mut buf[16 + i * 24..16 + i * 24 + 24];
            b[0..4].copy_from_slice(&e.hash.to_le_bytes());
            b[4..8].copy_from_slice(&e.key_len.to_le_bytes());
            b[8..12].copy_from_slice(&e.val_len.to_le_bytes());
            b[16..24].copy_from_slice(&e.offset.to_le_bytes());
        }
        buf
    }
}

/// An open GDBM-style database (`base.db`).
pub struct Gdbm {
    file: File,
    path: PathBuf,
    /// Global directory depth; directory has `1 << depth` slots.
    depth: u32,
    /// Bucket offsets, one per directory slot (buckets may be shared).
    directory: Vec<u64>,
    /// Append cursor for records, buckets, and relocated directories.
    data_end: u64,
    dead_bytes: u64,
    entries: u64,
    /// Where the directory currently lives in the file.
    dir_offset_cache: u64,
}

impl Gdbm {
    /// Open or create the database at path stem `base`.
    pub fn open(base: &Path) -> Result<Self> {
        let path = base.with_extension("db");
        let fresh = !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut db = Gdbm {
            file,
            path,
            depth: 1,
            directory: Vec::new(),
            data_end: 0,
            dead_bytes: 0,
            entries: 0,
            dir_offset_cache: HEADER_SIZE,
        };
        if fresh || db.file.metadata()?.len() < HEADER_SIZE {
            db.init()?;
        } else {
            db.load()?;
        }
        Ok(db)
    }

    fn init(&mut self) -> Result<()> {
        self.depth = 1;
        let b0 = HEADER_SIZE + 16; // dir (2 slots) follows header
        let b1 = b0 + BUCKET_SIZE;
        self.directory = vec![b0, b1];
        self.data_end = b1 + BUCKET_SIZE;
        self.dead_bytes = 0;
        self.entries = 0;
        let empty = Bucket {
            local_depth: 1,
            entries: Vec::new(),
        };
        self.write_bucket(b0, &empty)?;
        self.write_bucket(b1, &empty)?;
        self.write_directory(HEADER_SIZE)?;
        self.write_header(HEADER_SIZE)?;
        // The paper's quoted default initial size.
        if self.file.metadata()?.len() < INITIAL_SIZE {
            self.file.set_len(INITIAL_SIZE)?;
            self.data_end = self.data_end.max(INITIAL_SIZE);
            self.write_header(HEADER_SIZE)?;
        }
        Ok(())
    }

    fn write_header(&mut self, dir_offset: u64) -> Result<()> {
        let mut h = vec![0u8; HEADER_SIZE as usize];
        h[0..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&self.depth.to_le_bytes());
        h[16..24].copy_from_slice(&dir_offset.to_le_bytes());
        h[24..32].copy_from_slice(&self.data_end.to_le_bytes());
        h[32..40].copy_from_slice(&self.dead_bytes.to_le_bytes());
        h[40..48].copy_from_slice(&self.entries.to_le_bytes());
        self.file.write_all_at(&h, 0)?;
        Ok(())
    }

    fn load(&mut self) -> Result<()> {
        let mut h = vec![0u8; HEADER_SIZE as usize];
        self.file.read_exact_at(&mut h, 0)?;
        if &h[0..8] != MAGIC {
            return Err(Error::Corrupt("bad magic".into()));
        }
        self.depth = u32::from_le_bytes(h[8..12].try_into().unwrap());
        let dir_offset = u64::from_le_bytes(h[16..24].try_into().unwrap());
        self.data_end = u64::from_le_bytes(h[24..32].try_into().unwrap());
        self.dead_bytes = u64::from_le_bytes(h[32..40].try_into().unwrap());
        self.entries = u64::from_le_bytes(h[40..48].try_into().unwrap());
        if self.depth > 28 {
            return Err(Error::Corrupt(format!("absurd depth {}", self.depth)));
        }
        let slots = 1usize << self.depth;
        let mut dir = vec![0u8; slots * 8];
        self.file.read_exact_at(&mut dir, dir_offset)?;
        self.directory = dir
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.dir_offset_cache = dir_offset;
        Ok(())
    }

    fn write_directory(&mut self, at: u64) -> Result<()> {
        let mut buf = Vec::with_capacity(self.directory.len() * 8);
        for off in &self.directory {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        self.file.write_all_at(&buf, at)?;
        self.dir_offset_cache = at;
        Ok(())
    }

    fn read_bucket(&self, off: u64) -> Result<Bucket> {
        let mut buf = vec![0u8; BUCKET_SIZE as usize];
        self.file.read_exact_at(&mut buf, off)?;
        crate::obs::record_page_read();
        Bucket::decode(&buf)
    }

    fn write_bucket(&mut self, off: u64, bucket: &Bucket) -> Result<()> {
        self.file.write_all_at(&bucket.encode(), off)?;
        // Occupancy numerator: the 16-byte header plus the live entry
        // table (records live outside the bucket in GDBM's layout).
        crate::obs::record_page_write(16 + bucket.entries.len() as u64 * 24, BUCKET_SIZE);
        Ok(())
    }

    fn slot(&self, hash: u32) -> usize {
        (hash as usize) & ((1usize << self.depth) - 1)
    }

    /// Where `e`'s record lies. A corrupt entry whose record would
    /// wrap or run past the data area is rejected before anything is
    /// allocated for it.
    fn extent(&self, e: &Entry) -> Result<Extent> {
        match e.offset.checked_add(e.record_len()) {
            Some(end) if end <= self.data_end => Ok(Extent {
                start: e.offset,
                end,
                key_len: e.key_len as usize,
            }),
            _ => Err(Error::Corrupt(format!(
                "record of {} bytes at {} runs past the data end {}",
                e.record_len(),
                e.offset,
                self.data_end
            ))),
        }
    }

    fn read_record(&self, e: &Entry) -> Result<(Vec<u8>, Vec<u8>)> {
        let x = self.extent(e)?;
        let mut buf = vec![0u8; (x.end - x.start) as usize];
        self.file.read_exact_at(&mut buf, x.start)?;
        let val = buf.split_off(x.key_len);
        Ok((buf, val))
    }

    /// Read only the key of `e`'s record (key comparisons need no value).
    fn read_key(&self, e: &Entry) -> Result<Vec<u8>> {
        let x = self.extent(e)?;
        let mut key = vec![0u8; x.key_len];
        self.file.read_exact_at(&mut key, x.start)?;
        Ok(key)
    }

    /// Extents of every live record, sorted by file offset, reading
    /// each distinct bucket once.
    fn live_extents(&self) -> Result<Vec<Extent>> {
        let mut live = Vec::new();
        for off in self.bucket_offsets() {
            for e in &self.read_bucket(off)?.entries {
                live.push(self.extent(e)?);
            }
        }
        live.sort_unstable_by_key(|x| x.start);
        Ok(live)
    }

    fn append_record(&mut self, key: &[u8], value: &[u8]) -> Result<u64> {
        let off = self.data_end;
        self.file.write_all_at(key, off)?;
        self.file.write_all_at(value, off + key.len() as u64)?;
        self.data_end = off + key.len() as u64 + value.len() as u64;
        Ok(off)
    }

    /// Allocate space at the end of the file.
    fn alloc(&mut self, size: u64) -> u64 {
        let off = self.data_end;
        self.data_end += size;
        off
    }

    /// Split the bucket at directory `slot`, redistributing entries, and
    /// double the directory first if the bucket is at global depth.
    fn split_bucket(&mut self, slot: usize) -> Result<()> {
        let bucket_off = self.directory[slot];
        let bucket = self.read_bucket(bucket_off)?;
        if bucket.local_depth == self.depth {
            // Double the directory; the new copy is appended at the end
            // and the old copy becomes dead space.
            let old_len = self.directory.len();
            let mut doubled = Vec::with_capacity(old_len * 2);
            doubled.extend_from_slice(&self.directory);
            doubled.extend_from_slice(&self.directory);
            self.directory = doubled;
            self.depth += 1;
            self.dead_bytes += old_len as u64 * 8;
            let at = self.alloc(self.directory.len() as u64 * 8);
            self.write_directory(at)?;
        }
        crate::obs::record_split();
        let new_depth = bucket.local_depth + 1;
        let split_bit = 1u32 << (new_depth - 1);
        let (ones, zeros): (Vec<Entry>, Vec<Entry>) = bucket
            .entries
            .into_iter()
            .partition(|e| e.hash & split_bit != 0);
        let new_off = self.alloc(BUCKET_SIZE);
        self.write_bucket(
            bucket_off,
            &Bucket {
                local_depth: new_depth,
                entries: zeros,
            },
        )?;
        self.write_bucket(
            new_off,
            &Bucket {
                local_depth: new_depth,
                entries: ones,
            },
        )?;
        // Re-point directory slots: every slot that referenced the old
        // bucket and has the split bit set now points at the new bucket.
        for (i, off) in self.directory.iter_mut().enumerate() {
            if *off == bucket_off && (i as u32) & split_bit != 0 {
                *off = new_off;
            }
        }
        let at = self.dir_offset_cache;
        self.write_directory(at)?;
        Ok(())
    }

    /// Distinct bucket offsets currently referenced by the directory.
    fn bucket_offsets(&self) -> BTreeSet<u64> {
        self.directory.iter().copied().collect()
    }
}

impl Dbm for Gdbm {
    fn store(&mut self, key: &[u8], value: &[u8], mode: StoreMode) -> Result<()> {
        // Entries record both lengths as u32.
        let (Ok(key_len), Ok(val_len)) = (u32::try_from(key.len()), u32::try_from(value.len()))
        else {
            return Err(Error::PairTooLarge {
                size: key.len().saturating_add(value.len()),
                limit: u32::MAX as usize,
            });
        };
        let hash = gdbm_hash(key);
        loop {
            let slot = self.slot(hash);
            let bucket_off = self.directory[slot];
            let mut bucket = self.read_bucket(bucket_off)?;
            // Existing key?
            let mut found = None;
            for (i, e) in bucket.entries.iter().enumerate() {
                if e.hash == hash && e.key_len == key_len && self.read_key(e)? == key {
                    found = Some(i);
                    break;
                }
            }
            if let Some(i) = found {
                if mode == StoreMode::Insert {
                    return Err(Error::AlreadyExists);
                }
                self.dead_bytes += bucket.entries[i].record_len();
                let off = self.append_record(key, value)?;
                bucket.entries[i] = Entry {
                    hash,
                    key_len,
                    val_len,
                    offset: off,
                };
                self.write_bucket(bucket_off, &bucket)?;
                self.write_header(self.dir_offset_cache)?;
                return Ok(());
            }
            if bucket.entries.len() >= BUCKET_ELEMS {
                self.split_bucket(slot)?;
                continue; // retry with the refreshed directory
            }
            let off = self.append_record(key, value)?;
            bucket.entries.push(Entry {
                hash,
                key_len,
                val_len,
                offset: off,
            });
            self.entries += 1;
            self.write_bucket(bucket_off, &bucket)?;
            self.write_header(self.dir_offset_cache)?;
            return Ok(());
        }
    }

    fn fetch(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let hash = gdbm_hash(key);
        let bucket_off = self.directory[self.slot(hash)];
        let bucket = self.read_bucket(bucket_off)?;
        for e in &bucket.entries {
            if e.hash == hash && e.key_len as usize == key.len() {
                let (k, v) = self.read_record(e)?;
                if k == key {
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let hash = gdbm_hash(key);
        let bucket_off = self.directory[self.slot(hash)];
        let mut bucket = self.read_bucket(bucket_off)?;
        for i in 0..bucket.entries.len() {
            let e = bucket.entries[i];
            if e.hash == hash && e.key_len as usize == key.len() && self.read_key(&e)? == key {
                bucket.entries.swap_remove(i);
                self.dead_bytes += e.record_len();
                self.entries -= 1;
                self.write_bucket(bucket_off, &bucket)?;
                self.write_header(self.dir_offset_cache)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn keys(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for off in self.bucket_offsets() {
            for e in &self.read_bucket(off)?.entries {
                out.push(self.read_key(e)?);
            }
        }
        Ok(out)
    }

    /// Every pair in as few reads as the layout allows: each distinct
    /// bucket once, then one positioned read per run of nearby records
    /// (see [`read_runs`]), so dead space wider than a bucket is never
    /// read.
    fn scan(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let live = self.live_extents()?;
        let mut out = Vec::with_capacity(live.len());
        let mut rest = &live[..];
        for n in read_runs(&live) {
            let (run, tail) = rest.split_at(n);
            rest = tail;
            let start = run[0].start;
            let end = run.iter().map(|x| x.end).max().expect("runs are non-empty");
            let mut buf = vec![0u8; (end - start) as usize];
            self.file.read_exact_at(&mut buf, start)?;
            if let [x] = run {
                // A lone record (say one large value) is split, not copied.
                let val = buf.split_off(x.key_len);
                out.push((buf, val));
                continue;
            }
            for x in run {
                let rec = &buf[(x.start - start) as usize..(x.end - start) as usize];
                let (k, v) = rec.split_at(x.key_len);
                out.push((k.to_vec(), v.to_vec()));
            }
        }
        Ok(out)
    }

    fn len(&mut self) -> Result<usize> {
        Ok(self.entries as usize)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn stats(&mut self) -> Result<DbmStats> {
        let mut live = 0u64;
        let offsets = self.bucket_offsets();
        for &off in &offsets {
            for e in &self.read_bucket(off)?.entries {
                live += e.record_len();
            }
        }
        Ok(DbmStats {
            disk_bytes: self.file.metadata()?.len(),
            live_bytes: live,
            dead_bytes: self.dead_bytes,
            entries: self.entries,
            blocks: offsets.len() as u64,
        })
    }

    fn compact(&mut self) -> Result<()> {
        let stem = self.path.file_stem().unwrap().to_string_lossy().into_owned();
        let tmp_base = self.path.with_file_name(format!("{stem}-ctmp"));
        let _ = std::fs::remove_file(tmp_base.with_extension("db"));
        let mut fresh = Gdbm::open(&tmp_base)?;
        for (key, v) in self.scan()? {
            fresh.store(&key, &v, StoreMode::Replace)?;
        }
        fresh.sync()?;
        let fresh_path = fresh.path.clone();
        drop(fresh);
        std::fs::rename(&fresh_path, &self.path)?;
        let reopened = Gdbm::open(&self.path.with_file_name(stem))?;
        *self = reopened;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pse-gdbm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn basic_crud() {
        let d = tmpdir("crud");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        db.store(b"a", b"1", StoreMode::Insert).unwrap();
        assert_eq!(db.fetch(b"a").unwrap().unwrap(), b"1");
        assert!(matches!(
            db.store(b"a", b"2", StoreMode::Insert),
            Err(Error::AlreadyExists)
        ));
        db.store(b"a", b"2", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"a").unwrap().unwrap(), b"2");
        assert!(db.delete(b"a").unwrap());
        assert!(!db.delete(b"a").unwrap());
        assert_eq!(db.len().unwrap(), 0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn no_size_limit_large_values() {
        let d = tmpdir("large");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        // Far beyond SDBM's 1 KB limit — a 5 MB value, stored and reread.
        let big: Vec<u8> = (0..5_000_000u32).map(|i| (i % 251) as u8).collect();
        db.store(b"huge", &big, StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"huge").unwrap().unwrap(), big);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn initial_size_is_25k() {
        let d = tmpdir("init");
        let db = Gdbm::open(&d.join("t")).unwrap();
        drop(db);
        assert_eq!(std::fs::metadata(d.join("t.db")).unwrap().len(), INITIAL_SIZE);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn directory_doubles_under_load() {
        let d = tmpdir("double");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        let mut model = HashMap::new();
        for i in 0..1500 {
            let k = format!("key-{i}");
            let v = format!("value-{i}");
            db.store(k.as_bytes(), v.as_bytes(), StoreMode::Replace)
                .unwrap();
            model.insert(k, v);
        }
        assert!(db.depth > 1, "directory should have doubled");
        for (k, v) in &model {
            assert_eq!(db.fetch(k.as_bytes()).unwrap().unwrap(), v.as_bytes());
        }
        assert_eq!(db.len().unwrap(), 1500);
        let mut keys = db.keys().unwrap();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 1500);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let d = tmpdir("persist");
        {
            let mut db = Gdbm::open(&d.join("t")).unwrap();
            for i in 0..800 {
                db.store(
                    format!("k{i}").as_bytes(),
                    format!("v{i}").as_bytes(),
                    StoreMode::Replace,
                )
                .unwrap();
            }
            db.sync().unwrap();
        }
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        assert_eq!(db.len().unwrap(), 800);
        assert_eq!(db.fetch(b"k700").unwrap().unwrap(), b"v700");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn dead_space_grows_then_compacts() {
        let d = tmpdir("dead");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        let v = vec![b'x'; 10_000];
        for round in 0..20 {
            let _ = round;
            db.store(b"churn", &v, StoreMode::Replace).unwrap();
        }
        let stats = db.stats().unwrap();
        assert!(
            stats.dead_bytes >= 19 * 10_000,
            "19 superseded copies should be dead: {stats:?}"
        );
        let before = stats.disk_bytes;
        db.compact().unwrap();
        let after = db.stats().unwrap();
        assert!(after.disk_bytes < before);
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(db.fetch(b"churn").unwrap().unwrap(), v);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn hash_distributes() {
        // Not a statistical test — just confirm variety across keys.
        let hashes: std::collections::HashSet<u32> = (0..100)
            .map(|i| gdbm_hash(format!("key{i}").as_bytes()))
            .collect();
        assert!(hashes.len() > 95);
    }

    #[test]
    fn empty_key_and_value() {
        let d = tmpdir("empty");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        db.store(b"", b"", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"").unwrap().unwrap(), b"");
        assert_eq!(db.len().unwrap(), 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Store eight pairs, then overwrite fields of the first entry of a
    /// non-empty bucket directly in the file with `patch`, which gets
    /// the entry's 24 bytes. Returns the stem and the victim's key.
    fn with_patched_entry(tag: &str, patch: impl Fn(&mut [u8])) -> (PathBuf, Vec<u8>) {
        let d = tmpdir(tag);
        let base = d.join("t");
        let mut db = Gdbm::open(&base).unwrap();
        let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            db.store(k, b"some value", StoreMode::Replace).unwrap();
        }
        let (off, victim) = db
            .bucket_offsets()
            .into_iter()
            .find_map(|o| Some((o, *db.read_bucket(o).unwrap().entries.first()?)))
            .unwrap();
        drop(db);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(base.with_extension("db"))
            .unwrap();
        let mut raw = [0u8; 24];
        file.read_exact_at(&mut raw, off + 16).unwrap();
        patch(&mut raw);
        file.write_all_at(&raw, off + 16).unwrap();
        let key = keys
            .into_iter()
            .find(|k| gdbm_hash(k) == victim.hash)
            .unwrap();
        (d, key)
    }

    #[test]
    fn corrupt_record_extent_is_rejected_not_wrapped() {
        fn check(tag: &str, patch: impl Fn(&mut [u8]), key_len_intact: bool) {
            let (d, key) = with_patched_entry(tag, patch);
            let mut db = Gdbm::open(&d.join("t")).unwrap();
            assert!(matches!(db.scan(), Err(Error::Corrupt(_))), "{tag}: scan");
            assert!(matches!(db.keys(), Err(Error::Corrupt(_))), "{tag}: keys");
            let fetched = db.fetch(&key);
            if key_len_intact {
                assert!(matches!(fetched, Err(Error::Corrupt(_))), "{tag}: fetch");
                assert!(
                    matches!(db.delete(&key), Err(Error::Corrupt(_))),
                    "{tag}: delete"
                );
            } else {
                // The length check no longer matches; the key reads as absent.
                assert!(matches!(fetched, Ok(None)), "{tag}: fetch");
            }
            std::fs::remove_dir_all(&d).unwrap();
        }
        // val_len far past the data end.
        check(
            "bad-val-len",
            |e| e[8..12].copy_from_slice(&u32::MAX.to_le_bytes()),
            true,
        );
        // key_len + val_len wraps in u32.
        check("bad-lens", |e| e[4..12].fill(0xff), false);
        // offset + length wraps in u64.
        check(
            "bad-offset",
            |e| e[16..24].copy_from_slice(&(u64::MAX - 4).to_le_bytes()),
            true,
        );
    }

    #[test]
    fn corrupt_entry_count_is_not_trusted_for_allocation() {
        let d = tmpdir("bad-count");
        let base = d.join("t");
        let mut db = Gdbm::open(&base).unwrap();
        db.store(b"k", b"v", StoreMode::Replace).unwrap();
        drop(db);
        let file = OpenOptions::new()
            .write(true)
            .open(base.with_extension("db"))
            .unwrap();
        file.write_all_at(&u64::MAX.to_le_bytes(), 40).unwrap();
        let mut db = Gdbm::open(&base).unwrap();
        assert_eq!(db.keys().unwrap(), vec![b"k".to_vec()]);
        assert_eq!(db.scan().unwrap(), vec![(b"k".to_vec(), b"v".to_vec())]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn read_runs_split_at_one_bucket_of_gap() {
        let x = |start: u64, end: u64| Extent {
            start,
            end,
            key_len: 0,
        };
        let extents = [
            x(0, 10),
            x(10, 20),                         // adjacent: joins
            x(20 + BUCKET_SIZE - 1, 5000),     // gap one short of a bucket: joins
            x(5000 + BUCKET_SIZE, 9200),       // gap of exactly a bucket: new run
            x(9100, 9150),                     // overlaps the run (corrupt file): joins
            x(9200 + 3 * BUCKET_SIZE, 30_000), // wide gap: new run
        ];
        assert_eq!(read_runs(&extents), vec![3, 2, 1]);
        assert!(read_runs(&[]).is_empty());
    }

    #[test]
    fn scan_reads_around_wide_dead_space_and_through_narrow() {
        let d = tmpdir("runs");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        let narrow = vec![b'n'; 100];
        let wide = vec![b'w'; 3 * BUCKET_SIZE as usize];
        db.store(b"a", b"live a", StoreMode::Replace).unwrap();
        db.store(b"narrow", &narrow, StoreMode::Replace).unwrap();
        db.store(b"b", b"live b", StoreMode::Replace).unwrap();
        db.store(b"wide", &wide, StoreMode::Replace).unwrap();
        db.store(b"c", b"live c", StoreMode::Replace).unwrap();
        // Superseding both fillers leaves a 106-byte dead gap between a
        // and b and a 12 KiB one between b and c.
        db.store(b"narrow", b"n2", StoreMode::Replace).unwrap();
        db.store(b"wide", b"w2", StoreMode::Replace).unwrap();

        let live = db.live_extents().unwrap();
        let runs = read_runs(&live);
        assert_eq!(runs, vec![2, 3], "{live:?}");
        let (first, second) = live.split_at(2);
        assert_eq!(first[1].start - first[0].end, 6 + narrow.len() as u64);
        assert_eq!(second[0].start - first[1].end, 4 + wide.len() as u64);
        let read: u64 = [first, second]
            .iter()
            .map(|r| r[r.len() - 1].end - r[0].start)
            .sum();
        assert!(
            read < 200,
            "the wide dead record must not be read: {read} bytes"
        );

        let mut got = db.scan().unwrap();
        got.sort();
        let want: Vec<(Vec<u8>, Vec<u8>)> = [
            ("a", "live a"),
            ("b", "live b"),
            ("c", "live c"),
            ("narrow", "n2"),
            ("wide", "w2"),
        ]
        .iter()
        .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
        .collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn corrupt_magic_detected() {
        let d = tmpdir("magic");
        std::fs::write(d.join("t.db"), vec![0u8; 2000]).unwrap();
        assert!(matches!(
            Gdbm::open(&d.join("t")),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_dir_all(&d).unwrap();
    }
}
