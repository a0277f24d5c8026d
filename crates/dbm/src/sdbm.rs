//! SDBM: the classic paged hash file.
//!
//! A reimplementation of Ozan Yigit's public-domain sdbm design:
//!
//! * data lives in the `.pag` file as fixed **1 KiB pages**;
//! * the `.dir` file is a bitmap of *split bits*: walking it from the root
//!   with successive hash bits finds the page a key lives on;
//! * a page that overflows is **split**, distributing its pairs between
//!   itself and a buddy page selected by the next hash bit;
//! * a pair must fit on a single page, giving the hard
//!   [`PAIR_MAX`]-byte item limit the paper cites as SDBM's "1-kilobyte
//!   size limit on individual metadata values".
//!
//! On creation the `.pag` file is preallocated to [`INITIAL_SIZE`]
//! (8 KiB), reproducing mod_dav+SDBM's per-resource disk floor.

use crate::api::{Dbm, StoreMode};
use crate::error::{Error, Result};
use crate::stats::DbmStats;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Page size in bytes.
pub const PBLKSIZ: usize = 1024;
/// Directory file growth granularity in bytes.
pub const DBLKSIZ: usize = 4096;
/// Largest key+value size storable (the classic `PAIRMAX`).
pub const PAIR_MAX: usize = 1008;
/// Maximum consecutive page splits before giving up (classic `SPLTMAX`).
const SPLT_MAX: usize = 10;
/// Pages [`Sdbm`]'s `scan` reads at a time: sdbm files can be sparse,
/// so this bounds its buffer rather than reading the whole file.
const SCAN_PAGES: usize = 64;
/// Initial `.pag` preallocation — the "default initial size of 8 KB".
pub const INITIAL_SIZE: u64 = 8 * 1024;

/// The sdbm hash: `h(i+1) = c + h*65599`, expressed with shifts.
pub fn sdbm_hash(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0;
    for &b in bytes {
        h = (b as u32)
            .wrapping_add(h << 6)
            .wrapping_add(h << 16)
            .wrapping_sub(h);
    }
    h
}

/// An open SDBM database (`base.pag` + `base.dir`).
pub struct Sdbm {
    pag: File,
    dir: File,
    pag_path: PathBuf,
    dir_path: PathBuf,
    /// Directory bitmap size in bits (tracks `.dir` length).
    maxbno: u64,
    /// One-page cache, as in the original.
    cur_page: Vec<u8>,
    cur_pagno: Option<u64>,
    cur_dirty: bool,
}

impl Sdbm {
    /// Open or create the database at path stem `base`.
    pub fn open(base: &Path) -> Result<Self> {
        let pag_path = base.with_extension("pag");
        let dir_path = base.with_extension("dir");
        let fresh = !pag_path.exists();
        let mut opts = OpenOptions::new();
        opts.read(true).write(true).create(true);
        let pag = opts.open(&pag_path)?;
        let dir = opts.open(&dir_path)?;
        if fresh {
            pag.set_len(INITIAL_SIZE)?;
        }
        let maxbno = dir.metadata()?.len() * 8;
        Ok(Sdbm {
            pag,
            dir,
            pag_path,
            dir_path,
            maxbno,
            cur_page: vec![0; PBLKSIZ],
            cur_pagno: None,
            cur_dirty: false,
        })
    }

    // ---- directory bitmap ----

    fn getdbit(&mut self, bit: u64) -> Result<bool> {
        if bit >= self.maxbno {
            return Ok(false);
        }
        let mut byte = [0u8];
        self.dir.seek(SeekFrom::Start(bit / 8))?;
        self.dir.read_exact(&mut byte)?;
        Ok(byte[0] & (1 << (bit % 8)) != 0)
    }

    fn setdbit(&mut self, bit: u64) -> Result<()> {
        while bit >= self.maxbno {
            // Grow the directory by one zeroed block.
            let new_len = self.maxbno / 8 + DBLKSIZ as u64;
            self.dir.set_len(new_len)?;
            self.maxbno = new_len * 8;
        }
        let mut byte = [0u8];
        self.dir.seek(SeekFrom::Start(bit / 8))?;
        self.dir.read_exact(&mut byte)?;
        byte[0] |= 1 << (bit % 8);
        self.dir.seek(SeekFrom::Start(bit / 8))?;
        self.dir.write_all(&byte)?;
        Ok(())
    }

    /// Walk the split-bit trie for `hash`. Returns
    /// `(page number, current trie bit, number of hash bits consumed)`.
    fn walk(&mut self, hash: u32) -> Result<(u64, u64, u32)> {
        let mut hbit = 0u32;
        let mut dbit = 0u64;
        while dbit < self.maxbno && self.getdbit(dbit)? {
            dbit = 2 * dbit + if (hash >> hbit) & 1 == 1 { 2 } else { 1 };
            hbit += 1;
        }
        let mask = if hbit == 0 { 0 } else { (1u64 << hbit) - 1 };
        Ok(((hash as u64) & mask, dbit, hbit))
    }

    // ---- page I/O with one-page cache ----

    fn load_page(&mut self, pagno: u64) -> Result<()> {
        if self.cur_pagno == Some(pagno) {
            return Ok(());
        }
        self.flush_page()?;
        let off = pagno * PBLKSIZ as u64;
        let len = self.pag.metadata()?.len();
        self.cur_page.iter_mut().for_each(|b| *b = 0);
        if off < len {
            self.pag.seek(SeekFrom::Start(off))?;
            let avail = ((len - off) as usize).min(PBLKSIZ);
            self.pag.read_exact(&mut self.cur_page[..avail])?;
            crate::obs::record_page_read();
        }
        self.cur_pagno = Some(pagno);
        self.cur_dirty = false;
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        if let (Some(pagno), true) = (self.cur_pagno, self.cur_dirty) {
            self.pag.seek(SeekFrom::Start(pagno * PBLKSIZ as u64))?;
            self.pag.write_all(&self.cur_page)?;
            crate::obs::record_page_write(Self::live_bytes(&self.cur_page), PBLKSIZ as u64);
            self.cur_dirty = false;
        }
        Ok(())
    }

    fn write_other_page(&mut self, pagno: u64, content: &[u8]) -> Result<()> {
        self.pag.seek(SeekFrom::Start(pagno * PBLKSIZ as u64))?;
        self.pag.write_all(content)?;
        crate::obs::record_page_write(Self::live_bytes(content), PBLKSIZ as u64);
        Ok(())
    }

    /// Bytes of a page holding the slot index and live pair data (the
    /// occupancy numerator for `dbm.*` metrics).
    fn live_bytes(page: &[u8]) -> u64 {
        let ino = |i: usize| u16::from_le_bytes([page[2 * i], page[2 * i + 1]]) as usize;
        let n = ino(0);
        if n == 0 || 2 * (n + 1) > PBLKSIZ {
            return 2;
        }
        let top = ino(n); // lowest data offset = last pair's value offset
        ((PBLKSIZ - top) + 2 * (n + 1)) as u64
    }

    // ---- pair-level helpers on the cached page ----

    fn decode(page: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let ino = |i: usize| u16::from_le_bytes([page[2 * i], page[2 * i + 1]]) as usize;
        let n = ino(0);
        if n % 2 != 0 || 2 * (n + 1) > PBLKSIZ {
            return Err(Error::Corrupt(format!("bad page slot count {n}")));
        }
        let mut pairs = Vec::with_capacity(n / 2);
        let mut top = PBLKSIZ;
        for p in 0..n / 2 {
            let koff = ino(2 * p + 1);
            let voff = ino(2 * p + 2);
            if !(voff <= koff && koff <= top) {
                return Err(Error::Corrupt("page offsets out of order".into()));
            }
            pairs.push((page[koff..top].to_vec(), page[voff..koff].to_vec()));
            top = voff;
        }
        Ok(pairs)
    }

    fn encode(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        debug_assert!(Self::fits(pairs), "encoding an over-full page");
        let mut page = vec![0u8; PBLKSIZ];
        let n = pairs.len() * 2;
        page[0..2].copy_from_slice(&(n as u16).to_le_bytes());
        let mut top = PBLKSIZ;
        for (p, (k, v)) in pairs.iter().enumerate() {
            let koff = top - k.len();
            page[koff..top].copy_from_slice(k);
            let voff = koff - v.len();
            page[voff..koff].copy_from_slice(v);
            page[2 * (2 * p + 1)..2 * (2 * p + 1) + 2]
                .copy_from_slice(&(koff as u16).to_le_bytes());
            page[2 * (2 * p + 2)..2 * (2 * p + 2) + 2]
                .copy_from_slice(&(voff as u16).to_le_bytes());
            top = voff;
        }
        page
    }

    /// Would `pairs` fit on one page?
    fn fits(pairs: &[(Vec<u8>, Vec<u8>)]) -> bool {
        let data: usize = pairs.iter().map(|(k, v)| k.len() + v.len()).sum();
        2 + 4 * pairs.len() + data <= PBLKSIZ
    }

    /// Split the cached page's pairs by hash bit `sbit`, writing the ones
    /// with the bit set to page `newp` and keeping the rest.
    fn split(&mut self, pairs: Vec<(Vec<u8>, Vec<u8>)>, sbit: u32, newp: u64) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (go, stay): (Vec<_>, Vec<_>) = pairs
            .into_iter()
            .partition(|(k, _)| sdbm_hash(k) & sbit != 0);
        let new_page = Self::encode(&go);
        self.write_other_page(newp, &new_page)?;
        crate::obs::record_split();
        Ok(stay)
    }

    /// Number of pages the `.pag` file spans.
    fn page_count(&self) -> Result<u64> {
        Ok(self.pag.metadata()?.len().div_ceil(PBLKSIZ as u64))
    }
}

impl Dbm for Sdbm {
    fn store(&mut self, key: &[u8], value: &[u8], mode: StoreMode) -> Result<()> {
        let need = key.len() + value.len();
        if need > PAIR_MAX {
            return Err(Error::PairTooLarge {
                size: need,
                limit: PAIR_MAX,
            });
        }
        let hash = sdbm_hash(key);
        let (pagno, mut curbit, mut hbits) = self.walk(hash)?;
        self.load_page(pagno)?;
        let mut cur_pagno = pagno;
        let mut pairs = Self::decode(&self.cur_page)?;
        if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
            if mode == StoreMode::Insert {
                return Err(Error::AlreadyExists);
            }
            pairs.remove(i);
        }

        // makroom: split the page (its existing pairs only — both halves
        // of a valid page always fit) until the new pair fits alongside
        // whatever stayed on our key's page, following the key as it
        // migrates, as in the classic implementation.
        let mut splits = 0;
        let new_pair = (key.to_vec(), value.to_vec());
        while {
            pairs.push(new_pair.clone());
            let fits = Self::fits(&pairs);
            pairs.pop();
            !fits
        } {
            splits += 1;
            if splits > SPLT_MAX {
                return Err(Error::Corrupt(
                    "page split limit exceeded (pathological hash clustering)".into(),
                ));
            }
            let hmask = if hbits == 0 { 0 } else { (1u64 << hbits) - 1 };
            let sbit = 1u32 << hbits;
            let newp = ((hash as u64) & hmask) | u64::from(sbit);
            let stay = self.split(pairs, sbit, newp)?;
            self.setdbit(curbit)?;
            if hash & sbit != 0 {
                // Our key belongs on the new page; persist the stayed-
                // behind half and continue on the buddy page.
                let stay_page = Self::encode(&stay);
                self.write_other_page(cur_pagno, &stay_page)?;
                self.cur_pagno = None; // cache no longer matches disk
                self.load_page(newp)?;
                pairs = Self::decode(&self.cur_page)?;
                cur_pagno = newp;
                curbit = 2 * curbit + 2;
            } else {
                pairs = stay;
                curbit = 2 * curbit + 1;
            }
            hbits += 1;
        }
        pairs.push(new_pair);
        self.cur_page = Self::encode(&pairs);
        self.cur_pagno = Some(cur_pagno);
        self.cur_dirty = true;
        self.flush_page()?;
        Ok(())
    }

    fn fetch(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let hash = sdbm_hash(key);
        let (pagno, _, _) = self.walk(hash)?;
        self.load_page(pagno)?;
        let pairs = Self::decode(&self.cur_page)?;
        Ok(pairs.into_iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let hash = sdbm_hash(key);
        let (pagno, _, _) = self.walk(hash)?;
        self.load_page(pagno)?;
        let mut pairs = Self::decode(&self.cur_page)?;
        let Some(i) = pairs.iter().position(|(k, _)| k == key) else {
            return Ok(false);
        };
        pairs.remove(i);
        self.cur_page = Self::encode(&pairs);
        self.cur_dirty = true;
        self.flush_page()?;
        Ok(true)
    }

    fn keys(&mut self) -> Result<Vec<Vec<u8>>> {
        // Pairs share their page, so keys alone cost the same reads.
        Ok(self.scan()?.into_iter().map(|(k, _)| k).collect())
    }

    /// Every pair, reading the `.pag` file [`SCAN_PAGES`] pages at a
    /// time and decoding each page once.
    fn scan(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.flush_page()?;
        let len = self.pag.metadata()?.len();
        let mut buf = vec![0u8; SCAN_PAGES * PBLKSIZ];
        let mut out = Vec::new();
        let mut off = 0u64;
        while off < len {
            let n = (len - off).min(buf.len() as u64) as usize;
            // A short tail page reads as zero-padded, as in `load_page`.
            buf[n..].fill(0);
            self.pag.read_exact_at(&mut buf[..n], off)?;
            for page in buf[..n.next_multiple_of(PBLKSIZ)].chunks(PBLKSIZ) {
                crate::obs::record_page_read();
                out.extend(Self::decode(page)?);
            }
            off += n as u64;
        }
        Ok(out)
    }

    fn len(&mut self) -> Result<usize> {
        Ok(self.keys()?.len())
    }

    fn sync(&mut self) -> Result<()> {
        self.flush_page()?;
        self.pag.sync_data()?;
        self.dir.sync_data()?;
        Ok(())
    }

    fn stats(&mut self) -> Result<DbmStats> {
        let pairs = self.scan()?;
        let live: u64 = pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        let entries = pairs.len() as u64;
        let disk = self.pag.metadata()?.len() + self.dir.metadata()?.len();
        Ok(DbmStats {
            disk_bytes: disk,
            live_bytes: live,
            // SDBM compacts within a page on delete, but split pages and
            // the preallocated tail are never returned; report that slack
            // as dead space so compaction has a visible effect.
            dead_bytes: disk.saturating_sub(live + entries * 4 + 2 * self.page_count()?),
            entries,
            blocks: self.page_count()?,
        })
    }

    fn compact(&mut self) -> Result<()> {
        // Rebuild into fresh files, then swap them in. The temp stem must
        // not share the live stem or `with_extension` would collide.
        let stem = self.pag_path.file_stem().unwrap().to_string_lossy().into_owned();
        let tmp_base = self.pag_path.with_file_name(format!("{stem}-ctmp"));
        let pairs = self.scan()?;
        let mut fresh = Sdbm::open(&tmp_base)?;
        for (k, v) in &pairs {
            fresh.store(k, v, StoreMode::Replace)?;
        }
        fresh.sync()?;
        let (fresh_pag, fresh_dir) = (fresh.pag_path.clone(), fresh.dir_path.clone());
        drop(fresh);
        // Reopen over the moved files.
        std::fs::rename(&fresh_pag, &self.pag_path)?;
        std::fs::rename(&fresh_dir, &self.dir_path)?;
        let reopened = Sdbm::open(&self.pag_path.with_file_name(stem))?;
        self.pag = reopened.pag;
        self.dir = reopened.dir;
        self.maxbno = reopened.maxbno;
        self.cur_pagno = None;
        self.cur_dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pse-sdbm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn basic_crud() {
        let d = tmpdir("crud");
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        db.store(b"alpha", b"1", StoreMode::Insert).unwrap();
        db.store(b"beta", b"2", StoreMode::Insert).unwrap();
        assert_eq!(db.fetch(b"alpha").unwrap().unwrap(), b"1");
        assert_eq!(db.fetch(b"missing").unwrap(), None);
        assert!(matches!(
            db.store(b"alpha", b"x", StoreMode::Insert),
            Err(Error::AlreadyExists)
        ));
        db.store(b"alpha", b"one", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"alpha").unwrap().unwrap(), b"one");
        assert!(db.delete(b"alpha").unwrap());
        assert!(!db.delete(b"alpha").unwrap());
        assert_eq!(db.len().unwrap(), 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn item_limit_enforced() {
        let d = tmpdir("limit");
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        let big = vec![b'x'; PAIR_MAX + 1];
        assert!(matches!(
            db.store(b"", &big, StoreMode::Replace),
            Err(Error::PairTooLarge { .. })
        ));
        // Exactly at the limit is fine.
        let exact = vec![b'y'; PAIR_MAX - 3];
        db.store(b"key", &exact, StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"key").unwrap().unwrap(), exact);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn initial_preallocation_is_8k() {
        let d = tmpdir("prealloc");
        let db = Sdbm::open(&d.join("t")).unwrap();
        drop(db);
        assert_eq!(
            std::fs::metadata(d.join("t.pag")).unwrap().len(),
            INITIAL_SIZE
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn many_pairs_force_splits() {
        let d = tmpdir("split");
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        let mut model = HashMap::new();
        for i in 0..500 {
            let k = format!("key-{i:04}");
            let v = format!("value-{i}-{}", "x".repeat(i % 100));
            db.store(k.as_bytes(), v.as_bytes(), StoreMode::Replace)
                .unwrap();
            model.insert(k, v);
        }
        for (k, v) in &model {
            assert_eq!(
                db.fetch(k.as_bytes()).unwrap().as_deref(),
                Some(v.as_bytes()),
                "key {k}"
            );
        }
        assert_eq!(db.len().unwrap(), model.len());
        let mut keys = db.keys().unwrap();
        keys.sort();
        let mut expect: Vec<Vec<u8>> = model.keys().map(|k| k.as_bytes().to_vec()).collect();
        expect.sort();
        assert_eq!(keys, expect);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let d = tmpdir("persist");
        {
            let mut db = Sdbm::open(&d.join("t")).unwrap();
            for i in 0..200 {
                db.store(
                    format!("k{i}").as_bytes(),
                    format!("v{i}").as_bytes(),
                    StoreMode::Replace,
                )
                .unwrap();
            }
            db.sync().unwrap();
        }
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        assert_eq!(db.len().unwrap(), 200);
        assert_eq!(db.fetch(b"k123").unwrap().unwrap(), b"v123");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn compact_preserves_content_and_shrinks() {
        let d = tmpdir("compact");
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        for i in 0..300 {
            let v = vec![b'v'; 500];
            db.store(format!("k{i}").as_bytes(), &v, StoreMode::Replace)
                .unwrap();
        }
        for i in 0..290 {
            db.delete(format!("k{i}").as_bytes()).unwrap();
        }
        let before = db.stats().unwrap().disk_bytes;
        db.compact().unwrap();
        let after = db.stats().unwrap().disk_bytes;
        assert!(after < before, "compact should shrink: {before} -> {after}");
        assert_eq!(db.len().unwrap(), 10);
        assert_eq!(db.fetch(b"k295").unwrap().unwrap(), vec![b'v'; 500]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn empty_keys_and_values_work() {
        let d = tmpdir("empty");
        let mut db = Sdbm::open(&d.join("t")).unwrap();
        db.store(b"", b"empty-key", StoreMode::Replace).unwrap();
        db.store(b"empty-val", b"", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"").unwrap().unwrap(), b"empty-key");
        assert_eq!(db.fetch(b"empty-val").unwrap().unwrap(), b"");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn hash_matches_reference_values() {
        // Reference values computed with the canonical sdbm hash.
        assert_eq!(sdbm_hash(b""), 0);
        let h = sdbm_hash(b"a");
        assert_eq!(h, 97);
        // h("ab") = 98 + 97*65599
        assert_eq!(sdbm_hash(b"ab"), 98u32.wrapping_add(97u32.wrapping_mul(65599)));
    }
}
