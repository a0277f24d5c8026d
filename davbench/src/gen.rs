//! Seeded inputs: the workloads, their dataset shapes, every stored
//! value and every operation sequence. Everything here is a pure
//! function of the seed, so one seed always yields the same dataset and
//! the same op sequence, and the checkers can recompute what the server
//! must return.

use pse_dav::PropertyName;

/// Namespace of every dead property the benchmark stores.
pub const NS: &str = "http://emsl.pnl.gov/ecce";

/// Properties named in each PROPFIND and each PROPPATCH.
pub const NAMED_PROPS: usize = 5;

/// Distinct 4 MiB bodies bulk-io cycles through.
pub const BULK_POOL: usize = 4;

/// The four workloads, one operation shape each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaPoint,
    MetaScan,
    MetaWrite,
    BulkIo,
}

/// Dataset shape and client concurrency of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub collections: usize,
    pub docs_per_collection: usize,
    pub props_per_doc: usize,
    pub prop_len: usize,
    pub body_len: usize,
    /// Client threads, one persistent connection each.
    pub connections: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetaPoint,
        Workload::MetaScan,
        Workload::MetaWrite,
        Workload::BulkIo,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaPoint => "meta-point",
            Workload::MetaScan => "meta-scan",
            Workload::MetaWrite => "meta-write",
            Workload::BulkIo => "bulk-io",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            // 2,000 docs x 10 props x 64 B: ~2 MB of property snapshots,
            // inside the 4 MiB property cache.
            Workload::MetaPoint | Workload::MetaWrite => Shape {
                collections: 20,
                docs_per_collection: 100,
                props_per_doc: 10,
                prop_len: 64,
                body_len: 1024,
                connections: 2,
            },
            // 400 docs x 50 props x 1 KiB: 20 MB, five times the cache.
            Workload::MetaScan => Shape {
                collections: 8,
                docs_per_collection: 50,
                props_per_doc: 50,
                prop_len: 1024,
                body_len: 1024,
                connections: 1,
            },
            Workload::BulkIo => Shape {
                collections: 1,
                docs_per_collection: 16,
                props_per_doc: 0,
                prop_len: 0,
                body_len: 4 << 20,
                connections: 1,
            },
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Fold a key tuple into one well-mixed seed.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0x5eed_da7a_0000_0001);
    let mut h = rng.next_u64();
    for &p in parts {
        rng = Rng::new(h ^ p);
        h = rng.next_u64();
    }
    h
}

/// `len` characters of `[a-z0-9]`: safe unescaped in XML and URLs.
pub fn text(key: u64, len: usize) -> String {
    const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = Rng::new(key);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
        .collect()
}

/// `len` incompressible bytes.
pub fn bytes(key: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(key);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A 64-bit digest of a body: word-at-a-time, so hashing 4 MiB costs
/// far less than moving it over the wire.
pub fn digest(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunk of 8"));
        h = (h ^ v).wrapping_mul(0x1000_0000_01b3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (h >> 32)
}

/// The seeded dataset of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub seed: u64,
    pub workload: Workload,
    pub shape: Shape,
}

impl Dataset {
    pub fn new(workload: Workload, seed: u64) -> Dataset {
        Dataset {
            seed,
            workload,
            shape: workload.shape(),
        }
    }

    pub fn docs(&self) -> usize {
        self.shape.collections * self.shape.docs_per_collection
    }

    pub fn collection_path(&self, c: usize) -> String {
        format!("/c{c:02}")
    }

    pub fn doc_path(&self, doc: usize) -> String {
        let per = self.shape.docs_per_collection;
        format!("/c{:02}/d{:03}", doc / per, doc % per)
    }

    pub fn prop_name(&self, i: usize) -> PropertyName {
        PropertyName::new(NS, &format!("p{i:02}"))
    }

    /// The properties every PROPFIND asks for and every PROPPATCH sets.
    pub fn named_props(&self) -> Vec<PropertyName> {
        (0..NAMED_PROPS).map(|i| self.prop_name(i)).collect()
    }

    /// Value of property `prop` on `doc` after `version` writes.
    pub fn prop_value(&self, doc: usize, prop: usize, version: u32) -> String {
        let key = mix(&[
            self.seed,
            self.workload.tag(),
            1,
            doc as u64,
            prop as u64,
            u64::from(version),
        ]);
        text(key, self.shape.prop_len)
    }

    /// Body of `doc` after `version` writes (metadata workloads).
    pub fn body(&self, doc: usize, version: u32) -> Vec<u8> {
        let key = mix(&[
            self.seed,
            self.workload.tag(),
            2,
            doc as u64,
            u64::from(version),
        ]);
        text(key, self.shape.body_len).into_bytes()
    }

    /// One of the [`BULK_POOL`] incompressible bulk bodies.
    pub fn bulk_body(&self, slot: usize) -> Vec<u8> {
        bytes(
            mix(&[self.seed, self.workload.tag(), 3, slot as u64]),
            self.shape.body_len,
        )
    }

    /// Pool slot bulk doc `doc` holds before the first op.
    pub fn bulk_initial_slot(&self, doc: usize) -> usize {
        doc % BULK_POOL
    }

    /// User bytes stored at build time: bodies plus property values.
    pub fn user_bytes(&self) -> u64 {
        let s = self.shape;
        (self.docs() * (s.body_len + s.props_per_doc * s.prop_len)) as u64
    }

    /// The op sequence client `thread` of `threads` issues.
    pub fn ops(&self, thread: usize, threads: usize) -> OpStream {
        OpStream {
            rng: Rng::new(mix(&[self.seed, self.workload.tag(), 4, thread as u64])),
            ds: *self,
            thread,
            threads,
        }
    }
}

/// One operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Depth-0 PROPFIND of the named properties on one doc.
    Point { doc: usize },
    /// Depth-1 PROPFIND of the named properties over one collection.
    Scan { collection: usize },
    /// PUT a new body, then PROPPATCH the named properties, on one doc.
    Write { doc: usize },
    /// PUT pool body `slot` to `put_doc`, then GET `get_doc` back.
    Bulk {
        put_doc: usize,
        slot: usize,
        get_doc: usize,
    },
}

/// An endless, seeded op sequence for one client thread.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    ds: Dataset,
    thread: usize,
    threads: usize,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let ds = &self.ds;
        Some(match ds.workload {
            Workload::MetaPoint => Op::Point {
                doc: self.rng.below(ds.docs()),
            },
            Workload::MetaScan => Op::Scan {
                collection: self.rng.below(ds.shape.collections),
            },
            // Writers own disjoint docs (doc % threads == thread), so the
            // last write to every doc is known without ordering threads.
            Workload::MetaWrite => Op::Write {
                doc: self.thread + self.threads * self.rng.below(ds.docs() / self.threads),
            },
            Workload::BulkIo => {
                let n = ds.docs();
                let put_doc = self.rng.below(n);
                Op::Bulk {
                    put_doc,
                    slot: self.rng.below(BULK_POOL),
                    get_doc: (put_doc + 1 + self.rng.below(n - 1)) % n,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(w: Workload, seed: u64, thread: usize) -> Vec<Op> {
        let ds = Dataset::new(w, seed);
        ds.ops(thread, ds.shape.connections).take(2000).collect()
    }

    fn dataset_sample(w: Workload, seed: u64) -> (Vec<String>, Vec<u8>, Vec<u8>) {
        let ds = Dataset::new(w, seed);
        let props = (0..ds.docs().min(50))
            .flat_map(|d| (0..ds.shape.props_per_doc).map(move |i| ds.prop_value(d, i, 0)))
            .collect();
        let body = ds.body(ds.docs() - 1, 3);
        (props, body, ds.bulk_body(1))
    }

    #[test]
    fn one_seed_gives_one_op_sequence_and_dataset() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 7, 0), ops(w, 7, 0), "{}", w.name());
            assert_eq!(dataset_sample(w, 7), dataset_sample(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn two_seeds_differ() {
        for w in Workload::ALL {
            assert_ne!(ops(w, 7, 0), ops(w, 8, 0), "{}", w.name());
            let (a, b) = (dataset_sample(w, 7), dataset_sample(w, 8));
            assert_ne!(a.1, b.1, "{}", w.name());
            assert_ne!(a.2, b.2, "{}", w.name());
            if w != Workload::BulkIo {
                assert_ne!(a.0, b.0, "{}", w.name());
            }
        }
    }

    #[test]
    fn ops_stay_in_range_and_writers_own_disjoint_docs() {
        for w in Workload::ALL {
            let ds = Dataset::new(w, 3);
            let n = ds.shape.connections;
            for t in 0..n {
                for op in ds.ops(t, n).take(5000) {
                    match op {
                        Op::Point { doc } => assert!(doc < ds.docs()),
                        Op::Scan { collection } => assert!(collection < ds.shape.collections),
                        Op::Write { doc } => assert_eq!(doc % n, t),
                        Op::Bulk {
                            put_doc,
                            slot,
                            get_doc,
                        } => {
                            assert!(put_doc < ds.docs() && get_doc < ds.docs() && slot < BULK_POOL);
                            assert_ne!(put_doc, get_doc);
                        }
                    }
                }
            }
        }
    }
}
