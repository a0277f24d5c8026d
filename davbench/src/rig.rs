//! The system under test: an in-process `pse-dav` server over a
//! filesystem repository, reached over loopback. Set-up is server
//! start, the seeded dataset build through the public `DavClient`, and
//! a warm-up that leaves caches full and lazy work done.

use crate::gen::{Dataset, Workload};
use pse_dav::{DavClient, DavHandler, Depth, FsConfig, FsRepository, Property};
use pse_http::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Content type of every metadata-workload document.
pub const DOC_TYPE: &str = "chemical/x-ecce-output";
/// Content type of every bulk document.
pub const BULK_TYPE: &str = "application/octet-stream";

/// Propindex journal, relative to the repository root; warm-up watches
/// it shrink to see a compaction happen.
const INDEX_JOURNAL: &str = ".DAV/index/journal.log";

pub type Handler = DavHandler<FsRepository>;

pub struct Rig {
    pub dir: PathBuf,
    pub handler: Handler,
    addr: SocketAddr,
    server: Option<Server>,
}

impl Rig {
    /// Start a server on a fresh repository at `dir`, build the dataset
    /// and warm up.
    pub fn setup(ds: &Dataset, dir: PathBuf) -> Result<Rig, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let started = FsRepository::create(&dir, FsConfig::default())
            .map_err(|e| format!("create repository: {e}"))
            .and_then(|repo| {
                let handler = DavHandler::new(repo);
                let server =
                    pse_dav::server::serve("127.0.0.1:0", ServerConfig::default(), handler.clone())
                        .map_err(|e| format!("start server: {e}"))?;
                Ok((handler, server))
            });
        let (handler, server) = match started {
            Ok(parts) => parts,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        let rig = Rig {
            dir,
            handler,
            addr: server.local_addr(),
            server: Some(server),
        };
        match rig.build(ds).and_then(|()| rig.warm(ds)) {
            Ok(()) => Ok(rig),
            Err(e) => {
                rig.teardown();
                Err(e)
            }
        }
    }

    pub fn connect(&self) -> Result<DavClient, String> {
        DavClient::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Run `f(client, thread)` on `threads` client threads, each with
    /// its own connection, and fail on the first error.
    pub fn par(
        &self,
        threads: usize,
        f: impl Fn(&mut DavClient, usize) -> Result<(), String> + Sync,
    ) -> Result<(), String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let f = &f;
                    s.spawn(move || f(&mut self.connect()?, t))
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("set-up thread panicked"))
        })
    }

    fn build(&self, ds: &Dataset) -> Result<(), String> {
        let mut client = self.connect()?;
        for c in 0..ds.shape.collections {
            client
                .mkcol(&ds.collection_path(c))
                .map_err(|e| format!("MKCOL: {e}"))?;
        }
        let threads = crate::probe::nproc();
        self.par(threads, |client, t| {
            for doc in (t..ds.docs()).step_by(threads) {
                let path = ds.doc_path(doc);
                let (body, ct) = match ds.workload {
                    Workload::BulkIo => (ds.bulk_body(ds.bulk_initial_slot(doc)), BULK_TYPE),
                    _ => (ds.body(doc, 0), DOC_TYPE),
                };
                client
                    .put(&path, body, Some(ct))
                    .map_err(|e| format!("PUT {path}: {e}"))?;
                if ds.shape.props_per_doc > 0 {
                    let props: Vec<Property> = (0..ds.shape.props_per_doc)
                        .map(|i| Property::text(ds.prop_name(i), &ds.prop_value(doc, i, 0)))
                        .collect();
                    client
                        .proppatch(&path, &props, &[])
                        .map_err(|e| format!("PROPPATCH {path}: {e}"))?;
                }
            }
            Ok(())
        })
    }

    fn warm(&self, ds: &Dataset) -> Result<(), String> {
        let names = ds.named_props();
        let n = ds.shape.connections;
        match ds.workload {
            // Load every doc's property snapshot into the cache.
            Workload::MetaPoint => self.par(n, |client, t| {
                for doc in (t..ds.docs()).step_by(n) {
                    client
                        .propfind(&ds.doc_path(doc), Depth::Zero, &names)
                        .map_err(|e| format!("warm PROPFIND: {e}"))?;
                }
                Ok(())
            }),
            // The set exceeds the cache; one pass warms the page cache.
            Workload::MetaScan => self.par(n, |client, _| {
                for c in 0..ds.shape.collections {
                    client
                        .propfind(&ds.collection_path(c), Depth::One, &names)
                        .map_err(|e| format!("warm PROPFIND: {e}"))?;
                }
                Ok(())
            }),
            // Rewrite the stored properties unchanged until the
            // propindex journal has compacted at least once, so the
            // measured phase starts on a fresh journal with the write
            // path warm.
            Workload::MetaWrite => {
                let journal = self.dir.join(INDEX_JOURNAL);
                let compacted = AtomicBool::new(false);
                self.par(n, |client, t| {
                    let mut last = journal_len(&journal);
                    for _pass in 0..16 {
                        for doc in (t..ds.docs()).step_by(n) {
                            if compacted.load(Ordering::Relaxed) {
                                return Ok(());
                            }
                            let path = ds.doc_path(doc);
                            let props: Vec<Property> = (0..ds.shape.props_per_doc)
                                .map(|i| Property::text(ds.prop_name(i), &ds.prop_value(doc, i, 0)))
                                .collect();
                            client
                                .proppatch(&path, &props, &[])
                                .map_err(|e| format!("warm PROPPATCH: {e}"))?;
                            let len = journal_len(&journal);
                            if len < last {
                                compacted.store(true, Ordering::Relaxed);
                            }
                            last = len;
                        }
                    }
                    Err("warm-up: propindex journal never compacted".into())
                })
            }
            // Move every body over the wire once in each direction.
            Workload::BulkIo => self.par(1, |client, _| {
                for doc in 0..ds.docs() {
                    let path = ds.doc_path(doc);
                    client
                        .put(
                            &path,
                            ds.bulk_body(ds.bulk_initial_slot(doc)),
                            Some(BULK_TYPE),
                        )
                        .map_err(|e| format!("warm PUT: {e}"))?;
                    client.get(&path).map_err(|e| format!("warm GET: {e}"))?;
                }
                Ok(())
            }),
        }
    }

    /// Stop the server and release the repository, leaving its files
    /// on disk; returns where they are.
    pub fn stop(mut self) -> PathBuf {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.dir
    }

    /// Stop the server and delete the repository.
    pub fn teardown(self) {
        let _ = std::fs::remove_dir_all(self.stop());
    }
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
