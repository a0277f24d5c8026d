//! Executing one op over the wire and checking its result. The checkers
//! are pure functions of the reply and the seeded expectation, so tests
//! can feed them corrupted input without a server.

use crate::gen::{digest, Dataset, Op, NAMED_PROPS};
use crate::rig::{BULK_TYPE, DOC_TYPE};
use pse_dav::multistatus::ResponseEntry;
use pse_dav::{DavClient, Depth, Multistatus, Property, PropertyName};

/// Digests of every value the server must return, precomputed so that
/// checking a reply costs a hash rather than regenerating the data.
pub struct Expected {
    /// `[doc * NAMED_PROPS + i]`: digest of named property `i` at version 0.
    props: Vec<u64>,
    /// Digest of each bulk pool body.
    pub pool: Vec<u64>,
}

impl Expected {
    pub fn new(ds: &Dataset, pool: &[Vec<u8>]) -> Expected {
        let props = if ds.shape.props_per_doc == 0 {
            Vec::new()
        } else {
            (0..ds.docs())
                .flat_map(|doc| {
                    (0..NAMED_PROPS).map(move |i| digest(ds.prop_value(doc, i, 0).as_bytes()))
                })
                .collect()
        };
        Expected {
            props,
            pool: pool.iter().map(|b| digest(b)).collect(),
        }
    }

    fn prop(&self, doc: usize, i: usize) -> u64 {
        self.props[doc * NAMED_PROPS + i]
    }
}

/// `entry` carries each of `names`, the `i`th with digest `want(i)`.
fn check_entry(
    entry: &ResponseEntry,
    names: &[PropertyName],
    want: impl Fn(usize) -> u64,
) -> Result<(), String> {
    for (i, name) in names.iter().enumerate() {
        let got = entry
            .prop(name)
            .ok_or_else(|| format!("{}: {name} missing", entry.href))?;
        if digest(got.text_value().as_bytes()) != want(i) {
            return Err(format!("{}: {name} has the wrong value", entry.href));
        }
    }
    Ok(())
}

/// meta-point: one response, for `doc`, carrying its seeded values.
pub fn check_point(
    ds: &Dataset,
    exp: &Expected,
    doc: usize,
    ms: &Multistatus,
) -> Result<(), String> {
    let [entry] = ms.responses.as_slice() else {
        return Err(format!("{} responses, want 1", ms.responses.len()));
    };
    let path = ds.doc_path(doc);
    if entry.href != path {
        return Err(format!("href {}, want {path}", entry.href));
    }
    check_entry(entry, &ds.named_props(), |i| exp.prop(doc, i))
}

/// meta-scan: the collection plus each of its docs, five properties
/// each, every doc value as seeded.
pub fn check_scan(
    ds: &Dataset,
    exp: &Expected,
    collection: usize,
    ms: &Multistatus,
) -> Result<(), String> {
    let per = ds.shape.docs_per_collection;
    if ms.responses.len() != per + 1 {
        return Err(format!(
            "{} responses, want {}",
            ms.responses.len(),
            per + 1
        ));
    }
    let names = ds.named_props();
    let mut seen = vec![false; per];
    for entry in &ms.responses {
        let props: usize = entry.propstats.iter().map(|ps| ps.props.len()).sum();
        if props != NAMED_PROPS {
            return Err(format!(
                "{}: {props} properties, want {NAMED_PROPS}",
                entry.href
            ));
        }
        let href = entry.href.trim_end_matches('/');
        if href == ds.collection_path(collection) {
            continue;
        }
        let doc = (0..per)
            .map(|d| collection * per + d)
            .find(|&d| ds.doc_path(d) == href)
            .ok_or_else(|| format!("unexpected href {}", entry.href))?;
        if std::mem::replace(&mut seen[doc % per], true) {
            return Err(format!("{} listed twice", entry.href));
        }
        check_entry(entry, &names, |i| exp.prop(doc, i))?;
    }
    Ok(())
}

/// Every PROPPATCH instruction succeeded on the one target.
pub fn check_patch(path: &str, ms: &Multistatus) -> Result<(), String> {
    let [entry] = ms.responses.as_slice() else {
        return Err(format!("{} responses, want 1", ms.responses.len()));
    };
    let ok: usize = entry.ok_props().count();
    if entry.href != path || ok != NAMED_PROPS {
        return Err(format!(
            "{}: {ok} properties set, want {NAMED_PROPS}",
            entry.href
        ));
    }
    Ok(())
}

/// A body matches the digest of what was last stored.
pub fn check_body(what: &str, body: &[u8], want: u64) -> Result<(), String> {
    if digest(body) != want {
        return Err(format!("{what}: body differs from the last one stored"));
    }
    Ok(())
}

/// meta-write read-back: after `version` writes, a doc holds body
/// `version`, named properties at `version` and the rest at 0.
pub fn check_readback(
    ds: &Dataset,
    doc: usize,
    version: u32,
    body: &[u8],
    entry: &ResponseEntry,
) -> Result<(), String> {
    check_body(&ds.doc_path(doc), body, digest(&ds.body(doc, version)))?;
    let all: Vec<PropertyName> = (0..ds.shape.props_per_doc)
        .map(|i| ds.prop_name(i))
        .collect();
    check_entry(entry, &all, |i| {
        let v = if i < NAMED_PROPS { version } else { 0 };
        digest(ds.prop_value(doc, i, v).as_bytes())
    })
}

/// What the run's writes left behind, so checks know the last value.
#[derive(Debug, Clone)]
pub struct State {
    /// meta-write: writes applied to each doc.
    pub versions: Vec<u32>,
    /// bulk-io: pool slot each doc holds.
    pub slots: Vec<usize>,
}

impl State {
    pub fn new(ds: &Dataset) -> State {
        State {
            versions: vec![0; ds.docs()],
            slots: (0..ds.docs()).map(|d| ds.bulk_initial_slot(d)).collect(),
        }
    }
}

/// What an op sends besides its path.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    pub body: Vec<u8>,
    pub props: Vec<Property>,
}

/// One client connection issuing one thread's ops.
pub struct Worker<'a> {
    pub ds: Dataset,
    pub exp: &'a Expected,
    pub pool: &'a [Vec<u8>],
    pub client: DavClient,
    pub names: Vec<PropertyName>,
    pub state: State,
}

impl Worker<'_> {
    /// The body and properties `op` stores, made before its timer
    /// starts: the inputs exist before the request is sent.
    pub fn prepare(&self, op: Op) -> Inputs {
        match op {
            Op::Write { doc } => {
                let v = self.state.versions[doc] + 1;
                Inputs {
                    body: self.ds.body(doc, v),
                    props: (0..NAMED_PROPS)
                        .map(|i| {
                            Property::text(self.ds.prop_name(i), &self.ds.prop_value(doc, i, v))
                        })
                        .collect(),
                }
            }
            Op::Bulk { slot, .. } => Inputs {
                body: self.pool[slot].clone(),
                props: Vec::new(),
            },
            Op::Point { .. } | Op::Scan { .. } => Inputs::default(),
        }
    }

    /// Send `op`, wait for the reply, check it. Returns the user payload
    /// bytes moved.
    pub fn run(&mut self, op: Op, inputs: Inputs) -> Result<u64, String> {
        let ds = self.ds;
        let named_bytes = (NAMED_PROPS * ds.shape.prop_len) as u64;
        match op {
            Op::Point { doc } => {
                let ms = self
                    .client
                    .propfind(&ds.doc_path(doc), Depth::Zero, &self.names)
                    .map_err(|e| e.to_string())?;
                check_point(&ds, self.exp, doc, &ms)?;
                Ok(named_bytes)
            }
            Op::Scan { collection } => {
                let ms = self
                    .client
                    .propfind(&ds.collection_path(collection), Depth::One, &self.names)
                    .map_err(|e| e.to_string())?;
                check_scan(&ds, self.exp, collection, &ms)?;
                Ok(ds.shape.docs_per_collection as u64 * named_bytes)
            }
            Op::Write { doc } => {
                let path = ds.doc_path(doc);
                let payload = inputs.body.len() as u64 + named_bytes;
                self.client
                    .put(&path, inputs.body, Some(DOC_TYPE))
                    .map_err(|e| e.to_string())?;
                let ms = self
                    .client
                    .proppatch(&path, &inputs.props, &[])
                    .map_err(|e| e.to_string())?;
                check_patch(&path, &ms)?;
                self.state.versions[doc] += 1;
                Ok(payload)
            }
            Op::Bulk {
                put_doc,
                slot,
                get_doc,
            } => {
                self.client
                    .put(&ds.doc_path(put_doc), inputs.body, Some(BULK_TYPE))
                    .map_err(|e| e.to_string())?;
                self.state.slots[put_doc] = slot;
                let path = ds.doc_path(get_doc);
                let body = self.client.get(&path).map_err(|e| e.to_string())?;
                check_body(&path, &body, self.exp.pool[self.state.slots[get_doc]])?;
                Ok(2 * ds.shape.body_len as u64)
            }
        }
    }
}

/// meta-write: read back every doc's body and properties; returns the
/// number of docs that differ from their last write.
pub fn readback(ds: &Dataset, client: &mut DavClient, versions: &[u32]) -> Result<u64, String> {
    let all: Vec<PropertyName> = (0..ds.shape.props_per_doc)
        .map(|i| ds.prop_name(i))
        .collect();
    let per = ds.shape.docs_per_collection;
    let mut bad = 0;
    for c in 0..ds.shape.collections {
        let ms = client
            .propfind(&ds.collection_path(c), Depth::One, &all)
            .map_err(|e| format!("read-back PROPFIND: {e}"))?;
        for (doc, &version) in versions.iter().enumerate().skip(c * per).take(per) {
            let path = ds.doc_path(doc);
            let body = client
                .get(&path)
                .map_err(|e| format!("read-back GET: {e}"))?;
            let ok = ms
                .response_for(&path)
                .is_some_and(|entry| check_readback(ds, doc, version, &body, entry).is_ok());
            if !ok {
                bad += 1;
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use pse_dav::multistatus::PropStat;
    use pse_http::StatusCode;

    /// A doc's response carrying `names` with the values `value(i)`.
    fn doc_entry(
        ms: &mut Multistatus,
        path: &str,
        names: &[PropertyName],
        value: impl Fn(usize) -> String,
    ) {
        let props = names
            .iter()
            .enumerate()
            .map(|(i, n)| Property::text(n.clone(), &value(i)))
            .collect();
        ms.push_propstats(
            path,
            vec![PropStat {
                props,
                status: StatusCode::OK,
            }],
        );
    }

    /// Flip one character of a value.
    fn corrupt(mut v: String) -> String {
        let c = if v.starts_with('a') { "b" } else { "a" };
        v.replace_range(0..1, c);
        v
    }

    #[test]
    fn point_checker_flags_one_bad_value() {
        let ds = Dataset::new(Workload::MetaPoint, 5);
        let exp = Expected::new(&ds, &[]);
        let names = ds.named_props();
        let doc = 1234;
        let reply = |bad: Option<usize>| {
            let mut ms = Multistatus::new();
            doc_entry(&mut ms, &ds.doc_path(doc), &names, |i| {
                let v = ds.prop_value(doc, i, 0);
                if bad == Some(i) {
                    corrupt(v)
                } else {
                    v
                }
            });
            ms
        };
        assert_eq!(check_point(&ds, &exp, doc, &reply(None)), Ok(()));
        for i in 0..NAMED_PROPS {
            assert!(check_point(&ds, &exp, doc, &reply(Some(i))).is_err());
        }
        assert!(
            check_point(&ds, &exp, doc + 1, &reply(None)).is_err(),
            "wrong doc"
        );
    }

    #[test]
    fn scan_checker_flags_one_bad_value_or_missing_response() {
        let ds = Dataset::new(Workload::MetaScan, 5);
        let exp = Expected::new(&ds, &[]);
        let names = ds.named_props();
        let c = 3;
        let per = ds.shape.docs_per_collection;
        let reply = |bad_doc: Option<usize>, skip: Option<usize>| {
            let mut ms = Multistatus::new();
            let missing = names
                .iter()
                .map(|n| Property::text(n.clone(), ""))
                .collect();
            ms.push_propstats(
                &format!("{}/", ds.collection_path(c)),
                vec![PropStat {
                    props: missing,
                    status: StatusCode::NOT_FOUND,
                }],
            );
            for doc in c * per..(c + 1) * per {
                if skip == Some(doc) {
                    continue;
                }
                doc_entry(&mut ms, &ds.doc_path(doc), &names, |i| {
                    let v = ds.prop_value(doc, i, 0);
                    if bad_doc == Some(doc) && i == 2 {
                        corrupt(v)
                    } else {
                        v
                    }
                });
            }
            ms
        };
        assert_eq!(check_scan(&ds, &exp, c, &reply(None, None)), Ok(()));
        assert!(check_scan(&ds, &exp, c, &reply(Some(c * per + 17), None)).is_err());
        assert!(check_scan(&ds, &exp, c, &reply(None, Some(c * per))).is_err());
    }

    #[test]
    fn write_readback_checker_flags_one_bad_body_or_value() {
        let ds = Dataset::new(Workload::MetaWrite, 5);
        let all: Vec<PropertyName> = (0..ds.shape.props_per_doc)
            .map(|i| ds.prop_name(i))
            .collect();
        let (doc, version) = (42, 3);
        let entry = |bad: Option<usize>| {
            let mut ms = Multistatus::new();
            doc_entry(&mut ms, &ds.doc_path(doc), &all, |i| {
                let v = ds.prop_value(doc, i, if i < NAMED_PROPS { version } else { 0 });
                if bad == Some(i) {
                    corrupt(v)
                } else {
                    v
                }
            });
            ms.responses.remove(0)
        };
        let body = ds.body(doc, version);
        assert_eq!(
            check_readback(&ds, doc, version, &body, &entry(None)),
            Ok(())
        );
        let mut bad_body = body.clone();
        bad_body[100] ^= 1;
        assert!(check_readback(&ds, doc, version, &bad_body, &entry(None)).is_err());
        assert!(
            check_readback(&ds, doc, version - 1, &body, &entry(None)).is_err(),
            "stale version"
        );
        for i in [0, NAMED_PROPS - 1, NAMED_PROPS, ds.shape.props_per_doc - 1] {
            assert!(
                check_readback(&ds, doc, version, &body, &entry(Some(i))).is_err(),
                "prop {i}"
            );
        }
    }

    #[test]
    fn bulk_checker_flags_one_bad_byte() {
        let ds = Dataset::new(Workload::BulkIo, 5);
        let pool: Vec<Vec<u8>> = (0..crate::gen::BULK_POOL)
            .map(|s| ds.bulk_body(s))
            .collect();
        let exp = Expected::new(&ds, &pool);
        let mut body = pool[2].clone();
        assert_eq!(check_body("d", &body, exp.pool[2]), Ok(()));
        assert!(
            check_body("d", &body, exp.pool[1]).is_err(),
            "another doc's body"
        );
        let last = body.len() - 1;
        body[last] ^= 0x80;
        assert!(check_body("d", &body, exp.pool[2]).is_err());
    }
}
