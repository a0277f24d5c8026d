//! The traced replay: after an op has run over the wire and been timed
//! end to end, its layer calls are repeated with the same inputs and
//! each public entry point is timed from outside the program. Reads are
//! idempotent and write replays store the same bytes again, so the
//! replay leaves the repository as the op left it.

use crate::gen::{Dataset, Op};
use crate::rig::{Handler, DOC_TYPE};
use crate::work::Inputs;
use pse_dav::repo::{PropPatchOp, Repository};
use pse_dav::{Depth, Multistatus, PropertyName};
use pse_http::wire::{read_response, write_response, Limits};
use pse_http::{Method, Request, Response};
use pse_xml::dom::{Document, Element};
use pse_xml::writer::Writer;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds spent in each layer, summed over the traced ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSums {
    pub ops: u64,
    pub parse: u64,
    pub handle: u64,
    /// End-to-end time not spent in `handle` or `parse`: socket, HTTP
    /// parse, reactor queue, response write. Signed: one op's replay
    /// can run slower than its wire trip.
    pub transport: i64,
    pub get_props: u64,
    pub put: u64,
    pub patch_props: u64,
    pub get: u64,
    pub multistatus_write: u64,
    pub wire_response: u64,
}

impl LayerSums {
    pub fn add(&mut self, o: &LayerSums) {
        self.ops += o.ops;
        self.parse += o.parse;
        self.handle += o.handle;
        self.transport += o.transport;
        self.get_props += o.get_props;
        self.put += o.put;
        self.patch_props += o.patch_props;
        self.get += o.get;
        self.multistatus_write += o.multistatus_write;
        self.wire_response += o.wire_response;
    }
}

/// Time `f`, adding the nanoseconds to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

fn xml(root: Element) -> String {
    Writer::new().write_document(&Document::with_root(root))
}

/// The PROPFIND `DavClient::propfind` sends.
fn propfind_request(path: &str, depth: Depth, names: &[PropertyName]) -> Request {
    let mut prop = Element::new(Some("DAV:"), "prop");
    for n in names {
        prop.push_elem(Element::new(Some(&n.namespace), &n.local));
    }
    let mut root = Element::new(Some("DAV:"), "propfind");
    root.push_elem(prop);
    Request::new(Method::PropFind, path)
        .with_header("Depth", depth.as_str())
        .with_xml_body(xml(root))
}

/// The PROPPATCH `DavClient::proppatch` sends for a set-only update.
fn proppatch_request(path: &str, inputs: &Inputs) -> Request {
    let mut prop = Element::new(Some("DAV:"), "prop");
    for p in &inputs.props {
        prop.push_elem(p.value.clone());
    }
    let mut set = Element::new(Some("DAV:"), "set");
    set.push_elem(prop);
    let mut root = Element::new(Some("DAV:"), "propertyupdate");
    root.push_elem(set);
    Request::new(Method::PropPatch, path).with_xml_body(xml(root))
}

fn expect(resp: &Response, code: u16, what: &str) -> Result<(), String> {
    if resp.status.code() == code {
        Ok(())
    } else {
        Err(format!(
            "replayed {what}: status {}, want {code}",
            resp.status.code()
        ))
    }
}

fn parse(sums: &mut LayerSums, resp: &Response) -> Result<Multistatus, String> {
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    timed(&mut sums.parse, || Multistatus::parse_sax(text)).map_err(|e| e.to_string())
}

/// Serialise the response as the server's socket writer does, then
/// parse it back as the client does.
fn wire(sums: &mut LayerSums, resp: &Response, method: &Method) -> Result<(), String> {
    let mut buf = Vec::with_capacity(resp.body.len() + 512);
    let back = timed(&mut sums.wire_response, || {
        write_response(&mut buf, resp, false)?;
        read_response(&mut buf.as_slice(), method, &Limits::default())
    })
    .map_err(|e| e.to_string())?;
    if back.body.len() != resp.body.len() {
        return Err("wire round trip changed the body length".into());
    }
    Ok(())
}

fn replay_propfind(
    handler: &Handler,
    path: &str,
    depth: Depth,
    names: &[PropertyName],
    s: &mut LayerSums,
) -> Result<(), String> {
    let req = propfind_request(path, depth, names);
    let resp = timed(&mut s.handle, || handler.handle(req));
    expect(&resp, 207, "PROPFIND")?;
    let ms = parse(s, &resp)?;
    let repo = handler.repo();
    for entry in &ms.responses {
        timed(&mut s.get_props, || repo.get_props(&entry.href, names))
            .map_err(|e| e.to_string())?;
    }
    timed(&mut s.multistatus_write, || black_box(ms.to_xml()));
    wire(s, &resp, &Method::PropFind)
}

/// Replay `op`'s layer calls on `handler`, adding their times to `sums`.
pub fn replay(
    handler: &Handler,
    ds: &Dataset,
    names: &[PropertyName],
    op: Op,
    inputs: &Inputs,
    e2e_ns: u64,
    sums: &mut LayerSums,
) -> Result<(), String> {
    let repo = handler.repo();
    let mut s = LayerSums {
        ops: 1,
        ..LayerSums::default()
    };
    match op {
        Op::Point { doc } => {
            replay_propfind(handler, &ds.doc_path(doc), Depth::Zero, names, &mut s)?
        }
        Op::Scan { collection } => replay_propfind(
            handler,
            &ds.collection_path(collection),
            Depth::One,
            names,
            &mut s,
        )?,
        Op::Write { doc } => {
            let path = ds.doc_path(doc);
            let put = Request::new(Method::Put, &path)
                .with_header("Content-Type", DOC_TYPE)
                .with_body(inputs.body.clone());
            let patch = proppatch_request(&path, inputs);
            let resp = timed(&mut s.handle, || handler.handle(put));
            expect(&resp, 204, "PUT")?;
            let resp = timed(&mut s.handle, || handler.handle(patch));
            expect(&resp, 207, "PROPPATCH")?;
            let ms = parse(&mut s, &resp)?;
            timed(&mut s.put, || repo.put(&path, &inputs.body, Some(DOC_TYPE)))
                .map_err(|e| e.to_string())?;
            let ops: Vec<PropPatchOp> =
                inputs.props.iter().cloned().map(PropPatchOp::Set).collect();
            timed(&mut s.patch_props, || repo.patch_props(&path, &ops))
                .map_err(|(_, e)| e.to_string())?;
            timed(&mut s.multistatus_write, || black_box(ms.to_xml()));
            wire(&mut s, &resp, &Method::PropPatch)?;
        }
        Op::Bulk { get_doc, .. } => {
            let path = ds.doc_path(get_doc);
            let get = Request::new(Method::Get, &path);
            let resp = timed(&mut s.handle, || handler.handle(get));
            expect(&resp, 200, "GET")?;
            let body = timed(&mut s.get, || repo.get(&path)).map_err(|e| e.to_string())?;
            if body != resp.body {
                return Err("repository GET differs from the DAV GET".into());
            }
            wire(&mut s, &resp, &Method::Get)?;
        }
    }
    s.transport = e2e_ns as i64 - s.handle as i64 - s.parse as i64;
    sums.add(&s);
    Ok(())
}
