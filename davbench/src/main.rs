//! davbench: end-to-end and per-layer benchmark of the davpse DAV stack.
//!
//! Usage: `davbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One process runs one workload: it sets up an in-process `pse-dav`
//! server over a filesystem repository in `.davbench-data/` under the
//! working directory, drives it over loopback as a closed loop, checks
//! every reply against the seeded generator, and prints one JSON result
//! as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer ones, from an untraced
//! half (registry counters) and a traced half (layer replay timings).
//! See README.md for the workloads and the metric mapping.

mod gen;
mod layers;
mod measure;
mod probe;
mod rig;
mod stats;
mod work;

use gen::{Dataset, Workload, BULK_POOL};
use measure::{measure, Phase};
use pse_obs::Snapshot;
use rig::Rig;
use std::path::{Path, PathBuf};
use std::time::Instant;
use work::{Expected, State};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The end-to-end tail percentile: the calm windows of every workload's
/// run hold at least twice the 200 samples it needs to have ten beyond
/// it.
const TAIL_Q: f64 = 0.95;
/// Where repositories live, relative to the working directory.
const DATA_ROOT: &str = ".davbench-data";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// `{"k": v, ...}` from keys and already-encoded JSON values.
fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn hist_mean(s: &Snapshot, name: &str) -> f64 {
    s.histograms.get(name).map_or(0.0, |h| h.mean())
}

fn run(args: &Args) -> Result<(), String> {
    let ds = Dataset::new(args.workload, args.seed);
    let host_before = probe::host_ref_ms();
    let pool: Vec<Vec<u8>> = match args.workload {
        Workload::BulkIo => (0..BULK_POOL).map(|s| ds.bulk_body(s)).collect(),
        _ => Vec::new(),
    };
    let exp = Expected::new(&ds, &pool);
    let data_root = PathBuf::from(DATA_ROOT);
    std::fs::create_dir_all(&data_root).map_err(|e| format!("create {DATA_ROOT}: {e}"))?;
    let data_fs = probe::fs_type(&data_root);

    // Earlier set-ups' files are kept until the run ends: deleting them
    // would put filesystem work under the next set-up or the measured
    // phase.
    let mut setup_times = Vec::new();
    let mut spent: Vec<PathBuf> = Vec::new();
    let mut rig: Option<Rig> = None;
    let mut state = State::new(&ds);
    let result = (|| {
        for i in 0..SETUPS {
            spent.extend(rig.take().map(Rig::stop));
            let dir = data_root.join(format!("{}-{}-{i}", ds.workload.name(), std::process::id()));
            // Each set-up and the measured phase start with no writeback
            // backlog: the data filesystem's dirty pages are flushed
            // first (untimed).
            probe::sync_fs(&data_root);
            let t = Instant::now();
            rig = Some(Rig::setup(&ds, dir)?);
            setup_times.push(t.elapsed().as_secs_f64());
        }
        probe::sync_fs(&data_root);
        let rig = rig.as_ref().expect("SETUPS > 0");
        let mut phase = |seconds: f64, traced: bool| {
            measure(rig, &ds, &exp, &pool, &mut state, seconds, traced)
        };
        let phases = if args.trace {
            vec![
                phase(args.seconds / 2.0, false)?,
                phase(args.seconds / 2.0, true)?,
            ]
        } else {
            vec![phase(args.seconds, false)?]
        };
        let bad_docs = match ds.workload {
            Workload::MetaWrite => work::readback(&ds, &mut rig.connect()?, &state.versions)?,
            _ => 0,
        };
        let disk = probe::disk_bytes(&rig.dir);
        Ok::<_, String>((phases, bad_docs, disk))
    })();
    spent.extend(rig.map(Rig::stop));
    for dir in spent {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir(&data_root);
    // Leave no deletion backlog for whatever runs next (untimed).
    probe::sync_fs(Path::new("."));
    let (phases, bad_docs, disk) = result?;
    let setup_s = stats::median(&mut setup_times.clone());
    let host_after = probe::host_ref_ms();

    let attempted: u64 = phases.iter().map(Phase::ops).sum();
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + bad_docs;
    let main = &phases[0];
    let calm = main.calm();
    let (p50, _) = calm.quantile_ms(0.5);
    let (tail, tail_beyond) = calm.quantile_ms(TAIL_Q);
    let (p99, p99_beyond) = calm.quantile_ms(0.99);
    let reg = &main.registry;
    let count_per_op = |name: &str| reg.counter(name) as f64 / main.ops() as f64;

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced = &phases[1];
        let l = &traced.layers;
        let us_per_op = |ns: u64| ns as f64 / l.ops.max(1) as f64 / 1e3;
        let hits = reg.counter("dav.prop_cache.hits") as f64;
        let lookups = hits + reg.counter("dav.prop_cache.misses") as f64;
        vec![
            ("client.parse_us", us_per_op(l.parse), "us"),
            ("dav.handle_us", us_per_op(l.handle), "us"),
            (
                "http.transport_us",
                l.transport as f64 / l.ops.max(1) as f64 / 1e3,
                "us",
            ),
            ("repo.get_props_us", us_per_op(l.get_props), "us"),
            ("repo.put_us", us_per_op(l.put), "us"),
            ("repo.patch_props_us", us_per_op(l.patch_props), "us"),
            ("repo.get_us", us_per_op(l.get), "us"),
            (
                "xml.multistatus_write_us",
                us_per_op(l.multistatus_write),
                "us",
            ),
            ("wire.response_us", us_per_op(l.wire_response), "us"),
            (
                "http.queue_us",
                hist_mean(reg, "http.queue_latency_us"),
                "us",
            ),
            (
                "http.request_us",
                hist_mean(reg, "http.request_latency_us"),
                "us",
            ),
            (
                "dav.prop_cache.hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
                "ratio",
            ),
            (
                "dbm.page_reads_per_op",
                count_per_op("dbm.page_reads"),
                "count",
            ),
            (
                "dbm.page_writes_per_op",
                count_per_op("dbm.page_writes"),
                "count",
            ),
            (
                "dav.pathlock.contended_per_op",
                count_per_op("dav.pathlock.contended"),
                "count",
            ),
            (
                "dav.pathlock.wait_us",
                count_per_op("dav.pathlock.wait_us"),
                "us",
            ),
            (
                "dav.multistatus_bytes",
                hist_mean(reg, "dav.multistatus_bytes"),
                "bytes",
            ),
            ("host.ref_ms", (host_before + host_after) / 2.0, "ms"),
            (
                "trace.overhead_pct",
                (traced.calm().quantile_ms(0.5).0 / p50 - 1.0) * 100.0,
                "%",
            ),
        ]
    } else {
        vec![
            ("latency_p50_ms", p50, "ms"),
            ("latency_p95_ms", tail, "ms"),
            ("throughput_ops_s", calm.ops() / calm.secs, "1/s"),
            (
                "goodput_mib_s",
                calm.payload as f64 / calm.secs / f64::from(1 << 20),
                "MiB/s",
            ),
            ("cpu_ms_per_op", calm.cpu_s * 1e3 / calm.ops(), "ms"),
            ("wire_bytes_per_op", calm.wire as f64 / calm.ops(), "bytes"),
            (
                "disk_bytes_per_user_byte",
                disk as f64 / ds.user_bytes() as f64,
                "ratio",
            ),
            ("rss_peak_mib", probe::rss_peak_mib(), "MiB"),
            ("setup_s", setup_s, "s"),
        ]
    };

    let facts: Vec<(&str, String)> = vec![
        ("workload", format!("\"{}\"", ds.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", probe::nproc().to_string()),
        ("data_fs", format!("\"{data_fs}\"")),
        ("flush_policy", "\"no fsync\"".into()),
        ("commit", format!("\"{}\"", probe::commit())),
        ("source_digest", format!("\"{}\"", probe::source_digest())),
        ("ops", main.ops().to_string()),
        ("calm_ops", calm.lat_ns.len().to_string()),
        ("calm_windows", calm.windows.to_string()),
        ("tail_percentile", TAIL_Q.to_string()),
        ("tail_samples_beyond", tail_beyond.to_string()),
        // p99 only where at least ten samples lie beyond it.
        (
            "latency_p99_ms",
            if p99_beyond >= 10 {
                p99.to_string()
            } else {
                "null".into()
            },
        ),
        ("p99_samples_beyond", p99_beyond.to_string()),
        ("error_rate", (failed as f64 / attempted as f64).to_string()),
        (
            "first_error",
            phases
                .iter()
                .find_map(|p| p.first_error.as_deref())
                .map_or("null".into(), pse_obs::json_string),
        ),
        ("window_steal_pct", format!("{:?}", main.window_steal_pct())),
        ("calm_steal_pct", calm.steal_pct.to_string()),
        ("host_ref_ms_before", host_before.to_string()),
        ("host_ref_ms_after", host_after.to_string()),
        ("setup_s_each", format!("{setup_times:?}")),
    ];
    println!("{{\"run_facts\": {}}}", json_object(&facts));
    let metrics: Vec<(&str, String)> = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { v } else { 0.0 };
            (name, format!("{{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_object(&metrics)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("davbench: {e}");
            eprintln!(
                "usage: davbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("davbench: {e}");
        std::process::exit(1);
    }
}
