//! Facts about the process and the host, read from `/proc` and the
//! filesystem: CPU time, peak memory, the data directory's filesystem,
//! bytes allocated, and a fixed reference kernel that tracks how fast
//! the host itself is running.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included (exited ones too). Resolution 10 ms.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// CPU seconds the hypervisor has stolen from this host's vCPUs since
/// boot (the `steal` column of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// Peak resident set (VmHWM), MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Bytes allocated to every file under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(m) = e.metadata() else { continue };
            total += m.blocks() * 512;
            if m.is_dir() {
                stack.push(e.path());
            }
        }
    }
    total
}

/// A fixed compute-plus-memcpy kernel: median of 7 timings, ms. It does
/// not touch the system under test, so a shift in it between runs is
/// the host's speed moving, not a regression.
pub fn host_ref_ms() -> f64 {
    let src: Vec<u8> = crate::gen::bytes(7, 8 << 20);
    let mut dst = vec![0u8; src.len()];
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..4 {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
            let mut rng = crate::gen::Rng::new(black_box(1));
            let mut acc = 0u64;
            for _ in 0..(1 << 21) {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}

/// Flush the dirty pages of the filesystem holding `dir` (`syncfs`),
/// waiting until the flush has finished.
pub fn sync_fs(dir: &Path) {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status();
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, when the working directory is the top of a
/// git work tree.
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a digest of every file under `crates/` (paths sorted): names
/// the code under test where no commit id is available.
pub fn source_digest() -> String {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let data = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(data) {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x}")
}
