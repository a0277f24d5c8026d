//! The measured phase: a closed loop of seeded ops on every connection
//! for a fixed time, cut into windows of [`WINDOW_S`].
//!
//! The host is a shared VM. When the hypervisor gives its CPUs to other
//! guests (steal time), every op of ours slows down together, and a run
//! that lands on such a burst reads 20–40 % slow. The reported figures
//! therefore come from the half of the windows with the least steal,
//! chosen by the hypervisor's own count and never by our figures.

use crate::gen::{Dataset, Op};
use crate::layers::{self, LayerSums};
use crate::probe;
use crate::rig::Rig;
use crate::stats;
use crate::work::{Expected, State, Worker};
use pse_obs::Snapshot;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Length of one window, s.
pub const WINDOW_S: f64 = 2.0;

/// One completed op.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion, ns after the phase started.
    done_ns: u64,
    /// Send to reply parsed and checked.
    lat_ns: u64,
    /// User payload moved; 0 when the op failed.
    payload: u64,
}

/// Process CPU, server wire bytes and host steal at a window boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at_ns: u64,
    cpu_s: f64,
    wire: u64,
    steal_s: f64,
}

#[derive(Debug, Default)]
pub struct Phase {
    samples: Vec<Sample>,
    marks: Vec<Mark>,
    pub failed: u64,
    /// Registry change over the whole phase.
    pub registry: Snapshot,
    pub layers: LayerSums,
    pub first_error: Option<String>,
}

/// Figures over the calm windows of a phase.
#[derive(Debug, Default)]
pub struct Calm {
    /// Latencies of the ops completed in the calm windows, ascending.
    pub lat_ns: Vec<u64>,
    pub payload: u64,
    pub secs: f64,
    /// Process CPU seconds, client and server.
    pub cpu_s: f64,
    pub wire: u64,
    pub windows: usize,
    /// Share of the host's CPU time stolen in the calm windows, %.
    pub steal_pct: f64,
}

impl Calm {
    pub fn ops(&self) -> f64 {
        self.lat_ns.len() as f64
    }

    /// Latency quantile `q`, ms, and the samples beyond it.
    pub fn quantile_ms(&self, q: f64) -> (f64, usize) {
        (
            stats::quantile(&self.lat_ns, q) as f64 / 1e6,
            stats::beyond(self.lat_ns.len(), q),
        )
    }
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Share of the host's CPU time stolen in each window, %.
    pub fn window_steal_pct(&self) -> Vec<f64> {
        let cpus = probe::nproc() as f64;
        self.marks
            .windows(2)
            .map(|w| {
                let secs = (w[1].at_ns - w[0].at_ns) as f64 / 1e9;
                (w[1].steal_s - w[0].steal_s) / (secs * cpus) * 100.0
            })
            .collect()
    }

    /// The half of the windows (rounded up) with the least steal, the
    /// earlier window first on a tie.
    pub fn calm(&self) -> Calm {
        let steal = self.window_steal_pct();
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        let mut calm = Calm {
            windows: steal.len().div_ceil(2),
            ..Calm::default()
        };
        let mut stolen = 0.0;
        for &i in &order[..calm.windows] {
            let (a, b) = (self.marks[i], self.marks[i + 1]);
            for s in self
                .samples
                .iter()
                .filter(|s| (a.at_ns..b.at_ns).contains(&s.done_ns))
            {
                calm.lat_ns.push(s.lat_ns);
                calm.payload += s.payload;
            }
            calm.secs += (b.at_ns - a.at_ns) as f64 / 1e9;
            calm.cpu_s += b.cpu_s - a.cpu_s;
            calm.wire += b.wire - a.wire;
            stolen += b.steal_s - a.steal_s;
        }
        calm.lat_ns.sort_unstable();
        calm.steal_pct = stolen / (calm.secs * probe::nproc() as f64) * 100.0;
        calm
    }
}

fn wire_bytes(s: &Snapshot) -> u64 {
    s.counter("http.bytes_in") + s.counter("http.bytes_out")
}

/// Run `ds`'s ops for `seconds` on the workload's connections. With
/// `traced`, each op's layer calls are replayed after its timed wire
/// trip.
pub fn measure(
    rig: &Rig,
    ds: &Dataset,
    exp: &Expected,
    pool: &[Vec<u8>],
    state: &mut State,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let n = ds.shape.connections;
    let windows = (seconds / WINDOW_S).round().max(1.0) as u32;
    let barrier = Barrier::new(n + 1);
    let start: OnceLock<Instant> = OnceLock::new();
    let registry = rig.handler.registry();
    let names = ds.named_props();
    let (before, marks, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let (barrier, start, names, state) = (&barrier, &start, &names, state.clone());
                s.spawn(move || -> Result<(Phase, State), String> {
                    let mut w = Worker {
                        ds: *ds,
                        exp,
                        pool,
                        client: rig.connect()?,
                        names: names.clone(),
                        state,
                    };
                    let mut ops = ds.ops(t, n);
                    let mut p = Phase::default();
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    let deadline = start + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let op: Op = ops.next().expect("op streams are endless");
                        let inputs = w.prepare(op);
                        let replay_inputs = traced.then(|| inputs.clone());
                        let t0 = Instant::now();
                        let r = w.run(op, inputs);
                        let lat_ns = t0.elapsed().as_nanos() as u64;
                        let mut sample = Sample {
                            done_ns: (t0 - start).as_nanos() as u64 + lat_ns,
                            lat_ns,
                            payload: 0,
                        };
                        let r = r.and_then(|payload| {
                            sample.payload = payload;
                            match &replay_inputs {
                                Some(inputs) => layers::replay(
                                    &rig.handler,
                                    ds,
                                    names,
                                    op,
                                    inputs,
                                    lat_ns,
                                    &mut p.layers,
                                ),
                                None => Ok(()),
                            }
                        });
                        p.samples.push(sample);
                        if let Err(e) = r {
                            p.failed += 1;
                            p.first_error.get_or_insert(e);
                        }
                    }
                    Ok((p, w.state))
                })
            })
            .collect();
        let before = registry.snapshot();
        let mark = |at_ns: u64| Mark {
            at_ns,
            cpu_s: probe::cpu_seconds(),
            wire: wire_bytes(&registry.snapshot()),
            steal_s: probe::steal_seconds(),
        };
        let mut marks = vec![mark(0)];
        barrier.wait();
        let start = *start.get_or_init(Instant::now);
        for k in 1..windows {
            let at = Duration::from_secs_f64(WINDOW_S * f64::from(k));
            std::thread::sleep((start + at).saturating_duration_since(Instant::now()));
            marks.push(mark(at.as_nanos() as u64));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        // The last window closes when the last in-flight op has.
        marks.push(mark(start.elapsed().as_nanos() as u64 + 1));
        (before, marks, results)
    });
    let mut phase = Phase {
        marks,
        registry: registry.snapshot().delta(&before),
        ..Phase::default()
    };
    for (t, r) in results.into_iter().enumerate() {
        let (p, st) = r?;
        phase.samples.extend(p.samples);
        phase.failed += p.failed;
        phase.layers.add(&p.layers);
        if phase.first_error.is_none() {
            phase.first_error = p.first_error;
        }
        // Threads own disjoint docs (doc % n == t): take each doc's
        // state from its owner.
        for doc in (t..ds.docs()).step_by(n) {
            state.versions[doc] = st.versions[doc];
            state.slots[doc] = st.slots[doc];
        }
    }
    if phase.calm().lat_ns.is_empty() {
        return Err("no op completed in the measured phase".into());
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_keeps_the_least_stolen_half() {
        let mark = |s: u64, steal_s: f64| Mark {
            at_ns: s * 1_000_000_000,
            cpu_s: s as f64,
            wire: s * 10,
            steal_s,
        };
        // Three 1 s windows stealing 0.2 s, 0 s and 1 s.
        let phase = Phase {
            marks: vec![mark(0, 0.0), mark(1, 0.2), mark(2, 0.2), mark(3, 1.2)],
            samples: [(500, 7), (1500, 3), (1600, 4), (2500, 9)]
                .map(|(ms, lat)| Sample {
                    done_ns: ms * 1_000_000,
                    lat_ns: lat,
                    payload: 1,
                })
                .to_vec(),
            ..Phase::default()
        };
        let calm = phase.calm();
        assert_eq!(calm.windows, 2);
        assert_eq!(calm.lat_ns, vec![3, 4, 7]);
        assert_eq!(
            (calm.payload, calm.secs, calm.cpu_s, calm.wire),
            (3, 2.0, 2.0, 20)
        );
        let want = 0.2 / (2.0 * probe::nproc() as f64) * 100.0;
        assert!((calm.steal_pct - want).abs() < 1e-9, "{}", calm.steal_pct);
    }
}
