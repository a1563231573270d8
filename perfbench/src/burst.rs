//! `burst_drain`: a closed loop over bursts of near-empty tasks.
//!
//! The application thread acts as core 0 of `presets::kwak()`. Each burst
//! is a seeded 16–1024 tasks — straddling `MAX_BATCH` (256) and
//! `DEFAULT_SPILL_THRESHOLD` (512) — with a seeded QoS class mix (see
//! `pick_class`) and a seeded mix of per-core (`on_core(0)`, cpuset 0..4),
//! NUMA-wide and global placements (see `pick_placement`). The application drains the burst with `schedule(0)` while
//! the core-1 worker steals; the next burst starts when every task has
//! run. Submit, lane push, batch drain, steal-half, socket spill/claim and
//! the adaptive budget do nearly all the work.

use crate::report::Outcome;
use crate::stats::{elapsed_ns, Segments, Spans};
use crate::{Fault, Progress, Rig, RunConfig, SetupTimes, StatsWindow, FAULT_AT, SEGMENTS};
use piom_des::rng::SplitMix64;
use pioman::{CpuSet, TaskClass, TaskHandle, TaskManager, TaskStatus};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Smallest and largest burst.
pub const BURST_MIN: u64 = 16;
/// See [`BURST_MIN`].
pub const BURST_MAX: u64 = 1024;

/// Untimed bursts before measuring.
const WARMUP: u64 = 20;

/// Where a task is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Home on core 0's queue, runnable on NUMA node 0 (stealable).
    PerCore,
    /// NUMA node 0's queue.
    Numa,
    /// The Global Queue.
    Global,
}

/// Seeded class, in the split of the `rpc_mesh_qos` scenarios
/// (`crates/scenarios`): 2/8 Urgent, 3/8 Interactive, 2/8 Bulk,
/// 1/8 Background.
fn pick_class(rng: &mut SplitMix64) -> TaskClass {
    match rng.next_below(8) {
        0 | 1 => TaskClass::Urgent,
        2..=4 => TaskClass::Interactive,
        5 | 6 => TaskClass::Bulk,
        _ => TaskClass::Background,
    }
}

/// Seeded placement: 3/4 per-core, 1/8 NUMA-wide, 1/8 global.
///
/// An assumption: neither the paper nor the repository gives a placement
/// mix. The per-core share is what decides whether the spill tier is
/// reached at all: core 0's queue spills at `DEFAULT_SPILL_THRESHOLD`
/// (512) tasks, so the share must exceed 512 / [`BURST_MAX`] = 1/2. At
/// 3/4 the bursts above ~680 tasks (a third) can spill, less what the
/// worker steals meanwhile; the rest is split evenly between the
/// NUMA-wide and global queues.
fn pick_placement(rng: &mut SplitMix64) -> Placement {
    match rng.next_below(8) {
        0..=5 => Placement::PerCore,
        6 => Placement::Numa,
        _ => Placement::Global,
    }
}

/// State the bodies of one burst write.
struct Shared {
    /// Runs per task slot of the current burst.
    runs: Vec<AtomicU32>,
    /// Bodies started in the current burst.
    started: AtomicUsize,
    /// Body time (traced runs only), ns.
    body_ns: AtomicU64,
}

/// Per-layer spans of a traced phase.
#[derive(Default)]
struct Trace {
    spawn: Spans,
    schedule: Spans,
}

/// The closed-loop client.
struct Client {
    mgr: Arc<TaskManager>,
    rng: SplitMix64,
    shared: Arc<Shared>,
    fault: Fault,
    next_task: u64,
    attempted: u64,
    failed: u64,
    trace: Option<Trace>,
    handles: Vec<TaskHandle>,
}

impl Client {
    /// Runs one burst to completion; returns `(tasks, latency ns)`.
    fn burst(&mut self, progress: &Progress) -> (u64, u64) {
        let n = BURST_MIN + self.rng.next_below(BURST_MAX - BURST_MIN + 1);
        let traced = self.trace.is_some();
        self.attempted += n;
        progress.attempt(n);
        self.shared.started.store(0, Ordering::Relaxed);
        self.handles.clear();
        let t0 = Instant::now();
        for slot in 0..n as usize {
            let id = self.next_task;
            self.next_task += 1;
            let fault = if id == FAULT_AT {
                self.fault
            } else {
                Fault::None
            };
            let shared = self.shared.clone();
            let mut spec = self
                .mgr
                .task(move |_| {
                    let t = traced.then(Instant::now);
                    shared.started.fetch_add(1, Ordering::Release);
                    shared.runs[slot].fetch_add(1, Ordering::Relaxed);
                    assert!(fault != Fault::PanicOnce, "planted fault: task body panics");
                    if let Some(t) = t {
                        shared.body_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
                    }
                    TaskStatus::Done
                })
                .class(pick_class(&mut self.rng));
            spec = match pick_placement(&mut self.rng) {
                Placement::PerCore => spec.cpuset(CpuSet::range(0..4)).on_core(0),
                Placement::Numa => spec.cpuset(CpuSet::range(0..4)),
                Placement::Global => spec,
            };
            if fault == Fault::LoseTask {
                // Built, never spawned: the burst never drains.
                self.handles.push(spec.handle());
                continue;
            }
            let h = match &mut self.trace {
                Some(t) => t.spawn.time(|| spec.spawn(), |_| true),
                None => spec.spawn(),
            };
            self.handles.push(h);
        }
        while self.shared.started.load(Ordering::Acquire) < n as usize {
            match &mut self.trace {
                Some(t) => t.schedule.time(|| self.mgr.schedule(0), |&ran| ran),
                None => self.mgr.schedule(0),
            };
        }
        let resolved: Vec<bool> = self.handles.iter().map(|h| h.wait().is_ok()).collect();
        let latency = elapsed_ns(t0);
        let mut bad = 0;
        for (runs, ok) in self.shared.runs.iter().zip(resolved) {
            bad += u64::from(runs.swap(0, Ordering::Relaxed) != 1 || !ok);
        }
        self.failed += bad;
        progress.verify(n - bad);
        (n, latency)
    }
}

/// Runs `burst_drain`.
pub fn run(cfg: &RunConfig, progress: &Progress) -> Outcome {
    let (mut rig, mut setup) = Rig::setup();
    let mut out = Outcome {
        threads: 2,
        ..Outcome::default()
    };
    let mut client = Client {
        mgr: rig.mgr.clone(),
        rng: SplitMix64::new(cfg.seed),
        shared: Arc::new(Shared {
            runs: (0..BURST_MAX).map(|_| AtomicU32::new(0)).collect(),
            started: AtomicUsize::new(0),
            body_ns: AtomicU64::new(0),
        }),
        fault: cfg.fault,
        next_task: 0,
        attempted: 0,
        failed: 0,
        trace: None,
        handles: Vec::with_capacity(BURST_MAX as usize),
    };
    let whole = StatsWindow::open(&rig);
    for _ in 0..WARMUP {
        client.burst(progress);
    }
    let phase = |client: &mut Client, setup: &mut SetupTimes, seconds| {
        Segments::measure(
            seconds,
            SEGMENTS,
            |lat| {
                let (n, ns) = client.burst(progress);
                lat.push(ns);
                n
            },
            || Rig::sample_setup(setup),
        )
    };
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = phase(&mut client, &mut setup, untraced_s);
    let traced = cfg.trace.then(|| {
        client.trace = Some(Trace::default());
        let layer = StatsWindow::open(&rig);
        let seg = phase(&mut client, &mut setup, cfg.seconds / 2.0);
        layer.close(&rig, seg.ops(), true, &mut out);
        seg
    });
    let (submitted, executed) = whole.close(&rig, client.attempted, false, &mut out);
    rig.shutdown();

    out.attempted = client.attempted;
    out.failed += client.failed;
    for (name, got) in [("stats_submitted", submitted), ("stats_executed", executed)] {
        out.check(
            name,
            got == client.attempted,
            format!(
                "ManagerStats delta {got}, benchmark count {}",
                client.attempted
            ),
        );
    }
    crate::report_setup(&mut out, &setup);
    crate::report_phases(&mut out, &untraced, traced.as_ref());
    if let Some(mut t) = client.trace.take() {
        let s = &mut t.spawn;
        out.set("pioman.spawn.calls", s.calls() as f64, s.calls());
        out.set("pioman.spawn.p50_ns", s.percentile(0.5), s.kept());
        out.set("pioman.spawn.p99_ns", s.percentile(0.99), s.kept());
        out.set("pioman.spawn.busy_s", s.busy_s(), s.calls());
        let s = &mut t.schedule;
        out.set("pioman.schedule.calls", s.calls() as f64, s.calls());
        out.set("pioman.schedule.useful_frac", s.useful_frac(), s.calls());
        out.set("pioman.schedule.p50_ns", s.percentile(0.5), s.kept());
        out.set("pioman.schedule.busy_s", s.busy_s(), s.calls());
        let body_ns = client.shared.body_ns.load(Ordering::Relaxed);
        out.set("body.busy_s", body_ns as f64 * 1e-9, t.spawn.calls());
    }
    out.finish();
    out
}
