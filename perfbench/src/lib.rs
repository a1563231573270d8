//! End-to-end and per-layer benchmark of the PIOMan reproduction.
//!
//! Three seeded workloads drive the public API the way a communication
//! library does (see `README.md` for why each was chosen):
//!
//! * [`offload`] — `offload_rpc`: one client offloads request / poll /
//!   completion chores to a progression worker and blocks until done;
//! * [`burst`] — `burst_drain`: bursts of 16–1024 near-empty tasks drained
//!   by the application core while the worker steals;
//! * [`newmad_mix`] — two NewMadeleine engines on a simulated 2-rail
//!   fabric with a window of in-flight messages of mixed sizes.
//!
//! The benchmark measures from outside: it times the calls it makes into
//! public functions and stamps its own task bodies. Untraced runs report
//! the end-to-end catalogue, traced runs the per-layer one; both are read
//! from `BENCHMARK.json` ([`report::end_to_end`], [`report::per_layer`]).

pub mod burst;
pub mod newmad_mix;
pub mod offload;
pub mod report;
pub mod stats;

use pioman::{Progression, ProgressionConfig, TaskManager};
use stats::{elapsed_ns, median};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A deliberately planted fault, used by the benchmark's own tests to prove
/// the correctness checks are live. Real runs use [`Fault::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// One task body panics once (`offload_rpc`, `burst_drain`).
    PanicOnce,
    /// One poll task repeats once more than its seeded count
    /// (`offload_rpc`).
    ExtraAgain,
    /// One task is built but never spawned, so its operation never
    /// completes and the run hits its time limit (`offload_rpc`,
    /// `burst_drain`).
    LoseTask,
    /// One message is sent with one payload byte flipped (`newmad_mix`).
    CorruptByte,
}

impl Fault {
    /// Parses the `--fault` argument.
    pub fn parse(s: &str) -> Option<Fault> {
        Some(match s {
            "none" => Fault::None,
            "panic-once" => Fault::PanicOnce,
            "extra-again" => Fault::ExtraAgain,
            "lose-task" => Fault::LoseTask,
            "corrupt-byte" => Fault::CorruptByte,
            _ => return None,
        })
    }
}

/// Index of the operation a planted fault hits (past the warm-up).
pub const FAULT_AT: u64 = 2_500;

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (a traced run spends half untraced, half traced).
    pub seconds: f64,
    /// Traced run: per-layer spans and counters.
    pub trace: bool,
    /// Planted fault.
    pub fault: Fault,
}

/// Progress shared with the watchdog, so a run that hits its time limit
/// can still report what it attempted and what was verified.
#[derive(Debug, Default)]
pub struct Progress {
    attempted: AtomicU64,
    verified: AtomicU64,
}

impl Progress {
    /// Counts `n` operations started.
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` operations that passed their checks.
    pub fn verify(&self, n: u64) {
        self.verified.fetch_add(n, Ordering::Relaxed);
    }

    /// `(attempted, verified)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.verified.load(Ordering::Relaxed),
        )
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`offload`].
    OffloadRpc,
    /// See [`burst`].
    BurstDrain,
    /// See [`newmad_mix`].
    NewmadMix,
}

impl Workload {
    /// All workloads, in catalogue order.
    pub const ALL: [Workload; 3] = [
        Workload::OffloadRpc,
        Workload::BurstDrain,
        Workload::NewmadMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OffloadRpc => "offload_rpc",
            Workload::BurstDrain => "burst_drain",
            Workload::NewmadMix => "newmad_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload.
    pub fn run(self, cfg: &RunConfig, progress: &Progress) -> report::Outcome {
        match self {
            Workload::OffloadRpc => offload::run(cfg, progress),
            Workload::BurstDrain => burst::run(cfg, progress),
            Workload::NewmadMix => newmad_mix::run(cfg, progress),
        }
    }
}

/// Segments each timed phase is cut into (see [`stats::Segments`]).
pub const SEGMENTS: usize = 30;

/// Set-ups in one batch of [`SetupTimes`].
pub const SETUP_BATCH: usize = 32;

/// Set-up timings, kept per batch of set-ups.
///
/// On the 2-vCPU host this benchmark was sized on, the cost of one set-up
/// follows the host's speed, which switches between modes every few
/// hundred milliseconds and drifts over minutes (`TaskManager::new` takes
/// ~90 µs in a fast mode and ~130–180 µs in slow ones), so a few set-ups
/// timed back to back read whichever mode the run started in. A run
/// therefore times a batch of set-ups before the workload starts and
/// another after every measured segment (or round), spreading them over
/// the whole run; each batch gives its median, and a metric is the median
/// of the batch medians.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Median set-up time per batch, s.
    pub setup: Vec<f64>,
    /// Median `Progression::start` time per batch, s.
    pub start: Vec<f64>,
    /// Median `Progression::shutdown` time per batch, s.
    pub shutdown: Vec<f64>,
    /// Set-ups timed over all batches.
    pub count: u64,
}

impl SetupTimes {
    /// The median of the batch medians `v`.
    pub fn estimate(v: &[f64]) -> f64 {
        median(v)
    }
}

/// The core the single progression worker runs on.
pub const WORKER_CORE: usize = 1;

/// A task manager on `presets::kwak()` with one progression worker on
/// [`WORKER_CORE`] and no timer thread: the set-up both pioman workloads
/// share.
pub struct Rig {
    /// The manager.
    pub mgr: Arc<TaskManager>,
    /// The running worker.
    pub prog: Progression,
}

impl Rig {
    /// Builds a rig once; returns it with its set-up and
    /// `Progression::start` times in seconds.
    fn build() -> (Rig, f64, f64) {
        let t0 = Instant::now();
        let mgr = TaskManager::new(pioman::presets::kwak().into());
        let t1 = Instant::now();
        let config = ProgressionConfig {
            timer_period: None,
            ..ProgressionConfig::for_cores(vec![WORKER_CORE])
        };
        let prog = Progression::start(mgr.clone(), config);
        let start = elapsed_ns(t1) as f64 * 1e-9;
        let setup = elapsed_ns(t0) as f64 * 1e-9;
        (Rig { mgr, prog }, setup, start)
    }

    /// Builds a batch of [`SETUP_BATCH`] rigs into `times`, shutting all
    /// but the last down; returns the last.
    fn batch(times: &mut SetupTimes) -> Rig {
        let (mut setup, mut start, mut shutdown) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let (mut rig, s, st) = Rig::build();
            setup.push(s);
            start.push(st);
            if setup.len() == SETUP_BATCH {
                times.setup.push(median(&setup));
                times.start.push(median(&start));
                times.shutdown.push(median(&shutdown));
                times.count += SETUP_BATCH as u64;
                return rig;
            }
            shutdown.push(rig.shutdown());
        }
    }

    /// Builds the rig a workload runs on, timing the first batch of
    /// set-ups on the way.
    pub fn setup() -> (Rig, SetupTimes) {
        let mut times = SetupTimes::default();
        let rig = Rig::batch(&mut times);
        (rig, times)
    }

    /// Times one more batch of set-ups, shutting every rig it builds down.
    pub fn sample_setup(times: &mut SetupTimes) {
        Rig::batch(times).shutdown();
    }

    /// Stops the worker; returns the seconds it took.
    pub fn shutdown(&mut self) -> f64 {
        let t0 = Instant::now();
        self.prog.shutdown();
        elapsed_ns(t0) as f64 * 1e-9
    }
}

/// Counter deltas of the manager over a window.
pub struct StatsWindow {
    before: pioman::ManagerStats,
    idle_before: u64,
}

impl StatsWindow {
    /// Opens a window on `rig`.
    pub fn open(rig: &Rig) -> Self {
        StatsWindow {
            before: rig.mgr.stats(),
            idle_before: rig.prog.idle_loops(),
        }
    }

    /// Closes the window: `(submitted, executed)` deltas, and the
    /// scheduling counters written into `out` when `per_layer` is set.
    pub fn close(
        &self,
        rig: &Rig,
        ops: u64,
        per_layer: bool,
        out: &mut report::Outcome,
    ) -> (u64, u64) {
        let a = &self.before;
        let b = rig.mgr.stats();
        let d = |f: fn(&pioman::ManagerStats) -> u64| f(&b).saturating_sub(f(a));
        let submitted = d(|s| s.total_submitted());
        let executed = d(|s| s.total_executed());
        if per_layer {
            use stats::ratio;
            let stolen = d(|s| s.total_stolen());
            let batches = d(|s| s.total_steal_batches());
            let attempts = d(|s| s.steal_attempts_by_core.iter().sum());
            let hits = d(|s| s.total_park_probe_hits());
            let misses = d(|s| s.total_park_probe_misses());
            let lock_acq = d(|s| s.queues.iter().map(|q| q.lock_acquisitions).sum());
            let lock_cont = d(|s| s.queues.iter().map(|q| q.lock_contended).sum());
            let f = |x: u64| x as f64;
            out.set(
                "pioman.stolen_frac",
                ratio(f(stolen), f(executed)),
                executed,
            );
            out.set(
                "pioman.steal_batch_mean",
                ratio(f(stolen), f(batches)),
                batches,
            );
            out.set(
                "pioman.steal_hit_frac",
                ratio(f(batches), f(attempts)),
                attempts,
            );
            out.set(
                "pioman.spilled_frac",
                ratio(f(d(|s| s.total_spilled())), f(submitted)),
                submitted,
            );
            out.set("pioman.claimed", f(d(|s| s.total_claimed())), 1);
            out.set(
                "pioman.lock_contended_frac",
                ratio(f(lock_cont), f(lock_acq)),
                lock_acq,
            );
            out.set(
                "pioman.park_probe_hit_frac",
                ratio(f(hits), f(hits + misses)),
                hits + misses,
            );
            out.set(
                "pioman.wakeups_for_steal",
                f(d(|s| s.total_wakeups_for_steal())),
                1,
            );
            out.set(
                "pioman.waitlist_released",
                f(d(|s| s.total_waitlist_released())),
                1,
            );
            let idle = rig.prog.idle_loops().saturating_sub(self.idle_before);
            out.set("progression.idle_loops_per_op", ratio(f(idle), f(ops)), ops);
        }
        (submitted, executed)
    }
}

/// Writes the set-up metrics of a pioman workload.
pub fn report_setup(out: &mut report::Outcome, times: &SetupTimes) {
    let est = SetupTimes::estimate;
    out.set("setup_s", est(&times.setup), times.count);
    out.set("progression.start_s", est(&times.start), times.count);
    out.set("progression.shutdown_s", est(&times.shutdown), times.count);
}

/// Writes the end-to-end rate and latency metrics of a phase, and, for a
/// traced run, the overhead of tracing against the untraced phase.
pub fn report_phases(
    out: &mut report::Outcome,
    untraced: &stats::Segments,
    traced: Option<&stats::Segments>,
) {
    let n = untraced.samples();
    let rate = untraced.rate();
    let p50 = untraced.latency(0);
    out.set("ops_per_s", rate, untraced.ops());
    out.set("latency_p50_us", p50 * 1e-3, n);
    out.set("latency_p90_us", untraced.latency(1) * 1e-3, n);
    out.set("latency_p99_us", untraced.latency(2) * 1e-3, n);
    if let Some(t) = traced {
        out.set(
            "trace.ops_per_s_overhead_frac",
            stats::ratio(rate - t.rate(), rate),
            t.ops(),
        );
        out.set(
            "trace.latency_p50_overhead_frac",
            stats::ratio(t.latency(0) - p50, p50),
            t.samples(),
        );
    }
}
