//! `offload_rpc`: the paper's offload pattern as a closed loop with one
//! client.
//!
//! On `presets::kwak()` with one progression worker on core 1, the
//! application thread submits each request as three tasks — a request
//! task, a `.repeat()` poll task that returns `Again` a seeded 1–4 times,
//! and an `Urgent` completion task `.after()` the poll — then blocks in
//! `TaskHandle::wait()` until the completion finishes. Queues stay at most
//! three deep, so latency comes from park/wake, the hierarchy scan, repeat
//! re-enqueue, waitlist release and completion publish.

use crate::report::Outcome;
use crate::stats::{elapsed_ns, percentile, ratio, Segments, Spans};
use crate::{Fault, Progress, Rig, RunConfig, StatsWindow, FAULT_AT, SEGMENTS};
use piom_des::rng::SplitMix64;
use pioman::{CpuSet, SubmitSpec, TaskClass, TaskHandle, TaskManager, TaskStatus};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Untimed requests before measuring.
const WARMUP: u64 = 2_000;

/// Which of a request's three tasks a body run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Request,
    Poll,
    Completion,
}

/// One body run, in ns since the client's base instant.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: Kind,
    start: u64,
    end: u64,
}

/// Per-request state the three bodies write and the client checks.
struct Slot {
    request_runs: AtomicU32,
    poll_runs: AtomicU32,
    completion_runs: AtomicU32,
    poll_done: AtomicBool,
    /// The completion body saw the poll's `Done` before it ran.
    ordered: AtomicBool,
    /// Body stamps (traced runs only).
    runs: Option<Mutex<Vec<Run>>>,
    base: Instant,
}

impl Slot {
    fn stamp(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn log(&self, kind: Kind, start: u64) {
        if let Some(runs) = &self.runs {
            let end = self.stamp();
            runs.lock()
                .expect("a body panicked while logging")
                .push(Run { kind, start, end });
        }
    }
}

/// Per-layer spans and the request timeline of a traced phase.
#[derive(Default)]
struct Trace {
    spawn: Spans,
    wait: Spans,
    first_body: Vec<u64>,
    handoff: Vec<u64>,
    repoll: Vec<u64>,
    release: Vec<u64>,
    done_to_return: Vec<u64>,
    body_ns: u64,
    latency_ns: u64,
    /// Time inside the client's `spawn` and `wait` calls.
    client_ns: u64,
    /// Body runs that overlap the previous one or fall outside the
    /// request's submit → return window.
    misplaced: u64,
}

impl Trace {
    /// Time inside the client's `spawn` and `wait` calls so far.
    fn client_spans_ns(&self) -> u64 {
        self.spawn.busy_ns() + self.wait.busy_ns()
    }

    /// Splits one request's latency into its timeline gaps and body time.
    /// The gaps are the time between the body stamps, so gaps plus body
    /// time equal the latency by construction; what is checked is that
    /// the stamps are ordered and inside the request's window.
    fn timeline(&mut self, mut runs: Vec<Run>, submit: u64, returned: u64, client_ns: u64) {
        runs.sort_by_key(|r| r.start);
        let mut prev_end = submit;
        let mut polls = 0;
        for (i, r) in runs.iter().enumerate() {
            if r.start < prev_end || r.end > returned {
                self.misplaced += 1;
            }
            let gap = r.start.saturating_sub(prev_end);
            match (i, r.kind) {
                (0, _) => self.first_body.push(gap),
                (_, Kind::Completion) => self.release.push(gap),
                (_, Kind::Poll) if polls > 0 => self.repoll.push(gap),
                _ => self.handoff.push(gap),
            }
            polls += u32::from(r.kind == Kind::Poll);
            self.body_ns += r.end - r.start;
            prev_end = r.end;
        }
        self.done_to_return.push(returned.saturating_sub(prev_end));
        self.latency_ns += returned - submit;
        self.client_ns += client_ns;
    }
}

/// The single closed-loop client.
struct Client {
    mgr: Arc<TaskManager>,
    rng: SplitMix64,
    base: Instant,
    fault: Fault,
    next_id: u64,
    attempted: u64,
    failed: u64,
    expected_submitted: u64,
    expected_executed: u64,
    trace: Option<Trace>,
}

/// The request's tasks may run on NUMA node 0; only core 1 has a worker.
fn numa0() -> CpuSet {
    CpuSet::range(0..4)
}

fn spawn(trace: &mut Option<Trace>, spec: SubmitSpec<'_>) -> TaskHandle {
    match trace {
        Some(t) => t.spawn.time(|| spec.spawn(), |_| true),
        None => spec.spawn(),
    }
}

impl Client {
    /// Runs one request to completion; returns its latency in ns.
    fn request(&mut self, progress: &Progress) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let polls_again = 1 + self.rng.next_below(4) as u32;
        let fault = if id == FAULT_AT {
            self.fault
        } else {
            Fault::None
        };
        let again_limit = polls_again + u32::from(fault == Fault::ExtraAgain);
        self.attempted += 1;
        progress.attempt(1);
        self.expected_submitted += 3;
        self.expected_executed += 1 + u64::from(polls_again) + 1 + 1;

        let slot = Arc::new(Slot {
            request_runs: AtomicU32::new(0),
            poll_runs: AtomicU32::new(0),
            completion_runs: AtomicU32::new(0),
            poll_done: AtomicBool::new(false),
            ordered: AtomicBool::new(false),
            runs: self
                .trace
                .as_ref()
                .map(|_| Mutex::new(Vec::with_capacity(8))),
            base: self.base,
        });
        let spans_before = self.trace.as_ref().map_or(0, Trace::client_spans_ns);
        let t0 = Instant::now();
        let s = slot.clone();
        let request = self.mgr.task(move |_| {
            let start = s.stamp();
            assert!(
                fault != Fault::PanicOnce,
                "planted fault: request body panics"
            );
            s.request_runs.fetch_add(1, Ordering::Relaxed);
            s.log(Kind::Request, start);
            TaskStatus::Done
        });
        let h_request = spawn(&mut self.trace, request.cpuset(numa0()));
        let s = slot.clone();
        let poll = self
            .mgr
            .task(move |_| {
                let start = s.stamp();
                let n = s.poll_runs.fetch_add(1, Ordering::Relaxed) + 1;
                let status = if n <= again_limit {
                    TaskStatus::Again
                } else {
                    s.poll_done.store(true, Ordering::Release);
                    TaskStatus::Done
                };
                s.log(Kind::Poll, start);
                status
            })
            .cpuset(numa0())
            .repeat();
        let h_poll = if fault == Fault::LoseTask {
            // Built, never spawned: the completion waits on it forever.
            poll.handle()
        } else {
            spawn(&mut self.trace, poll)
        };
        let s = slot.clone();
        let completion = self
            .mgr
            .task(move |_| {
                let start = s.stamp();
                s.completion_runs.fetch_add(1, Ordering::Relaxed);
                s.ordered
                    .store(s.poll_done.load(Ordering::Acquire), Ordering::Relaxed);
                s.log(Kind::Completion, start);
                TaskStatus::Done
            })
            .cpuset(numa0())
            .class(TaskClass::Urgent)
            .after(&h_poll);
        let h_completion = spawn(&mut self.trace, completion);
        let done = match &mut self.trace {
            Some(t) => t.wait.time(|| h_completion.wait(), |_| true),
            None => h_completion.wait(),
        };
        let latency = elapsed_ns(t0);

        let ok = done.is_ok()
            && h_request.wait().is_ok()
            && h_poll.wait().is_ok()
            && slot.request_runs.load(Ordering::Relaxed) == 1
            && slot.poll_runs.load(Ordering::Relaxed) == polls_again + 1
            && slot.completion_runs.load(Ordering::Relaxed) == 1
            && slot.ordered.load(Ordering::Relaxed);
        if ok {
            progress.verify(1);
        } else {
            self.failed += 1;
        }
        if let (Some(t), Some(runs)) = (&mut self.trace, &slot.runs) {
            let runs = std::mem::take(&mut *runs.lock().expect("bodies finished"));
            let submit = t0.duration_since(self.base).as_nanos() as u64;
            let client_ns = t.client_spans_ns() - spans_before;
            t.timeline(runs, submit, submit + latency, client_ns);
        }
        latency
    }
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// first CPU it may run on; returns that CPU.
///
/// `offload_rpc` runs client and worker on one CPU: the worker runs in the
/// hole the blocked client leaves (the paper's CPU-idleness keypoint), and
/// each wake-up is a switch on that CPU. On two CPUs every request would
/// also wait for the hypervisor to wake a halted vCPU, a delay that on a
/// shared host grows several-fold from one minute to the next.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 CPUs; pid 0 is the calling thread.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Runs `offload_rpc`.
pub fn run(cfg: &RunConfig, progress: &Progress) -> Outcome {
    let pinned = pin_to_one_cpu();
    let (mut rig, mut setup) = Rig::setup();
    let mut out = Outcome {
        threads: 2,
        ..Outcome::default()
    };
    out.check(
        "pinned_to_one_cpu",
        pinned.is_some(),
        format!("client and worker share CPU {pinned:?}"),
    );
    let mut client = Client {
        mgr: rig.mgr.clone(),
        rng: SplitMix64::new(cfg.seed),
        base: Instant::now(),
        fault: cfg.fault,
        next_id: 0,
        attempted: 0,
        failed: 0,
        expected_submitted: 0,
        expected_executed: 0,
        trace: None,
    };
    let whole = StatsWindow::open(&rig);
    for _ in 0..WARMUP {
        client.request(progress);
    }
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = Segments::measure(
        untraced_s,
        SEGMENTS,
        |lat| {
            lat.push(client.request(progress));
            1
        },
        || Rig::sample_setup(&mut setup),
    );
    let traced = cfg.trace.then(|| {
        client.trace = Some(Trace::default());
        let layer = StatsWindow::open(&rig);
        let seg = Segments::measure(
            cfg.seconds / 2.0,
            SEGMENTS,
            |lat| {
                lat.push(client.request(progress));
                1
            },
            || Rig::sample_setup(&mut setup),
        );
        layer.close(&rig, seg.ops(), true, &mut out);
        seg
    });
    let (submitted, executed) = whole.close(&rig, client.attempted, false, &mut out);
    rig.shutdown();

    out.attempted = client.attempted;
    out.failed += client.failed;
    out.check(
        "stats_submitted",
        submitted == client.expected_submitted,
        format!(
            "ManagerStats submitted delta {submitted}, benchmark count {}",
            client.expected_submitted
        ),
    );
    out.check(
        "stats_executed",
        executed == client.expected_executed,
        format!(
            "ManagerStats executed delta {executed}, benchmark count {}",
            client.expected_executed
        ),
    );
    crate::report_setup(&mut out, &setup);
    crate::report_phases(&mut out, &untraced, traced.as_ref());
    if let Some(mut t) = client.trace.take() {
        report_trace(&mut out, &mut t);
    }
    out.finish();
    out
}

/// Writes the per-layer metrics of a traced phase.
fn report_trace(out: &mut Outcome, t: &mut Trace) {
    let n = |v: &Vec<u64>| v.len() as u64;
    out.set(
        "pioman.spawn.calls",
        t.spawn.calls() as f64,
        t.spawn.calls(),
    );
    out.set(
        "pioman.spawn.p50_ns",
        t.spawn.percentile(0.5),
        t.spawn.kept(),
    );
    out.set(
        "pioman.spawn.p99_ns",
        t.spawn.percentile(0.99),
        t.spawn.kept(),
    );
    out.set("pioman.spawn.busy_s", t.spawn.busy_s(), t.spawn.calls());
    out.set("pioman.wait.p50_ns", t.wait.percentile(0.5), t.wait.kept());
    out.set("pioman.wait.busy_s", t.wait.busy_s(), t.wait.calls());
    let samples = n(&t.first_body);
    out.set(
        "offload.submit_to_first_body.p50_ns",
        percentile(&mut t.first_body, 0.5),
        samples,
    );
    out.set(
        "offload.submit_to_first_body.p99_ns",
        percentile(&mut t.first_body, 0.99),
        samples,
    );
    for (name, v) in [
        ("offload.handoff_gap.p50_ns", &mut t.handoff),
        ("offload.repoll_gap.p50_ns", &mut t.repoll),
        ("offload.release_gap.p50_ns", &mut t.release),
        ("offload.done_to_return.p50_ns", &mut t.done_to_return),
    ] {
        let samples = n(v);
        out.set(name, percentile(v, 0.5), samples);
    }
    out.set(
        "offload.client_span_coverage",
        ratio(t.client_ns as f64, t.latency_ns as f64),
        samples,
    );
    out.set("body.busy_s", t.body_ns as f64 * 1e-9, samples);
    out.check(
        "timeline_ordered",
        t.misplaced == 0,
        format!(
            "{} body runs overlap the previous one or fall outside submit..return",
            t.misplaced
        ),
    );
    out.check(
        "client_spans_cover_latency",
        t.client_ns as f64 >= (1.0 - CLIENT_SPAN_TOLERANCE) * t.latency_ns as f64,
        format!(
            "spawn + wait spans {} ns vs measured latency {} ns (tolerance {CLIENT_SPAN_TOLERANCE})",
            t.client_ns, t.latency_ns
        ),
    );
}

/// Largest share of the summed request latency the client's `spawn` and
/// `wait` spans may leave uncovered: the client's own code between those
/// calls (building each task with `mgr.task(..)` and its builder calls,
/// cloning its state, reading the clock). That share reads about 5 % on
/// the 2-vCPU host this benchmark was sized on (~1 µs of a ~20 µs
/// request).
pub const CLIENT_SPAN_TOLERANCE: f64 = 0.10;
