//! `newmad_mix`: two NewMadeleine engines on a simulated 2-rail fabric.
//!
//! One thread. Two `CommEngine`s sit on a 2-rail `NetParams::infiniband()`
//! network inside one `Sim`. A fixed window of in-flight messages is kept
//! — a closed loop in simulated time: each receive completion posts the
//! next message — and each engine is polled every 1 µs of simulated time.
//! Every message carries real seeded payload bytes via `isend_bytes`; sizes
//! follow the heavy-tailed law of the `heavy_tail_mix` scenario (see
//! [`sizes`]): mostly under 1 KiB (eager, aggregated), some 1–16 KiB (eager)
//! and a few 16 KiB–2 MiB (rendezvous, striped). No `pioman` code runs
//! here.
//!
//! A *round* sends the whole seeded message list once on a fresh network.
//! Rounds repeat until the time is up; every round of a run must produce
//! the same simulated results and counters (the DES is deterministic), so
//! the `sim_*` metrics are exact for a seed and immune to host noise.

use crate::report::Outcome;
use crate::stats::{elapsed_ns, median, percentile, ratio, Mark, Segments, Spans};
use crate::{Fault, Progress, RunConfig, SetupTimes, FAULT_AT, SEGMENTS, SETUP_BATCH};
use bytes::{Bytes, Rope};
use newmadeleine::{CommEngine, EngineConfig, EngineStats};
use piom_des::rng::SplitMix64;
use piom_des::{Sim, SimTime};
use piom_net::{NetParams, Network};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Messages per round.
pub const MESSAGES: usize = 20_000;
/// Messages in flight at once.
pub const WINDOW: usize = 16;
/// Simulated time between two polls of each engine.
pub const POLL_PERIOD: SimTime = SimTime::from_us(1);
/// Rails of the fabric.
pub const RAILS: usize = 2;
/// Set-ups timed together (see [`sample_setup`]).
const SETUP_GROUP: usize = 16;
/// Size of the seeded buffer every payload is a window of.
const POOL_BYTES: usize = 2 << 20;

/// One message of the plan.
#[derive(Debug, Clone, Copy)]
struct Msg {
    src: usize,
    offset: usize,
    size: usize,
}

/// The seeded inputs of a run: the message list and the payload pool.
pub struct Plan {
    msgs: Vec<Msg>,
    pool: Bytes,
    corrupt: Option<usize>,
}

/// Smallest message size and highest size level: the parameters of the
/// `heavy_tail_mix` scenario (`crates/scenarios`).
const MIN_BYTES: usize = 256;
/// See [`MIN_BYTES`].
const CAP_LEVEL: u32 = 12;

/// The seeded message sizes of one round.
///
/// The size law is that of the `heavy_tail_mix` scenario: a message is at
/// level `k` with probability 2^-(k+1) (the last level, [`CAP_LEVEL`], takes
/// the remaining 2^-12), and its size is uniform in [256·2^k, 256·2^(k+1)).
/// So 3/4 of the messages are under 1 KiB (eager, aggregated), nearly 1/4
/// are 1–16 KiB (eager) and 1/64 are 16 KiB–2 MiB (rendezvous, striped
/// above 32 KiB). Every seed sends each level's expected count (rounded
/// down; level 0 takes the remainder): the seed picks the order and the
/// sizes within a level, so seeds differ in detail but not in the mix. A
/// level drawn per message would send 312 ± 18 rendezvous messages per
/// round and move host time from seed to seed.
fn sizes(rng: &mut SplitMix64) -> Vec<usize> {
    let mut levels: Vec<u32> = (1..=CAP_LEVEL)
        .flat_map(|k| {
            let count = MESSAGES >> (k + u32::from(k < CAP_LEVEL));
            std::iter::repeat_n(k, count)
        })
        .collect();
    levels.resize(MESSAGES, 0);
    for i in (1..levels.len()).rev() {
        levels.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    levels
        .into_iter()
        .map(|k| {
            let base = MIN_BYTES << k;
            base + rng.next_below(base as u64) as usize
        })
        .collect()
}

impl Plan {
    /// Builds the inputs of `seed`.
    pub fn new(seed: u64, fault: Fault) -> Plan {
        let mut rng = SplitMix64::new(seed);
        let pool: Vec<u8> = (0..POOL_BYTES / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        let msgs = sizes(&mut rng)
            .into_iter()
            .map(|size| {
                let src = rng.next_below(2) as usize;
                let offset = rng.next_below((POOL_BYTES - size + 1) as u64) as usize;
                Msg { src, offset, size }
            })
            .collect();
        Plan {
            msgs,
            pool: Bytes::from(pool),
            corrupt: (fault == Fault::CorruptByte).then_some(FAULT_AT as usize),
        }
    }

    /// Payload bytes of one round.
    pub fn bytes(&self) -> u64 {
        self.msgs.iter().map(|m| m.size as u64).sum()
    }

    fn expected(&self, i: usize) -> Bytes {
        let m = self.msgs[i];
        self.pool.slice(m.offset..m.offset + m.size)
    }

    /// What is actually sent: the expected bytes, or a corrupted copy.
    fn payload(&self, i: usize) -> Bytes {
        let data = self.expected(i);
        if self.corrupt != Some(i) {
            return data;
        }
        let mut v = data.to_vec();
        v[0] ^= 0xff;
        Bytes::from(v)
    }
}

/// Spans around the benchmark's engine calls.
#[derive(Default, Clone)]
struct EngineSpans {
    isend: Spans,
    irecv: Spans,
    poll: Spans,
}

/// Simulation-side state of a round.
struct State {
    next: usize,
    completed: usize,
    sent_at: Vec<SimTime>,
    latency_ns: Vec<u64>,
    /// Host clock: round start, per-message post time (ns since start),
    /// and isend→receive-completion latencies.
    host_base: Instant,
    host_sent: Vec<u64>,
    host_latency_ns: Vec<u64>,
    received: Vec<Option<Rope>>,
    polls: u64,
    useful_polls: u64,
    spans: Option<EngineSpans>,
}

/// What a round produced that must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
struct Signature {
    latency_ns: Vec<u64>,
    makespan: SimTime,
    events: u64,
    engine: [EngineStats; 2],
    /// `(packets, bytes)` per rail, summed over both nodes.
    rails: Vec<(u64, u64)>,
    polls: u64,
    useful_polls: u64,
}

/// One round's results.
struct Round {
    sig: Signature,
    host_latency_ns: Vec<u64>,
    run_ns: u64,
    /// Hypervisor steal ticks during the run.
    steal: u64,
    failed: u64,
    spans: Option<EngineSpans>,
}

struct Ctx {
    plan: Rc<Plan>,
    engines: [CommEngine; 2],
    st: RefCell<State>,
}

/// Times `f` into the span picked by `pick` when tracing.
fn timed<T>(
    ctx: &Ctx,
    pick: fn(&mut EngineSpans) -> &mut Spans,
    f: impl FnOnce() -> T,
    useful: impl FnOnce(&T) -> bool,
) -> T {
    if ctx.st.borrow().spans.is_none() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = elapsed_ns(t0);
    let u = useful(&out);
    if let Some(s) = ctx.st.borrow_mut().spans.as_mut() {
        pick(s).record(ns, u);
    }
    out
}

/// Posts message `i`: the receive first, then the send.
fn post(sim: &mut Sim, ctx: &Rc<Ctx>, i: usize) {
    let m = ctx.plan.msgs[i];
    let dst = 1 - m.src;
    {
        let mut st = ctx.st.borrow_mut();
        st.sent_at[i] = sim.now();
        st.host_sent[i] = elapsed_ns(st.host_base);
    }
    let tag = i as u64;
    let rreq = timed(
        ctx,
        |s| &mut s.irecv,
        || ctx.engines[dst].irecv(sim, m.src, tag),
        |_| true,
    );
    let data = ctx.plan.payload(i);
    timed(
        ctx,
        |s| &mut s.isend,
        || ctx.engines[m.src].isend_bytes(sim, dst, tag, data),
        |_| true,
    );
    let c = ctx.clone();
    let req = rreq.clone();
    rreq.on_complete(sim, move |sim| {
        let next = {
            let mut st = c.st.borrow_mut();
            let lat = sim.now() - st.sent_at[i];
            st.latency_ns.push(lat.as_ns());
            let host = elapsed_ns(st.host_base) - st.host_sent[i];
            st.host_latency_ns.push(host);
            st.received[i] = req.payload();
            st.completed += 1;
            let next = (st.next < MESSAGES).then_some(st.next);
            st.next += 1;
            next
        };
        if let Some(j) = next {
            sim.schedule(SimTime::ZERO, move |sim| post(sim, &c, j));
        }
    });
}

/// Polls both engines, then re-arms itself until every message is in.
fn poll_tick(sim: &mut Sim, ctx: Rc<Ctx>) {
    for e in &ctx.engines {
        let did = timed(&ctx, |s| &mut s.poll, || e.poll(sim), |&did| did);
        let mut st = ctx.st.borrow_mut();
        st.polls += 1;
        st.useful_polls += u64::from(did);
    }
    if ctx.st.borrow().completed < MESSAGES {
        sim.schedule(POLL_PERIOD, move |sim| poll_tick(sim, ctx));
    }
}

/// Builds the fabric and both engines: the set-up `setup_s` times.
fn build() -> (Rc<Network>, [CommEngine; 2]) {
    let net = Network::new(2, RAILS, NetParams::infiniband());
    let engines = [
        CommEngine::new(0, net.clone(), EngineConfig::newmadeleine()),
        CommEngine::new(1, net.clone(), EngineConfig::newmadeleine()),
    ];
    (net, engines)
}

/// Sends the whole plan once on a fresh network.
fn round(plan: &Rc<Plan>, traced: bool) -> Round {
    let (net, engines) = build();
    let ctx = Rc::new(Ctx {
        plan: plan.clone(),
        engines,
        st: RefCell::new(State {
            next: WINDOW.min(MESSAGES),
            completed: 0,
            sent_at: vec![SimTime::ZERO; MESSAGES],
            latency_ns: Vec::with_capacity(MESSAGES),
            host_base: Instant::now(),
            host_sent: vec![0; MESSAGES],
            host_latency_ns: Vec::with_capacity(MESSAGES),
            received: vec![None; MESSAGES],
            polls: 0,
            useful_polls: 0,
            spans: traced.then(EngineSpans::default),
        }),
    });
    let mut sim = Sim::new();
    for i in 0..WINDOW.min(MESSAGES) {
        let c = ctx.clone();
        sim.schedule(SimTime::ZERO, move |sim| post(sim, &c, i));
    }
    let c = ctx.clone();
    sim.schedule(SimTime::ZERO, move |sim| poll_tick(sim, c));
    let mark = Mark::now();
    let makespan = sim.run();
    let (run_ns, steal) = mark.end();

    let mut st = ctx.st.borrow_mut();
    let mut failed = (MESSAGES - st.completed) as u64;
    for (i, got) in st.received.iter().enumerate() {
        let ok = got.as_ref().is_some_and(|r| *r == *plan.expected(i));
        failed += u64::from(got.is_some() && !ok);
    }
    let rails = (0..RAILS)
        .map(|r| {
            (0..2).fold((0, 0), |(p, b), node| {
                let nic = net.nic(node, r);
                (p + nic.tx_count(), b + nic.tx_bytes())
            })
        })
        .collect();
    Round {
        sig: Signature {
            latency_ns: std::mem::take(&mut st.latency_ns),
            makespan,
            events: sim.events_executed(),
            engine: [ctx.engines[0].stats(), ctx.engines[1].stats()],
            rails,
            polls: st.polls,
            useful_polls: st.useful_polls,
        },
        host_latency_ns: std::mem::take(&mut st.host_latency_ns),
        run_ns,
        steal,
        failed,
        spans: st.spans.take(),
    }
}

/// Times one batch of set-ups into `times` (see [`SetupTimes`]). One
/// set-up takes about a microsecond, close to the clock's own cost, so
/// each sample of the batch is the mean of [`SETUP_GROUP`] set-ups timed
/// together.
fn sample_setup(times: &mut SetupTimes) {
    let samples: Vec<f64> = (0..SETUP_BATCH)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SETUP_GROUP {
                drop(std::hint::black_box(build()));
            }
            elapsed_ns(t0) as f64 * 1e-9 / SETUP_GROUP as f64
        })
        .collect();
    times.setup.push(median(&samples));
    times.count += (SETUP_BATCH * SETUP_GROUP) as u64;
}

/// Runs rounds back to back for `seconds` (at least one), timing a batch
/// of set-ups after each.
fn phase(
    plan: &Rc<Plan>,
    seconds: f64,
    traced: bool,
    progress: &Progress,
    rounds: &mut Vec<Round>,
    setup: &mut SetupTimes,
) {
    let t0 = Instant::now();
    loop {
        progress.attempt(MESSAGES as u64);
        let r = round(plan, traced);
        progress.verify(MESSAGES as u64 - r.failed);
        rounds.push(r);
        sample_setup(setup);
        if elapsed_ns(t0) as f64 * 1e-9 >= seconds {
            return;
        }
    }
}

/// Runs `newmad_mix`.
pub fn run(cfg: &RunConfig, progress: &Progress) -> Outcome {
    let plan = Rc::new(Plan::new(cfg.seed, cfg.fault));
    let bytes = plan.bytes() as f64;
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let mut setup = SetupTimes::default();
    sample_setup(&mut setup);
    let mut untraced = Vec::new();
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    phase(
        &plan,
        untraced_s,
        false,
        progress,
        &mut untraced,
        &mut setup,
    );
    let mut traced = Vec::new();
    if cfg.trace {
        phase(
            &plan,
            cfg.seconds / 2.0,
            true,
            progress,
            &mut traced,
            &mut setup,
        );
    }

    let all = || untraced.iter().chain(&traced);
    out.attempted = (all().count() * MESSAGES) as u64;
    out.failed = all().map(|r| r.failed).sum();
    let first = &untraced[0].sig;
    let differing = all().filter(|r| r.sig != *first).count();
    out.check(
        "rounds_deterministic",
        differing == 0,
        format!("{differing} rounds differ from the first in simulated results or counters"),
    );

    out.set("setup_s", SetupTimes::estimate(&setup.setup), setup.count);
    // A segment is a run of consecutive rounds, at most SEGMENTS of them
    // per phase: one round lasts tens of milliseconds, shorter than the
    // host's speed swings, so single rounds would read one swing each.
    let segments = |rounds: &[Round]| {
        let mut seg = Segments::default();
        for group in rounds.chunks(rounds.len().div_ceil(SEGMENTS)) {
            let mut lat: Vec<u64> = group
                .iter()
                .flat_map(|r| r.host_latency_ns.iter().copied())
                .collect();
            seg.add(
                group.iter().map(|r| r.run_ns).sum(),
                group.iter().map(|r| r.steal).sum(),
                (group.len() * MESSAGES) as u64,
                &mut lat,
            );
        }
        seg
    };
    let seg_u = segments(&untraced);
    let seg_t = cfg.trace.then(|| segments(&traced));
    crate::report_phases(&mut out, &seg_u, seg_t.as_ref());
    out.set(
        "host_mb_per_s",
        seg_u.rate() * bytes / MESSAGES as f64 / 1e6,
        untraced.len() as u64,
    );
    let mut lat = first.latency_ns.clone();
    let n = lat.len() as u64;
    out.set("sim_latency_p50_us", percentile(&mut lat, 0.5) * 1e-3, n);
    out.set("sim_latency_p99_us", percentile(&mut lat, 0.99) * 1e-3, n);
    out.set(
        "sim_goodput_gbps",
        bytes / first.makespan.as_ns() as f64,
        MESSAGES as u64,
    );
    if cfg.trace {
        report_trace(&mut out, &plan, &traced);
    }
    out.finish();
    out
}

/// Writes the per-layer metrics of the traced rounds, per round.
fn report_trace(out: &mut Outcome, plan: &Plan, rounds: &[Round]) {
    let k = rounds.len() as f64;
    let mut spans = EngineSpans::default();
    let mut run_ns = 0u64;
    for r in rounds {
        let s = r.spans.as_ref().expect("traced round");
        for (all, one) in [
            (&mut spans.isend, &s.isend),
            (&mut spans.irecv, &s.irecv),
            (&mut spans.poll, &s.poll),
        ] {
            all.merge(one);
        }
        run_ns += r.run_ns;
    }
    let per_round = rounds.len() as u64;
    let sig = &rounds[0].sig;
    let msgs = MESSAGES as f64;
    out.set(
        "newmad.isend.p50_ns",
        spans.isend.percentile(0.5),
        spans.isend.kept(),
    );
    out.set("newmad.isend.busy_s", spans.isend.busy_s() / k, per_round);
    out.set("newmad.irecv.busy_s", spans.irecv.busy_s() / k, per_round);
    out.set("newmad.poll.calls", sig.polls as f64, per_round);
    out.set(
        "newmad.poll.useful_frac",
        ratio(sig.useful_polls as f64, sig.polls as f64),
        sig.polls,
    );
    out.set("newmad.poll.busy_s", spans.poll.busy_s() / k, per_round);

    let sum = |f: fn(&EngineStats) -> u64| (f(&sig.engine[0]) + f(&sig.engine[1])) as f64;
    let eager = plan
        .msgs
        .iter()
        .filter(|m| m.size <= EngineConfig::newmadeleine().eager_threshold)
        .count() as f64;
    out.set(
        "newmad.packets_per_msg",
        sum(|s| s.packets_sent) / msgs,
        MESSAGES as u64,
    );
    out.set(
        "newmad.aggregate_frac",
        ratio(sum(|s| s.aggregated_messages), eager),
        eager as u64,
    );
    out.set(
        "newmad.pipeline_stalls",
        sum(|s| s.pipeline_stalls),
        per_round,
    );
    out.set(
        "newmad.rendezvous_started",
        sum(|s| s.rendezvous_started),
        per_round,
    );
    out.set(
        "newmad.data_chunks_sent",
        sum(|s| s.data_chunks_sent),
        per_round,
    );
    out.set(
        "newmad.payload_bytes_copied",
        sum(|s| s.payload_bytes_copied),
        per_round,
    );
    out.set(
        "newmad.dropped",
        sum(|s| s.undecodable_packets + s.stale_control_packets),
        per_round,
    );
    out.check(
        "zero_copy_and_no_drops",
        sum(|s| s.payload_bytes_copied + s.undecodable_packets + s.stale_control_packets) == 0.0,
        "newmad.payload_bytes_copied and newmad.dropped must both be 0".to_owned(),
    );

    let packets: u64 = sig.rails.iter().map(|r| r.0).sum();
    let rail_bytes: Vec<u64> = sig.rails.iter().map(|r| r.1).collect();
    let max = *rail_bytes.iter().max().expect("rails") as f64;
    let min = *rail_bytes.iter().min().expect("rails") as f64;
    out.set("net.tx_packets", packets as f64, per_round);
    out.set(
        "net.tx_bytes",
        rail_bytes.iter().sum::<u64>() as f64,
        per_round,
    );
    out.set("net.rail_balance", ratio(min, max), RAILS as u64);

    let engine_ns = spans.isend.busy_ns() + spans.irecv.busy_ns() + spans.poll.busy_ns();
    let self_ns = run_ns.saturating_sub(engine_ns);
    out.set("des.events", sig.events as f64, per_round);
    out.set("des.run_busy_s", run_ns as f64 * 1e-9 / k, per_round);
    out.set("des.self_s", self_ns as f64 * 1e-9 / k, per_round);
    out.check(
        "engine_calls_inside_run",
        engine_ns <= run_ns,
        format!("engine-call spans {engine_ns} ns inside Sim::run spans {run_ns} ns"),
    );
}
