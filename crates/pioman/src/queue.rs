//! Task queues: one per topology node, each a set of per-class QoS lanes
//! behind a spinlock (paper §IV-A), plus the pure QoS pop policy
//! ([`pick_class`]) every lane consumer shares.
//!
//! # Layout (false-sharing pass, PR 5)
//!
//! A queue's hot atomics are touched by different cores in different
//! roles: the *owner* drains the list, *thieves* read the length hint and
//! the steal span (and take the lock), and *submitters* bump the
//! statistics counters. Each of those groups sits behind a
//! [`CachePadded`] so one role's writes never evict the line another
//! role is polling — and the `submitted`/`executed` statistics, which
//! every core RMWs, are [`ShardedCounter`]s (per-slot padded,
//! aggregated only on snapshot). `DESIGN.md` §6 has the full layout
//! rationale; the `stats_sharding_contended` bench records the cost of
//! the shared-counter alternative.

use crate::counters::ShardedCounter;
use crate::spinlock::SpinLock;
use crate::task::{Task, TaskClass, CLASS_COUNT};
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crossbeam::utils::CachePadded;
use piom_cpuset::CpuSet;
use piom_topology::Level;
use std::collections::VecDeque;

/// Identifier of a task queue — the arena index of the topology node owning
/// it (per-core queue for leaves, global queue for the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub(crate) u32);

impl QueueId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many higher-class pops may bypass a waiting [`TaskClass::Background`]
/// task before the next pop serves `Background` regardless of priority.
///
/// This is the anti-starvation bound stated in docs/SCHEDULER.md ("QoS
/// tiers") and pinned by the `qos_policy` tests. Every pop runs under its
/// queue's lock, so the bound is *exact*: the
/// `BACKGROUND_BYPASS_LIMIT + 1`-th pop while `Background` waits serves
/// `Background`, however many cores pop concurrently.
pub const BACKGROUND_BYPASS_LIMIT: u32 = 16;

/// Number of deadline (EDF) lanes per class in every queue's class lanes.
pub const DL_LANES: usize = 2;

/// The QoS pop policy's cross-class decision, as one pure function: given
/// the anti-starvation `credit` and which classes have work (`waiting`,
/// indexed by [`TaskClass::index`]), returns the class the next pop serves
/// and the credit after serving it, or `None` when no class has work.
///
/// - Classes are served in strict priority order ([`TaskClass::ALL`]),
///   except that once `credit` reaches [`BACKGROUND_BYPASS_LIMIT`] while
///   `Background` waits, `Background` is served first.
/// - Serving `Background` resets the credit; serving a higher class while
///   `Background` waits bumps it.
///
/// The scheduler's lanes (`SeqLanes::pop`, behind every queue and every
/// socket overflow) and the scenario matrix's simulated responder lanes
/// both call this, so the simulated policy is the shipped one.
///
/// ```
/// use pioman::{pick_class, TaskClass, BACKGROUND_BYPASS_LIMIT};
/// let waiting = [false, true, false, true]; // Interactive + Background
/// assert_eq!(pick_class(0, waiting), Some((TaskClass::Interactive, 1)));
/// assert_eq!(
///     pick_class(BACKGROUND_BYPASS_LIMIT, waiting),
///     Some((TaskClass::Background, 0))
/// );
/// assert_eq!(pick_class(3, [false; 4]), None);
/// ```
pub fn pick_class(credit: u32, waiting: [bool; CLASS_COUNT]) -> Option<(TaskClass, u32)> {
    let bg_waiting = waiting[TaskClass::Background.index()];
    let class = if credit >= BACKGROUND_BYPASS_LIMIT && bg_waiting {
        TaskClass::Background
    } else {
        *TaskClass::ALL.iter().find(|c| waiting[c.index()])?
    };
    let credit = if class == TaskClass::Background {
        0
    } else if bg_waiting {
        credit + 1
    } else {
        credit
    };
    Some((class, credit))
}

/// Picks which of a class's [`DL_LANES`] deadline lanes a push with
/// `deadline` should append to, given each lane's tail deadline (`None` =
/// lane empty).
///
/// The goal is to keep each lane individually sorted by deadline so the
/// tournament pop (min over lane heads) is exact EDF. A lane is *eligible*
/// when appending keeps it sorted: it is empty, or its tail deadline is
/// `<= deadline`.
///
/// - If any non-empty lane is eligible, append to the one with the
///   **greatest** tail (ties: lowest index) — the tightest fit, which
///   preserves the other lanes' headroom for earlier deadlines.
/// - Else if any lane is empty, take the lowest-indexed empty lane.
/// - Else no append keeps sortedness (the deadline precedes every tail):
///   append to the **smallest**-tail lane (ties: lowest index). That lane
///   is now locally out of order and EDF degrades to best-effort until it
///   drains — the documented trade for keeping the hot path heap-free.
///
/// The sequential oracle in the `qos_policy` proptests re-implements this
/// placement independently.
pub(crate) fn place_deadline_lane(tails: [Option<u64>; DL_LANES], deadline: u64) -> usize {
    let mut best_eligible: Option<(u64, usize)> = None;
    let mut first_empty: Option<usize> = None;
    let mut smallest: Option<(u64, usize)> = None;
    for (i, t) in tails.iter().enumerate() {
        match *t {
            Some(tail) => {
                if tail <= deadline && best_eligible.is_none_or(|(b, _)| tail > b) {
                    best_eligible = Some((tail, i));
                }
                if smallest.is_none_or(|(s, _)| tail < s) {
                    smallest = Some((tail, i));
                }
            }
            None => {
                if first_empty.is_none() {
                    first_empty = Some(i);
                }
            }
        }
    }
    if let Some((_, i)) = best_eligible {
        i
    } else if let Some(i) = first_empty {
        i
    } else {
        smallest.map(|(_, i)| i).unwrap_or(0)
    }
}

/// The per-class QoS lanes behind every queue and every socket overflow,
/// always accessed under a [`SpinLock`]: one FIFO lane plus [`DL_LANES`]
/// deadline lanes per [`TaskClass`].
///
/// - **Cross-class**: [`pick_class`] — strict priority softened by the
///   `Background` anti-starvation credit, which is exact under the lock.
/// - **Within a class**: deadline tasks drain earliest-deadline-first via
///   a tournament over the deadline-lane fronts, ahead of the class FIFO.
///   Each deadline lane stays sorted by [`place_deadline_lane`] whenever
///   the deadline stream allows, and degrades to per-lane FIFO
///   (best-effort EDF) when it does not.
///
/// The `qos_policy` proptests pin the whole policy against a sequential
/// oracle.
pub(crate) struct SeqLanes {
    classes: [SeqClassLane; CLASS_COUNT],
    /// Anti-starvation credit (see [`BACKGROUND_BYPASS_LIMIT`]).
    bg_credit: u32,
    len: usize,
}

#[derive(Default)]
struct SeqClassLane {
    fifo: VecDeque<Task>,
    dl: [VecDeque<Task>; DL_LANES],
}

impl SeqClassLane {
    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.dl.iter().all(|l| l.is_empty())
    }

    fn iter(&self) -> impl Iterator<Item = &Task> {
        self.dl.iter().flatten().chain(self.fifo.iter())
    }
}

impl SeqLanes {
    pub(crate) fn new() -> Self {
        SeqLanes {
            classes: Default::default(),
            bg_credit: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends to the task's class lane: the deadline lane chosen by
    /// [`place_deadline_lane`] when it carries a deadline, the class FIFO
    /// otherwise.
    pub(crate) fn push(&mut self, task: Task) {
        let lane = &mut self.classes[task.options.class.index()];
        self.len += 1;
        match task.options.deadline {
            Some(d) => {
                let tails =
                    core::array::from_fn(|i| lane.dl[i].back().and_then(|t| t.options.deadline));
                lane.dl[place_deadline_lane(tails, d)].push_back(task);
            }
            None => lane.fifo.push_back(task),
        }
    }

    /// Pops the earliest-deadline task of `class` (tournament over the
    /// deadline-lane fronts), falling back to the class FIFO.
    pub(crate) fn pop_class(&mut self, class: TaskClass) -> Option<Task> {
        let lane = &mut self.classes[class.index()];
        let heads: [Option<u64>; DL_LANES] = core::array::from_fn(|i| {
            lane.dl[i]
                .front()
                .map(|t| t.options.deadline.unwrap_or(u64::MAX))
        });
        let task = match (heads[0], heads[1]) {
            (Some(a), Some(b)) => lane.dl[usize::from(a > b)].pop_front(),
            (Some(_), None) => lane.dl[0].pop_front(),
            (None, Some(_)) => lane.dl[1].pop_front(),
            (None, None) => lane.fifo.pop_front(),
        };
        if task.is_some() {
            self.len -= 1;
        }
        task
    }

    /// Pops the next task under the full QoS policy: the class
    /// [`pick_class`] serves, then that class's EDF-then-FIFO pop.
    pub(crate) fn pop(&mut self) -> Option<Task> {
        let waiting = core::array::from_fn(|i| !self.classes[i].is_empty());
        let (class, credit) = pick_class(self.bg_credit, waiting)?;
        self.bg_credit = credit;
        self.pop_class(class)
    }

    /// Moves up to `quota` tasks into `out` for a **socket-overflow
    /// spill**: lowest class first (reverse [`TaskClass::ALL`] order), each
    /// class in its own pop order (EDF ahead of FIFO, oldest first).
    /// Returns how many moved. Skips the credit bookkeeping — a spill is
    /// relocation, not service.
    pub(crate) fn pop_lowest(&mut self, quota: usize, out: &mut Vec<Task>) -> usize {
        let mut n = 0;
        'classes: for class in TaskClass::ALL.iter().rev() {
            while n < quota {
                let Some(task) = self.pop_class(*class) else {
                    continue 'classes;
                };
                out.push(task);
                n += 1;
            }
            break;
        }
        n
    }

    /// Steal-half over the lanes: removes the
    /// `min(max, ceil(eligible / 2))` eligible tasks the *pop policy
    /// would serve first* (class priority, EDF ahead of FIFO, FIFO in
    /// order), leaving ineligible tasks in place and in order. Returns
    /// how many were taken. Deliberately skips the credit bookkeeping —
    /// a steal is relocation, not service.
    pub(crate) fn steal_eligible(
        &mut self,
        thief: usize,
        max: usize,
        out: &mut Vec<Task>,
    ) -> usize {
        let eligible = self
            .classes
            .iter()
            .flat_map(|c| c.iter())
            .filter(|t| t.cpuset.contains(thief))
            .count();
        if eligible == 0 {
            return 0;
        }
        let quota = eligible.div_ceil(2).min(max);
        let mut taken = 0;
        'classes: for ci in 0..CLASS_COUNT {
            let lane = &mut self.classes[ci];
            // Deadline tasks first: repeatedly remove the earliest-deadline
            // eligible element across the class's (sorted) deadline lanes.
            loop {
                if taken >= quota {
                    break 'classes;
                }
                let mut best: Option<(u64, usize, usize)> = None;
                for (li, l) in lane.dl.iter().enumerate() {
                    for (i, t) in l.iter().enumerate() {
                        if t.cpuset.contains(thief) {
                            let d = t.options.deadline.unwrap_or(u64::MAX);
                            if best.is_none_or(|(bd, _, _)| d < bd) {
                                best = Some((d, li, i));
                            }
                            break; // lanes are sorted: first eligible is earliest
                        }
                    }
                }
                let Some((_, li, i)) = best else { break };
                out.push(lane.dl[li].remove(i).expect("index checked"));
                taken += 1;
                self.len -= 1;
            }
            // Then the class FIFO, oldest eligible first.
            let mut i = 0;
            while taken < quota && i < lane.fifo.len() {
                if lane.fifo[i].cpuset.contains(thief) {
                    out.push(lane.fifo.remove(i).expect("index checked"));
                    taken += 1;
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        taken
    }
}

/// Width of the steal-span bitmask in 64-bit words — one bit per possible
/// CPU, matching [`CpuSet::MAX_CPUS`] so the span can admit any core of the
/// widest supported fabric (the 1024-core quad-socket preset).
pub(crate) const SPAN_WORDS: usize = CpuSet::MAX_CPUS / 64;

/// One hierarchical task queue.
pub(crate) struct TaskQueue {
    pub(crate) id: QueueId,
    pub(crate) level: Level,
    pub(crate) cpuset: CpuSet,
    /// The paper's implementation: per-class lanes behind a spinlock,
    /// dequeued with the double-checked Algorithm 2 (`len` is the unlocked
    /// emptiness hint). The lock (owner + thieves) and the hint (read by
    /// every park probe) are padded apart so probe traffic does not
    /// contend the lock line.
    list: CachePadded<SpinLock<SeqLanes>>,
    len: CachePadded<AtomicUsize>,
    /// Tasks enqueued by submission — sharded: submitters are arbitrary
    /// threads, so each lands on its thread's padded slot.
    submitted: ShardedCounter,
    /// Task executions drawn from this queue — sharded by the *executing
    /// core*, so each core's increment stays on its own line.
    executed: ShardedCounter,
    /// The *steal span*: a union of the cpusets of the tasks enqueued
    /// here, kept as [`SPAN_WORDS`] atomic words so
    /// [`steal_span_admits`](Self::steal_span_admits) is a single relaxed
    /// load. This is the cpuset filter behind the park probe and
    /// steal-targeted wake-ups: a core outside the span can never steal
    /// from this queue, whatever its depth, so probing it is pointless.
    /// It may over-approximate the *current* backlog — an
    /// over-approximation only costs a wasted probe, never a lost task
    /// (the steal path re-checks real task cpusets under the victim's
    /// lock) — but since PR 5 it is no longer a *monotone* union: a
    /// drain that leaves the queue empty clears any bits wider than the
    /// queue's own cpuset ([`Self::maybe_decay_span`]), so a queue that
    /// once held wide-cpuset tasks stops attracting park probes forever.
    /// Padded: every about-to-park core reads these words while
    /// enqueuers OR into them.
    steal_span: CachePadded<[AtomicU64; SPAN_WORDS]>,
}

impl TaskQueue {
    pub(crate) fn new(id: QueueId, level: Level, cpuset: CpuSet, shards: usize) -> Self {
        TaskQueue {
            id,
            level,
            cpuset,
            list: CachePadded::new(SpinLock::new(SeqLanes::new())),
            len: CachePadded::new(AtomicUsize::new(0)),
            submitted: ShardedCounter::new(shards),
            executed: ShardedCounter::new(shards),
            steal_span: Default::default(),
        }
    }

    /// Folds `set` into the steal span (see the field docs). Word-skipping:
    /// after the first task with a given span shape, the common case is
    /// relaxed loads only and zero RMWs.
    ///
    /// Called **after** the lane push, never before: the decay path
    /// clears the span only when it observes the queue empty and restores
    /// whatever it cleared when it observes a concurrent enqueue — an
    /// ordering that can only lose a task's bits if those bits were
    /// published before the task itself existed in the queue. Folding
    /// after the push closes that window; the cost is that a probe racing
    /// the enqueue may transiently miss the new task (a wasted park, and
    /// the submission's own wake path covers it), never a stuck one.
    ///
    /// The `fetch_or` is Release, pairing with the decay's Acquire swap:
    /// when a decaying drain captures this enqueue's bits, it is
    /// guaranteed to also see the push's length update and restore them
    /// (see [`maybe_decay_span`](Self::maybe_decay_span) for the full
    /// race budget, including the one narrow case that can still drop
    /// bits and why it is bounded).
    fn note_span(&self, set: &CpuSet) {
        for (word, &bits) in self.steal_span.iter().zip(set.as_words()) {
            if bits != 0 && word.load(Ordering::Relaxed) & bits != bits {
                word.fetch_or(bits, Ordering::Release);
            }
        }
    }

    /// Steal-span decay: when a dequeue leaves the queue empty and the
    /// span has grown *wider than the queue's own cpuset* (the only case
    /// in which staleness misleads anyone — bits inside the cpuset can
    /// only attract cores whose own path already includes this queue),
    /// clear it so stale wide spans stop attracting park probes.
    ///
    /// Concurrency: the clear is a `swap(0)` per word followed by an
    /// emptiness re-check; if a task slipped in, every cleared bit is
    /// OR-ed straight back. The race budget, spelled out:
    ///
    /// * an enqueue whose `fetch_or` lands **after** the swap re-adds its
    ///   bits directly — nothing to restore;
    /// * an enqueue whose `fetch_or` (Release) landed **before** the swap
    ///   (Acquire) synchronizes with it, and since [`note_span`]
    ///   (Self::note_span) runs after the lane push, the re-check
    ///   below is then guaranteed to observe the push and restore the
    ///   captured bits;
    /// * the one interleaving that can still drop bits: an enqueuer
    ///   *skips* its `fetch_or` because the word-check read bits some
    ///   earlier task set, and this drain clears them before the new
    ///   task leaves. Closing that would take a store-load fence on the
    ///   enqueue hot path, and the miss is strictly bounded: the span
    ///   only gates the *advisory* park probe and `wake_for_steal`
    ///   escalation — the submission itself already unparked every core
    ///   in the task's cpuset with an unforgeable token, the steal path
    ///   never consults the span, and the next enqueue (or park
    ///   timeout / timer) re-covers the escalation. A dropped bit can
    ///   cost a bounded wasted park, never a lost task or wake.
    fn maybe_decay_span(&self) {
        let own = self.cpuset.as_words();
        if self
            .steal_span
            .iter()
            .zip(own)
            .all(|(w, &own_bits)| w.load(Ordering::Relaxed) & !own_bits == 0)
        {
            return; // nothing wider than the cpuset: staleness is harmless
        }
        let mut cleared = [0u64; SPAN_WORDS];
        for (c, w) in cleared.iter_mut().zip(self.steal_span.iter()) {
            // Acquire pairs with note_span's Release fetch_or: capturing
            // an enqueue's bits makes its push visible to the re-check.
            *c = w.swap(0, Ordering::Acquire);
        }
        if self.len_hint() != 0 {
            // A concurrent enqueue raced the clear: restore everything we
            // took (fetch_or also preserves bits added in between).
            for (c, w) in cleared.iter().zip(self.steal_span.iter()) {
                if *c != 0 {
                    w.fetch_or(*c, Ordering::Relaxed);
                }
            }
        }
    }

    /// `true` if some task with `core` in its cpuset was enqueued here and
    /// the span has not decayed since the queue last drained — the O(1)
    /// lock-free filter the park probe and
    /// [`wake_for_steal`](crate::TaskManager::wake_for_steal) consult
    /// before treating this queue's backlog as stealable by `core`.
    pub(crate) fn steal_span_admits(&self, core: usize) -> bool {
        core < CpuSet::MAX_CPUS
            && self.steal_span[core / 64].load(Ordering::Relaxed) & (1u64 << (core % 64)) != 0
    }

    /// Appends a task to its class lane (tail of the lane; the deadline
    /// lanes order by [`place_deadline_lane`]) and returns the queue depth
    /// just after the append. A [`TaskClass::Urgent`] task needs no
    /// special case: the pop policy serves it before every lower class.
    /// The returned depth feeds the backlog-threshold check behind
    /// [`wake_for_steal`](crate::TaskManager::wake_for_steal).
    pub(crate) fn enqueue(&self, task: Task) -> usize {
        self.submitted.add(1);
        let span = task.cpuset;
        let depth = {
            let mut guard = self.list.lock();
            guard.push(task);
            // Published while holding the lock; Relaxed — the hint may
            // transiently read stale (including stale-empty) on weak
            // memory, which is the same race Algorithm 2's unlocked test
            // always had: correctness rides the lock (data) and the
            // submission's unpark tokens (progress), never hint freshness.
            self.len.store(guard.len(), Ordering::Relaxed);
            guard.len()
        };
        // After the push, so the decay path's clear/restore protocol can
        // never drop the bits of a task already in the queue (note_span
        // docs walk the interleavings).
        self.note_span(&span);
        depth
    }

    /// Re-enqueue a repeat task without counting a new submission. Goes
    /// through the same class lanes as a fresh enqueue — in particular an
    /// urgent repeat task requeues at the *tail of the Urgent lane*: it
    /// preempts every lower class but queues behind older urgent work.
    pub(crate) fn requeue(&self, task: Task) {
        let span = task.cpuset;
        {
            let mut guard = self.list.lock();
            guard.push(task);
            self.len.store(guard.len(), Ordering::Relaxed);
        }
        self.note_span(&span);
    }

    /// Runs `f` on the lanes under the lock — unless the unlocked length
    /// hint reads empty, in which case the lock is never taken and `f`
    /// never runs (Algorithm 2's double check; `f` re-checks under the
    /// lock). Republishes the hint and decays the steal span when `f`
    /// removed tasks (`f` returns how many) and left the queue empty.
    fn drain_with(&self, f: impl FnOnce(&mut SeqLanes) -> usize) -> usize {
        // notempty(Queue) — unlocked peek.
        if self.len.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        // LOCK(Queue); re-check; dequeue; UNLOCK(Queue).
        let taken = {
            let mut guard = self.list.lock();
            let taken = f(&mut guard);
            self.len.store(guard.len(), Ordering::Relaxed);
            taken
        };
        if taken > 0 && self.len_hint() == 0 {
            self.maybe_decay_span();
        }
        taken
    }

    /// The paper's **Algorithm 2** (`Get_Task`): evaluate the queue content
    /// without holding the lock; if non-empty, acquire and re-check.
    /// "This technique permits to avoid race conditions with a minimal
    /// overhead since the mutex is only held when the list contains tasks."
    /// The dequeued task is whichever the QoS pop policy serves next (see
    /// [`SeqLanes::pop`]); plain same-class FIFO submissions drain in
    /// submission order.
    pub(crate) fn try_dequeue(&self) -> Option<Task> {
        let mut task = None;
        self.drain_with(|lanes| {
            task = lanes.pop();
            usize::from(task.is_some())
        });
        task
    }

    /// Batched Algorithm 2: drains up to `max` tasks into `out` under a
    /// *single* lock acquisition (the unlocked emptiness test still guards
    /// the lock). Returns the number of tasks drained.
    ///
    /// This is the schedule-side half of batching: where `try_dequeue`
    /// re-acquires the spinlock once per task, a keypoint that finds a
    /// backlog of `n` tasks pays one acquisition for all of them.
    pub(crate) fn dequeue_batch(&self, max: usize, out: &mut Vec<Task>) -> usize {
        self.drain_with(|lanes| {
            let take = lanes.len().min(max);
            for _ in 0..take {
                out.push(lanes.pop().expect("len checked under the lock"));
            }
            take
        })
    }

    /// Batched stealing (*steal-half*): takes up to `max` of the tasks
    /// `thief` may run — at most **half of the eligible backlog**, rounded
    /// up — into `out`, returning how many were taken.
    ///
    /// Half, not all: the thief is catching a transient imbalance, and a
    /// probe that looted the whole backlog would trade one starved core
    /// for another while the home core's next keypoint finds nothing.
    /// Half splits the backlog geometrically between the home core and
    /// however many thieves arrive, so a drain completes in `O(log n)`
    /// probes instead of `n` single-task probes (the per-probe premium
    /// PR 2's trajectory measured).
    ///
    /// The pass scans the lanes in place under the lock: ineligible tasks
    /// and steal survivors keep their queue positions, so stealing never
    /// reorders the victim queue.
    pub(crate) fn try_steal_half(&self, thief: usize, max: usize, out: &mut Vec<Task>) -> usize {
        if max == 0 {
            return 0;
        }
        self.drain_with(|lanes| lanes.steal_eligible(thief, max, out))
    }

    /// Removes up to `quota` tasks for a **socket-overflow spill**, lowest
    /// class first ([`SeqLanes::pop_lowest`]). Evicting from the *bottom*
    /// of the priority order keeps the work the pop policy would serve
    /// next on the uncontended local queue; the excess that was going to
    /// wait anyway is what gains from whole-socket visibility.
    pub(crate) fn spill_lowest(&self, quota: usize, out: &mut Vec<Task>) -> usize {
        if quota == 0 {
            return 0;
        }
        self.drain_with(|lanes| lanes.pop_lowest(quota, out))
    }

    /// Current length (hint; racy by nature). The load is Relaxed: no data
    /// is consumed through it (the lock publishes the tasks), and the wake
    /// paths that guarantee progress carry unpark tokens, not this value.
    pub(crate) fn len_hint(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Snapshot of the steal span as a [`CpuSet`] (see the field docs).
    pub(crate) fn steal_span(&self) -> CpuSet {
        let mut words = [0u64; SPAN_WORDS];
        for (w, a) in words.iter_mut().zip(self.steal_span.iter()) {
            *w = a.load(Ordering::Relaxed);
        }
        CpuSet::from_words(words)
    }

    pub(crate) fn note_executed(&self, core: usize) {
        self.executed.add_at(core, 1);
    }

    pub(crate) fn submitted(&self) -> u64 {
        self.submitted.sum()
    }

    pub(crate) fn executed(&self) -> u64 {
        self.executed.sum()
    }

    /// Lock statistics: `(acquisitions, contended acquisitions)`.
    pub(crate) fn lock_stats(&self) -> (u64, u64) {
        (self.list.acquisitions(), self.list.contended_acquisitions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::Completion;
    use crate::task::{TaskOptions, TaskStatus};

    fn dummy_task(home: QueueId) -> Task {
        task_for(home, CpuSet::single(0))
    }

    fn task_for(home: QueueId, cpuset: CpuSet) -> Task {
        task_with(home, cpuset, TaskOptions::oneshot())
    }

    fn task_with(home: QueueId, cpuset: CpuSet, options: TaskOptions) -> Task {
        Task {
            body: Box::new(|_| TaskStatus::Done),
            options,
            cpuset,
            home,
            completion: Completion::new(),
            submitted_at: None,
        }
    }

    /// A task of `class` tagged with the unique marker cpu `marker`, so
    /// drain order is observable through its cpuset.
    fn marked(q: &TaskQueue, marker: usize, class: TaskClass) -> Task {
        task_with(
            q.id,
            CpuSet::from_iter([0, marker]),
            TaskOptions::oneshot().class(class),
        )
    }

    fn spin_queue() -> TaskQueue {
        TaskQueue::new(QueueId(0), Level::Core, CpuSet::single(0), 4)
    }

    #[test]
    fn fifo_order_spin() {
        let q = spin_queue();
        for _ in 0..3 {
            q.enqueue(dummy_task(q.id));
        }
        assert_eq!(q.len_hint(), 3);
        let mut n = 0;
        while q.try_dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(q.len_hint(), 0);
        assert!(q.try_dequeue().is_none());
    }

    #[test]
    fn empty_dequeue_never_locks() {
        let q = spin_queue();
        assert!(q.try_dequeue().is_none());
        // Algorithm 2's whole point: an empty queue is detected without a
        // single lock acquisition.
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn requeue_does_not_count_as_submission() {
        let q = spin_queue();
        q.enqueue(dummy_task(q.id));
        let t = q.try_dequeue().unwrap();
        q.requeue(t);
        assert_eq!(q.submitted(), 1);
        assert_eq!(q.len_hint(), 1);
    }

    #[test]
    fn batch_drains_in_one_lock_acquisition() {
        let q = spin_queue();
        for _ in 0..5 {
            q.enqueue(dummy_task(q.id));
        }
        let locks_before = q.lock_stats().0;
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(8, &mut out), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(q.len_hint(), 0);
        assert_eq!(
            q.lock_stats().0 - locks_before,
            1,
            "a batch drain must lock exactly once"
        );
        // Draining an empty queue takes the unlocked fast path.
        assert_eq!(q.dequeue_batch(8, &mut out), 0);
        assert_eq!(q.lock_stats().0 - locks_before, 1);
    }

    #[test]
    fn batch_respects_max() {
        let q = spin_queue();
        for _ in 0..5 {
            q.enqueue(dummy_task(q.id));
        }
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(2, &mut out), 2);
        assert_eq!(q.len_hint(), 3);
    }

    #[test]
    fn steal_skips_ineligible_tasks_without_reordering() {
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        // Thief core 3 takes the (only) eligible task...
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert!(out.pop().unwrap().cpuset().contains(3));
        // ...and the two ineligible ones stay, in order, still dequeuable.
        assert_eq!(q.len_hint(), 2);
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 0);
        assert!(q.try_dequeue().is_some());
        assert!(q.try_dequeue().is_some());
    }

    #[test]
    fn steal_half_takes_half_of_eligible_backlog() {
        let q = spin_queue();
        // 6 eligible for thief 3, 2 not.
        for i in 0..8 {
            let set = if i % 4 == 3 {
                CpuSet::single(0)
            } else {
                CpuSet::from_iter([0, 3])
            };
            q.enqueue(task_for(q.id, set));
        }
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 3);
        assert!(out.iter().all(|t| t.cpuset().contains(3)));
        assert_eq!(q.len_hint(), 5, "half the eligible + all ineligible stay");
        // The survivors are still dequeuable in order by the home core.
        let mut left = 0;
        while q.try_dequeue().is_some() {
            left += 1;
        }
        assert_eq!(left, 5);
    }

    #[test]
    fn steal_half_rounds_up_and_honours_max() {
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 1])));
        let mut out = Vec::new();
        // ceil(1/2) = 1: a lone straggler is still stealable.
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 1);
        assert_eq!(q.len_hint(), 0);

        for _ in 0..10 {
            q.enqueue(task_for(q.id, CpuSet::from_iter([0, 1])));
        }
        out.clear();
        // Budget caps below the half quota.
        assert_eq!(q.try_steal_half(1, 2, &mut out), 2);
        assert_eq!(q.len_hint(), 8);
        assert_eq!(
            q.try_steal_half(1, 0, &mut out),
            0,
            "zero budget steals nothing"
        );
    }

    #[test]
    fn steal_half_on_empty_queue_never_locks() {
        let q = spin_queue();
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 0);
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn steal_preserves_fifo_of_survivors() {
        // Stealing must not rotate the victim queue. Tag each task with a
        // unique marker cpu (10+i) so the drain order is observable;
        // even-indexed tasks are eligible for thief 3.
        let q = spin_queue();
        for i in 0..6 {
            let mut set = CpuSet::from_iter([0, 10 + i]);
            if i % 2 == 0 {
                set.insert(3);
            }
            q.enqueue(task_for(q.id, set));
        }
        let mut out = Vec::new();
        // 3 eligible -> quota 2: tasks 0 and 2 (the oldest eligible) leave.
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 2);
        assert!(out[0].cpuset().contains(10));
        assert!(out[1].cpuset().contains(12));
        // Survivors drain in original submission order: 1, 3, 4, 5.
        for expect in [11, 13, 14, 15] {
            let t = q.try_dequeue().expect("survivor present");
            assert!(
                t.cpuset().contains(expect),
                "queue was reordered: expected marker {expect}"
            );
        }
        assert!(q.try_dequeue().is_none());
    }

    #[test]
    fn steal_survivors_precede_newer_pushes() {
        // Tasks left behind by a steal keep their place: a task pushed
        // after the steal must drain later than every survivor.
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3, 10])));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3, 11])));
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 12])));
        let first = q.try_dequeue().unwrap();
        assert!(
            first.cpuset().contains(11),
            "survivor drains before newer work"
        );
        assert!(q.try_dequeue().unwrap().cpuset().contains(12));
    }

    #[test]
    fn urgent_class_preempts_queue_order() {
        // Class priority is the preemption mechanism: an Urgent task
        // submitted after older Interactive work still drains first.
        let q = spin_queue();
        q.enqueue(marked(&q, 10, TaskClass::Interactive));
        q.enqueue(marked(&q, 11, TaskClass::Urgent));
        assert_eq!(q.len_hint(), 2);
        assert!(q.try_dequeue().unwrap().cpuset().contains(11));
        assert!(q.try_dequeue().unwrap().cpuset().contains(10));
    }

    #[test]
    fn pop_serves_classes_in_strict_priority_order() {
        let q = spin_queue();
        for (marker, class) in [
            (10, TaskClass::Background),
            (11, TaskClass::Bulk),
            (12, TaskClass::Interactive),
            (13, TaskClass::Urgent),
        ] {
            q.enqueue(marked(&q, marker, class));
        }
        let order: Vec<TaskClass> =
            std::iter::from_fn(|| q.try_dequeue().map(|t| t.options().class)).collect();
        assert_eq!(order, TaskClass::ALL.to_vec());
    }

    #[test]
    fn urgent_requeue_lands_at_its_class_lane_tail() {
        // An urgent repeat task requeues *behind* older urgent work
        // (class-lane tail), not ahead of it — while still preempting
        // every lower class.
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 10])));
        let urgent = TaskOptions::repeat().class(TaskClass::Urgent);
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 11]), urgent));
        let first = q.try_dequeue().unwrap();
        assert!(first.cpuset().contains(11), "urgent preempts interactive");
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 12]), urgent));
        q.requeue(first);
        // The freshly enqueued urgent task (12) is older in the lane than
        // the requeued one (11); both beat the interactive task.
        assert!(q.try_dequeue().unwrap().cpuset().contains(12));
        assert!(q.try_dequeue().unwrap().cpuset().contains(11));
        assert!(q.try_dequeue().unwrap().cpuset().contains(10));
    }

    #[test]
    fn deadlines_drain_edf_within_a_class() {
        let q = spin_queue();
        let bulk = TaskOptions::oneshot().class(TaskClass::Bulk);
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 10]), bulk));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 11]),
            bulk.deadline(30),
        ));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 12]),
            bulk.deadline(10),
        ));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 13]),
            bulk.deadline(20),
        ));
        // EDF among deadline tasks, then the FIFO (deadline-less) task.
        for marker in [12, 13, 11, 10] {
            assert!(
                q.try_dequeue().unwrap().cpuset().contains(marker),
                "expected marker {marker}"
            );
        }
        assert!(q.try_dequeue().is_none());
    }

    #[test]
    fn placement_prefers_the_tightest_eligible_lane() {
        // Non-empty eligible lanes: greatest tail wins (tightest fit).
        assert_eq!(place_deadline_lane([Some(5), Some(8)], 10), 1);
        assert_eq!(place_deadline_lane([Some(8), Some(5)], 10), 0);
        // Ties break to the lowest index.
        assert_eq!(place_deadline_lane([Some(7), Some(7)], 10), 0);
        // An eligible non-empty lane beats an empty lane.
        assert_eq!(place_deadline_lane([None, Some(3)], 10), 1);
        // No eligible non-empty lane: lowest-indexed empty lane.
        assert_eq!(place_deadline_lane([None, None], 10), 0);
        assert_eq!(place_deadline_lane([Some(20), None], 10), 1);
        // Nothing eligible, nothing empty: smallest tail (best-effort).
        assert_eq!(place_deadline_lane([Some(20), Some(30)], 10), 0);
        assert_eq!(place_deadline_lane([Some(30), Some(20)], 10), 1);
    }

    #[test]
    fn background_bypass_fires_exactly_at_the_limit() {
        let q = spin_queue();
        q.enqueue(marked(&q, 999, TaskClass::Background));
        let n = BACKGROUND_BYPASS_LIMIT as usize + 8;
        for i in 0..n {
            q.enqueue(marked(&q, 100 + i, TaskClass::Interactive));
        }
        // BACKGROUND_BYPASS_LIMIT pops serve Interactive (each bumping the
        // credit), and the next pop serves the parked Background task.
        for i in 0..BACKGROUND_BYPASS_LIMIT as usize {
            assert!(q.try_dequeue().unwrap().cpuset().contains(100 + i));
        }
        assert!(q.try_dequeue().unwrap().cpuset().contains(999));
        // Credit reset: the remaining Interactive backlog drains normally.
        for i in BACKGROUND_BYPASS_LIMIT as usize..n {
            assert!(q.try_dequeue().unwrap().cpuset().contains(100 + i));
        }
        assert!(q.try_dequeue().is_none());
    }

    #[test]
    fn steal_takes_the_tasks_the_pop_policy_would_serve_first() {
        // 2 eligible tasks (quota 1): the thief must get the Urgent one,
        // not the older Interactive one — steals honour class priority.
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 3]),
            TaskOptions::oneshot().class(TaskClass::Urgent),
        ));
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert_eq!(out.pop().unwrap().options().class, TaskClass::Urgent);
        assert_eq!(q.len_hint(), 1);
        assert_eq!(
            q.try_dequeue().unwrap().options().class,
            TaskClass::Interactive
        );
    }

    #[test]
    fn steal_leftovers_keep_class_priority() {
        // A Background task a steal leaves behind must not be served ahead
        // of fresher higher-class work.
        let q = spin_queue();
        q.enqueue(marked(&q, 10, TaskClass::Background));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 3, 11]),
            TaskOptions::oneshot().class(TaskClass::Background),
        ));
        let mut out = Vec::new();
        // Thief 3 takes the one eligible task; the other stays behind.
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert!(out.pop().unwrap().cpuset().contains(11));
        // Fresh Interactive work submitted *after* the steal still beats
        // the Background leftover.
        q.enqueue(marked(&q, 12, TaskClass::Interactive));
        assert!(q.try_dequeue().unwrap().cpuset().contains(12));
        assert!(q.try_dequeue().unwrap().cpuset().contains(10));
    }

    #[test]
    fn steal_span_unions_enqueued_cpusets() {
        let q = spin_queue();
        assert!(!q.steal_span_admits(0), "empty queue admits nobody");
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        assert!(q.steal_span_admits(0));
        assert!(!q.steal_span_admits(3));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        assert!(q.steal_span_admits(3));
        assert!(!q.steal_span_admits(255), "unseen cores stay excluded");
    }

    #[test]
    fn steal_span_decays_when_a_wide_queue_drains_empty() {
        // PR 5: the span is no longer a forever-monotone union. Draining a
        // queue whose span grew wider than its own cpuset clears it, so
        // the stale wide bits stop attracting park probes.
        let q = spin_queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        assert!(q.steal_span_admits(3));
        assert!(q.try_dequeue().is_some());
        assert!(
            !q.steal_span_admits(3),
            "drained-empty queue must drop the wide span bit"
        );
        assert!(!q.steal_span_admits(0), "the whole span resets");
        // The span rebuilds from the next enqueue.
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 5])));
        assert!(q.steal_span_admits(5));
    }

    #[test]
    fn steal_span_within_own_cpuset_never_decays() {
        // Bits inside the queue's own cpuset can only attract cores whose
        // hierarchy path already includes this queue — clearing them would
        // buy nothing, so the drain-empty path skips the swap entirely.
        let q = spin_queue(); // cpuset {0}
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        assert!(q.try_dequeue().is_some());
        assert!(
            q.steal_span_admits(0),
            "narrow span survives the drain (decay gated on wider-than-cpuset)"
        );
    }

    #[test]
    fn steal_span_decays_after_batch_and_steal_drains_too() {
        let q = spin_queue();
        for _ in 0..3 {
            q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        }
        let mut out = Vec::new();
        q.dequeue_batch(8, &mut out);
        assert!(!q.steal_span_admits(3), "batch drain decays the span");

        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        out.clear();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert!(!q.steal_span_admits(3), "a steal that empties decays too");
    }

    #[test]
    fn enqueue_reports_post_append_depth() {
        let q = spin_queue();
        assert_eq!(q.enqueue(dummy_task(q.id)), 1);
        assert_eq!(q.enqueue(dummy_task(q.id)), 2);
        q.try_dequeue();
        assert_eq!(q.enqueue(dummy_task(q.id)), 2);
    }

    #[test]
    fn counters() {
        let q = spin_queue();
        q.enqueue(dummy_task(q.id));
        q.note_executed(0);
        assert_eq!(q.submitted(), 1);
        assert_eq!(q.executed(), 1);
        assert_eq!(q.lock_stats(), (1, 0), "one uncontended enqueue");
    }

    /// The marker cpu `marked`/`task_for` tag a task with (its one cpu
    /// other than the home core 0 and the thief core 3).
    fn marker_of(t: &Task) -> usize {
        t.cpuset()
            .iter()
            .find(|&c| c != 0 && c != 3)
            .expect("task carries a marker")
    }

    #[test]
    fn concurrent_push_pop() {
        // Two producers race two popping consumers. Every task comes out
        // exactly once, and each consumer sees any one producer's tasks in
        // that producer's push order (the queue is FIFO per class).
        const PER: usize = 200;
        let q = spin_queue();
        let taken = AtomicUsize::new(0);
        let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
            for p in 0..2 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 10 + p * PER + i])));
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let (q, taken) = (&q, &taken);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while taken.load(Ordering::Relaxed) < 2 * PER {
                            match q.try_dequeue() {
                                Some(t) => {
                                    got.push(marker_of(&t));
                                    taken.fetch_add(1, Ordering::Relaxed);
                                }
                                None => std::thread::yield_now(),
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for got in &seen {
            for p in 0..2 {
                let mine: Vec<usize> = got
                    .iter()
                    .copied()
                    .filter(|m| (m - 10) / PER == p)
                    .collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "producer {p}'s tasks popped out of push order"
                );
            }
        }
        let mut all: Vec<usize> = seen.concat();
        all.sort_unstable();
        assert_eq!(all, (10..10 + 2 * PER).collect::<Vec<_>>());
        assert!(q.try_dequeue().is_none());
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn mpmc_interleaved_no_loss_no_duplication() {
        // Producers push tasks of every class while three consumers drain
        // through the three owner/thief paths at once: single pops, batch
        // drains and half-steals by core 3. No task is lost or duplicated.
        const PER: usize = 150;
        let q = spin_queue();
        let taken = AtomicUsize::new(0);
        let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
            for p in 0..2 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        let class = TaskClass::ALL[i % CLASS_COUNT];
                        q.enqueue(task_with(
                            q.id,
                            CpuSet::from_iter([0, 3, 10 + p * PER + i]),
                            TaskOptions::oneshot().class(class),
                        ));
                    }
                });
            }
            let consumers: Vec<_> = (0..3)
                .map(|path| {
                    let (q, taken) = (&q, &taken);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut out = Vec::new();
                        while taken.load(Ordering::Relaxed) < 2 * PER {
                            let n = match path {
                                0 => q.try_dequeue().map(|t| out.push(t)).is_some() as usize,
                                1 => q.dequeue_batch(8, &mut out),
                                _ => q.try_steal_half(3, 4, &mut out),
                            };
                            if n == 0 {
                                std::thread::yield_now();
                            }
                            taken.fetch_add(n, Ordering::Relaxed);
                            got.extend(out.drain(..).map(|t| marker_of(&t)));
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = seen.concat();
        all.sort_unstable();
        assert_eq!(all, (10..10 + 2 * PER).collect::<Vec<_>>());
        assert!(q.try_dequeue().is_none());
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn values_in_flight_are_dropped_exactly_once() {
        // Task bodies own their captures. Popped tasks drop them when the
        // caller drops the task; tasks still queued drop them with the
        // queue — each exactly once, none early.
        struct Tracked(std::sync::Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        let q = spin_queue();
        for i in 0..10 {
            let guard = Tracked(drops.clone());
            let mut t = marked(&q, 10 + i, TaskClass::ALL[i % CLASS_COUNT]);
            t.body = Box::new(move |_| {
                let _keep = &guard;
                TaskStatus::Done
            });
            q.enqueue(t);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0, "queueing drops nothing");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(3, &mut out), 3);
        out.push(q.try_dequeue().unwrap());
        assert_eq!(drops.load(Ordering::Relaxed), 0, "popping drops nothing");
        drop(out);
        assert_eq!(drops.load(Ordering::Relaxed), 4);
        drop(q);
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }
}
