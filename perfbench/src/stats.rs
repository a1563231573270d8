//! Sample containers and order statistics shared by the workloads.

use std::time::Instant;

/// Most durations one [`Spans`] keeps for percentiles. Calls beyond the
/// cap still count towards `calls` and `busy`, so totals stay exact.
const SAMPLE_CAP: usize = 1 << 22;

/// Durations of one kind of call the benchmark makes into the program.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    samples: Vec<u32>,
    calls: u64,
    busy_ns: u64,
    useful: u64,
}

impl Spans {
    /// Records one call of `ns` nanoseconds; `useful` says whether the call
    /// did work (a `schedule` that ran a task, a `poll` that found a packet).
    pub fn record(&mut self, ns: u64, useful: bool) {
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        self.calls += 1;
        self.busy_ns += ns;
        self.useful += u64::from(useful);
    }

    /// Times `f` and records it; the call counts as useful when `f` says so.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T, useful: impl FnOnce(&T) -> bool) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = elapsed_ns(t0);
        let u = useful(&out);
        self.record(ns, u);
        out
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total time inside the calls, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Total time inside the calls, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Share of calls that did work (0 when there were no calls).
    pub fn useful_frac(&self) -> f64 {
        ratio(self.useful as f64, self.calls as f64)
    }

    /// Nearest-rank percentile of the recorded durations, in ns.
    pub fn percentile(&mut self, q: f64) -> f64 {
        let mut wide: Vec<u64> = self.samples.iter().map(|&s| u64::from(s)).collect();
        percentile(&mut wide, q)
    }

    /// Durations kept for percentiles.
    pub fn kept(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Adds `other`'s calls to these.
    pub fn merge(&mut self, other: &Spans) {
        let room = SAMPLE_CAP.saturating_sub(self.samples.len());
        self.samples
            .extend(other.samples.iter().take(room).copied());
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.useful += other.useful;
    }
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Nearest-rank percentile (`q` in 0..=1) of `v`, reordering it; 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1 as f64
}

/// Median of `v` (mean of the two middle values for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hypervisor steal time of the machine so far, in clock ticks: the time
/// its vCPUs were ready to run but the host ran something else (`steal`
/// field of the `cpu` line of `/proc/stat`). 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_owned();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The start of a segment: wall clock and steal counter.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    t0: Instant,
    steal: u64,
}

impl Mark {
    /// Starts a segment now.
    pub fn now() -> Mark {
        Mark {
            steal: steal_ticks(),
            t0: Instant::now(),
        }
    }

    /// `(ns, steal ticks)` since the mark.
    pub fn end(&self) -> (u64, u64) {
        let ns = elapsed_ns(self.t0);
        (ns, steal_ticks().saturating_sub(self.steal))
    }
}

/// Linearly interpolated quantile (`q` in 0..=1) of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Latency percentiles each segment keeps.
pub const LATENCY_QUANTILES: [f64; 3] = [0.50, 0.90, 0.99];

/// One segment of a timed phase.
#[derive(Debug, Clone, Copy)]
struct Segment {
    ops: u64,
    rate: f64,
    /// Latency at each of [`LATENCY_QUANTILES`], ns.
    latency: [f64; 3],
    samples: u64,
    steal: u64,
}

/// A timed phase cut into segments.
///
/// The host this benchmark is sized for is a 2-vCPU virtual machine. Its
/// hypervisor at times runs other guests for seconds on end while ours are
/// ready, and the speed it gives a running vCPU changes from one second
/// to the next. Each segment records how much time the hypervisor stole
/// during it; a phase's metrics come from its *least-stolen quarter* (the
/// segments whose steal is at or below the phase's 25th percentile: on a
/// quiet host nearly every segment), and each is the value the program
/// reached in at least three quarters of those segments: the 25th
/// percentile of their rates, the 75th percentile of their latencies. Both
/// steps read only the host's counter and the order of the segments' own
/// values, so a program that is slower in every segment reads slower.
#[derive(Debug, Default, Clone)]
pub struct Segments {
    segs: Vec<Segment>,
}

impl Segments {
    /// Runs `step` back to back for `seconds`, cut into `n` segments.
    /// `step` runs one closed-loop unit of work, pushes its latency samples
    /// (ns) and returns the operations it completed. `between` runs after
    /// each segment, outside its timing.
    pub fn measure(
        seconds: f64,
        n: usize,
        mut step: impl FnMut(&mut Vec<u64>) -> u64,
        mut between: impl FnMut(),
    ) -> Self {
        let seg_ns = (seconds / n as f64 * 1e9) as u64;
        let mut out = Segments::default();
        let mut lat = Vec::new();
        for _ in 0..n {
            lat.clear();
            let mut ops = 0;
            let mark = Mark::now();
            while elapsed_ns(mark.t0) < seg_ns {
                ops += step(&mut lat);
            }
            let (ns, steal) = mark.end();
            out.add(ns, steal, ops, &mut lat);
            between();
        }
        out
    }

    /// Adds a segment of `ns` with `steal` ticks stolen that completed `ops`
    /// operations with the given latency samples.
    pub fn add(&mut self, ns: u64, steal: u64, ops: u64, latency: &mut [u64]) {
        self.segs.push(Segment {
            ops,
            rate: ratio(ops as f64, ns as f64 * 1e-9),
            latency: LATENCY_QUANTILES.map(|q| percentile(latency, q)),
            samples: latency.len() as u64,
            steal,
        });
    }

    /// The least-stolen quarter of the segments (at least one).
    fn clean(&self) -> Vec<Segment> {
        let mut steals: Vec<u64> = self.segs.iter().map(|s| s.steal).collect();
        let limit = percentile(&mut steals, 0.25);
        self.segs
            .iter()
            .filter(|s| s.steal as f64 <= limit)
            .copied()
            .collect()
    }

    /// Operations completed over the whole phase.
    pub fn ops(&self) -> u64 {
        self.segs.iter().map(|s| s.ops).sum()
    }

    /// Latency samples in the segments the metrics come from.
    pub fn samples(&self) -> u64 {
        self.clean().iter().map(|s| s.samples).sum()
    }

    /// Operations per second reached in three quarters of the clean
    /// segments.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self.clean().iter().map(|s| s.rate).collect();
        quantile(&rates, 0.25)
    }

    /// The `i`-th of [`LATENCY_QUANTILES`] (ns), as reached in three
    /// quarters of the clean segments.
    pub fn latency(&self, i: usize) -> f64 {
        let lat: Vec<f64> = self.clean().iter().map(|s| s.latency[i]).collect();
        quantile(&lat, 0.75)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn interpolated_quantiles() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.75), 3.25);
        assert_eq!(quantile(&[5.0], 0.25), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spans_keep_exact_totals() {
        let mut s = Spans::default();
        s.record(10, true);
        s.record(30, false);
        assert_eq!(s.calls(), 2);
        assert_eq!(s.busy_ns(), 40);
        assert_eq!(s.useful_frac(), 0.5);
        assert_eq!(s.percentile(0.5), 10.0);
    }
}
