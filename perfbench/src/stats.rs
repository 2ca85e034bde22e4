//! Sample summaries and process measurements.

use std::time::Duration;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples needed beyond a percentile before it may stand as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Capacity reserved up front, so sample storage never reallocates and
/// the peak RSS does not step with the number of operations a run fits.
const RESERVED_SAMPLES: usize = 1 << 20;

/// A set of latency samples, in seconds.
#[derive(Clone, Debug)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            values: Vec::with_capacity(RESERVED_SAMPLES),
            sorted: true,
        }
    }
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_secs(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, s: f64) {
        self.values.push(s);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The sample at percentile `p` (nearest rank below); 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let idx = ((p / 100.0) * (self.values.len() - 1) as f64).floor() as usize;
        self.values[idx]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest percentile of the ladder with at least ten samples
    /// beyond it: `(percentile, value)`.
    pub fn tail(&mut self) -> (f64, f64) {
        let n = self.values.len();
        let mut chosen = TAIL_LADDER[0];
        for p in TAIL_LADDER {
            let idx = ((p / 100.0) * n.saturating_sub(1) as f64).floor() as usize;
            if n.saturating_sub(idx + 1) >= TAIL_MIN_BEYOND {
                chosen = p;
            }
        }
        (chosen, self.percentile(chosen))
    }
}

/// Operations per block of the blocked tail: enough for ten samples
/// beyond p99.
const TAIL_BLOCK: usize = 1000;

/// Latency of each closed-loop operation, in order: the time its caller
/// was blocked. Throughput and tail are taken per block of consecutive
/// operations and reported as the median over blocks, so a stall of the
/// machine moves one block, not the figure.
#[derive(Debug)]
pub struct Ops {
    secs: Vec<f64>,
}

impl Default for Ops {
    fn default() -> Ops {
        Ops {
            secs: Vec::with_capacity(RESERVED_SAMPLES),
        }
    }
}

impl Ops {
    pub fn push(&mut self, d: Duration) {
        self.secs.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }

    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn block_samples(&self, blocks: usize) -> impl Iterator<Item = Samples> + '_ {
        let n = self.secs.len();
        let blocks = blocks.clamp(1, n.max(1));
        (0..blocks).map(move |b| {
            let mut s = Samples::default();
            for &v in &self.secs[b * n / blocks..(b + 1) * n / blocks] {
                s.push_secs(v);
            }
            s
        })
    }

    pub fn median(&self) -> f64 {
        self.block_samples(1).next().map_or(0.0, |mut s| s.median())
    }

    /// Operations per busy second: the median over `blocks` blocks.
    pub fn per_second(&self, blocks: usize) -> f64 {
        let mut rates = Samples::default();
        for b in self.block_samples(blocks) {
            rates.push_secs(b.len() as f64 / b.sum().max(1e-12));
        }
        rates.median()
    }

    /// `(percentile, value)`: each block of at least [`TAIL_BLOCK`]
    /// operations (one block for shorter runs) reports its
    /// [`Samples::tail`]; the value is the median over blocks.
    pub fn tail(&self) -> (f64, f64) {
        let mut pct = TAIL_LADDER[0];
        let mut values = Samples::default();
        for mut b in self.block_samples(self.secs.len() / TAIL_BLOCK) {
            let (p, v) = b.tail();
            pct = p;
            values.push_secs(v);
        }
        (pct, values.median())
    }
}

/// Traced and untraced latencies grouped by a stratum of comparable
/// operations, for the tracing overhead.
#[derive(Debug, Default)]
pub struct Overhead {
    strata: std::collections::BTreeMap<u64, [Vec<f64>; 2]>,
}

impl Overhead {
    pub fn add(&mut self, stratum: u64, traced: bool, d: Duration) {
        self.strata.entry(stratum).or_default()[traced as usize].push(d.as_secs_f64());
    }

    /// Median over strata with both kinds of the ratio of their
    /// medians, as a percentage above 1; 0 when no stratum has both.
    pub fn pct(&self) -> f64 {
        let median = |v: &[f64]| {
            let mut s = Samples::default();
            v.iter().for_each(|&x| s.push_secs(x));
            s.median()
        };
        let mut ratios = Samples::default();
        for [untraced, traced] in self.strata.values() {
            if !untraced.is_empty() && !traced.is_empty() {
                ratios.push_secs(median(traced) / median(untraced));
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            (ratios.median() - 1.0) * 100.0
        }
    }
}

/// CPU time the calling thread has run (`/proc/thread-self/schedstat`).
pub fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("the benchmark runs on Linux, which has /proc/thread-self/schedstat");
    let ns = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
        .expect("schedstat starts with the run time in ns");
    Duration::from_nanos(ns)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Running mean of a per-operation count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..120 {
            s.push_secs(i as f64);
        }
        assert_eq!(s.tail().0, 90.0);
        let mut small = Samples::default();
        for i in 0..15 {
            small.push_secs(i as f64);
        }
        assert_eq!(small.tail().0, 50.0);
        let mut big = Samples::default();
        for i in 0..2000 {
            big.push_secs(i as f64);
        }
        assert_eq!(big.tail(), (99.0, 1979.0));
    }

    #[test]
    fn blocked_tail_ignores_one_stalled_block() {
        let mut ops = Ops::default();
        for block in 0..5 {
            for i in 0..1000 {
                let stall = block == 2 && i % 10 == 0;
                let ms = if stall { 50 } else { 1 + i % 3 };
                ops.push(Duration::from_millis(ms));
            }
        }
        assert_eq!(ops.tail(), (99.0, 0.003));
        assert!((ops.per_second(5) - 500.0).abs() < 1.0);
    }
}
