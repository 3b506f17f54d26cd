//! Small shared pieces: the seeded RNG the request lists are drawn from,
//! order statistics, `VmHWM`, and the pure-CPU canary.

use std::time::Instant;

/// SplitMix64. Request lists must be a pure function of `--seed`, so the
/// driver carries its own generator instead of borrowing the engine's.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf domain");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Sorts `values` and returns the percentile `p` in `[0, 1]` by linear
/// interpolation between closest ranks.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_by(f64::total_cmp);
    let pos = p * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    ((1.0 - p) * n as f64).floor() as usize
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed pure-CPU loop (no allocation, no memory traffic), timed before
/// and after every measured window: when two runs of one commit disagree,
/// a canary that moved with them blames the host, one that did not blames
/// the program.
pub fn canary_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}
