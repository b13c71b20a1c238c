//! Sample statistics, seeded input generation, host context and the JSON
//! the benchmark prints — everything here is independent of the library
//! under test.

use std::fmt::Write as _;

/// Timings (or any values) collected over a run.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Linear-interpolated quantile `q` in [0, 1]; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
    /// samples beyond it, as `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.len() as f64;
        let p = [99.9, 99.0, 95.0, 90.0, 50.0]
            .into_iter()
            .find(|p| n * (100.0 - p) >= 1000.0)
            .unwrap_or(50.0);
        (p, self.quantile(p / 100.0))
    }
}

/// SplitMix64: the benchmark's own generator, so the inputs the program
/// receives do not depend on the program's RNG.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [lo, hi).
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * u
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = (self.uniform(0.0, 1.0) as f64).max(1e-12);
        let u2 = self.uniform(0.0, 1.0) as f64;
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so it is left out of the total.
    let total: u64 = v.iter().take(8).sum();
    Some((v.get(7).copied().unwrap_or(0), total))
}

/// Host context recorded with every run, so a noisy run can be told apart
/// from a slow program.
pub struct Host {
    start: Option<(u64, u64)>,
}

impl Host {
    pub fn start() -> Host {
        Host { start: cpu_jiffies() }
    }

    /// One report line: cores, thread setting, and the share of CPU time
    /// stolen by the hypervisor since [`Host::start`].
    pub fn describe(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let threads = std::env::var("TFE_NUM_THREADS").unwrap_or_else(|_| "unset".into());
        let steal = match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "n/a".into(),
        };
        format!("host: nproc={nproc} TFE_NUM_THREADS={threads} steal_share={steal}")
    }
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// JSON number: non-finite values have no JSON form and become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(Samples(vec![1.0; 100]).tail().0, 90.0);
        assert_eq!(Samples(vec![1.0; 1000]).tail().0, 99.0);
        assert_eq!(Samples(vec![1.0; 5]).tail().0, 50.0);
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = Gen::new(7, 1);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(Gen::new(7, 1).next_u64(), Gen::new(8, 1).next_u64());
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(3, 0, &[metric("a", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
