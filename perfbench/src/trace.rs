//! Spans recorded by the benchmark around its own calls into each layer,
//! and the counters the program exports, read as deltas over a window.
//!
//! A span is named `<layer>.<what>`, where the layer is a crate name. A
//! span's self time is its duration minus the time its child spans cover.
//! Spans opened with [`Tracer::kspan`] run kernels on the calling thread:
//! the kernel time inside them (from `tfe_kernel_time_ns`) is moved from
//! their layer to `tensor`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tfe_metrics::{Histogram, SampleValue, Snapshot};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Kernel nanoseconds observed while the span was open (`kspan` only).
    pub kernel_ns: Option<u64>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    kernel: Option<Arc<Histogram>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), kernel: None }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn kernel_ns(&mut self) -> u64 {
        self.kernel
            .get_or_insert_with(|| {
                tfe_metrics::histogram(
                    "tfe_kernel_time_ns",
                    "Wall-clock nanoseconds per compute-kernel invocation (eager and staged)",
                    tfe_metrics::DEFAULT_NS_BUCKETS,
                )
            })
            .read()
            .sum
    }

    fn open<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
        kernels: bool,
    ) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let k0 = if kernels { Some(self.kernel_ns()) } else { None };
        let idx = self.spans.len();
        let t0 = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            kernel_ns: None,
        });
        let depth = self.stack.len();
        self.stack.push(idx);
        let r = f(self);
        let t1 = Instant::now();
        let end_ns = (t1 - self.epoch).as_nanos() as u64;
        // Spans left open by a panic caught inside `f` end here.
        for &open in &self.stack[depth + 1..] {
            self.spans[open].end_ns = end_ns;
        }
        self.stack.truncate(depth);
        let k = k0.map(|k0| self.kernel_ns().saturating_sub(k0));
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.kernel_ns = k;
        (r, (t1 - t0).as_secs_f64())
    }

    /// Time `f`; when tracing, record it as a span. Returns the result and
    /// the elapsed seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.open(name, f, false)
    }

    /// As [`Tracer::span`], for a call whose kernels run on this thread.
    pub fn kspan<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.open(name, f, true)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as JSON: `[{"name", "start_ns", "end_ns", "parent"}]`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Self time per layer (nanoseconds) over `spans`, which must hold whole
/// span trees. Root spans (layer `step`) are the benchmark's own step
/// envelopes: their self time is the unattributed time.
pub fn layer_self_ns(spans: &[Span], base: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_kernel = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                child_ns[p] += s.end_ns - s.start_ns;
                child_kernel[p] += s.kernel_ns.unwrap_or(0);
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let kernel = s.kernel_ns.map_or(0, |k| k.saturating_sub(child_kernel[i]).min(self_ns));
        *out.entry(layer).or_default() += self_ns - kernel;
        if kernel > 0 {
            *out.entry("tensor").or_default() += kernel;
        }
    }
    out
}

/// Total duration of the spans in `spans` named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
}

/// The program's exported counters at one instant.
#[derive(Clone)]
pub struct Counters {
    snap: Snapshot,
    pub exec: tfe_runtime::context::ExecStats,
}

impl Counters {
    pub fn read() -> Counters {
        Counters { snap: tfe_metrics::snapshot(), exec: tfe_runtime::context::exec_stats() }
    }

    /// A counter or histogram sum, added over every label of the family.
    pub fn total(&self, name: &str) -> f64 {
        self.snap.family(name).map_or(0.0, |f| {
            f.samples
                .iter()
                .map(|s| match &s.value {
                    SampleValue::Counter(v) => *v as f64,
                    SampleValue::Gauge(v) => *v as f64,
                    SampleValue::Histogram(h) => h.sum as f64,
                })
                .sum()
        })
    }

    /// `self − earlier` for [`Counters::total`].
    pub fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        self.total(name) - earlier.total(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "step.x", start_ns: 0, end_ns: 100, parent: None, kernel_ns: None },
            Span { name: "nn.f", start_ns: 10, end_ns: 60, parent: Some(0), kernel_ns: Some(30) },
            Span { name: "dist.g", start_ns: 60, end_ns: 90, parent: Some(0), kernel_ns: None },
        ];
        let m = layer_self_ns(&spans, 0);
        assert_eq!(m["step"], 20);
        assert_eq!(m["nn"], 20);
        assert_eq!(m["tensor"], 30);
        assert_eq!(m["dist"], 30);
        assert_eq!(m.values().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_when_on() {
        let mut t = Tracer::new(true);
        t.span("step.a", |t| t.span("core.b", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false);
        let (_, secs) = off.span("step.a", |_| ());
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
