//! The run: a set-up, a warm-up, then rounds that interleave one window of
//! eager, async, staged and data-parallel steps and one checkpoint round
//! trip until the time is up, with further fresh set-ups spread over the
//! rounds. Every step is checked.
//!
//! The traced run begins with one fixed, untraced window per mode whose
//! counter deltas are the exact per-step counts. Its rounds then run
//! windows twice as long that trace every second step, and one untraced
//! and one traced checkpoint.

use crate::check::Checker;
use crate::measure::{metric, peak_rss_mib, Host, Metric, Samples};
use crate::rig::{codec_round_trip, Out, Rig};
use crate::trace::{layer_self_ns, total_ns, Counters, Span, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A fresh set-up from `(seed, tag, scratch directory)`.
pub type Build = fn(u64, usize, &Path) -> Result<Box<dyn Rig>, String>;

pub struct Workload {
    pub name: &'static str,
    /// Fresh set-ups per run: the one whose steps are timed, and the rest
    /// spread over the run. `setup_s` and `trace_ms` are their medians.
    pub setups: usize,
    /// Eager, async and staged steps per window.
    pub window: usize,
    /// Data-parallel steps per window.
    pub dp_window: usize,
    pub build: Build,
}

/// A traced step may take this share more or less than the untraced step
/// just before it (median over the run) before the traced run's accounting
/// check fails.
pub const ACCOUNTING_TOL: f64 = 0.25;

/// Rounds run even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Mode {
    Eager,
    Async,
    Staged,
    Dp,
}

const MODES: [Mode; 4] = [Mode::Eager, Mode::Async, Mode::Staged, Mode::Dp];

impl Mode {
    fn root(self) -> &'static str {
        match self {
            Mode::Eager => "step.eager",
            Mode::Async => "step.async",
            Mode::Staged => "step.staged",
            Mode::Dp => "step.dp",
        }
    }
}

/// Step and checkpoint times of one run, and the traced run's counters.
#[derive(Default)]
struct Timings {
    steps: BTreeMap<Mode, Samples>,
    traced: BTreeMap<Mode, Samples>,
    /// Each traced step's time over the untraced step just before it.
    paired: BTreeMap<Mode, Samples>,
    save: Samples,
    restore: Samples,
    /// Counter deltas accumulated over the alternating windows of each
    /// mode, and the steps those windows ran.
    deltas: BTreeMap<Mode, BTreeMap<&'static str, f64>>,
    window_steps: BTreeMap<Mode, f64>,
    ckpts_traced: f64,
    codec_bytes: f64,
    codec_secs: f64,
}

/// Counters read as deltas around each alternating window.
const COUNTERS: &[&str] = &[
    "tfe_eager_ops_dispatched_total",
    "tfe_kernel_time_ns",
    "tfe_pool_jobs_total",
    "tfe_pool_queue_wait_ns",
    "tfe_fused_tiled_elements_total",
    "tfe_dist_rpc_ns",
];

fn exec_deltas(after: &Counters, before: &Counters) -> [(&'static str, f64); 4] {
    let (a, b) = (&after.exec, &before.exec);
    [
        ("nodes", (a.nodes_executed - b.nodes_executed) as f64),
        ("kernels", (a.kernels_launched - b.kernels_launched) as f64),
        ("intra_par", (a.intra_par_kernels - b.intra_par_kernels) as f64),
        ("intra_serial", (a.intra_serial_kernels - b.intra_serial_kernels) as f64),
    ]
}

struct Run<'a> {
    rig: Box<dyn Rig>,
    chk: &'a mut Checker,
    tr: Tracer,
    /// Eager outputs by step index: the reference of the async and staged
    /// steps with the same index.
    refs: BTreeMap<usize, Out>,
    next: usize,
    next_dp: usize,
    t: Timings,
}

impl Run<'_> {
    /// Steps `start..start + n` of `mode`, each timed and checked. With
    /// `alternate`, every second step is traced, and the program's counters
    /// are read around the window.
    fn window(&mut self, mode: Mode, start: usize, n: usize, record: bool, alternate: bool) {
        let before = alternate.then(Counters::read);
        for i in start..start + n {
            let traced = alternate && (i - start) % 2 == 1;
            self.tr.set_on(traced);
            let rig = &mut self.rig;
            let (out, secs) = self.tr.span(mode.root(), |tr| {
                Checker::guard(|| match mode {
                    Mode::Eager => rig.eager(i, tr),
                    Mode::Async => rig.run_async(i, tr),
                    Mode::Staged => rig.staged(i, tr),
                    Mode::Dp => rig.dp(i, tr),
                })
            });
            // A failed step's time is not a step time.
            if record && out.is_ok() {
                let into = if traced { &mut self.t.traced } else { &mut self.t.steps };
                into.entry(mode).or_default().push(secs);
                if traced {
                    if let Some(&before) = self.t.steps.get(&mode).and_then(|s| s.0.last()) {
                        self.t.paired.entry(mode).or_default().push(secs / before);
                    }
                }
            }
            let checked = out.and_then(|v| {
                self.rig.validate(&v)?;
                Ok(v)
            });
            let what = format!("{mode:?} step {i}");
            match mode {
                Mode::Eager => {
                    self.chk.record(&what, checked.as_ref().map(|_| ()).map_err(Clone::clone));
                    self.refs.insert(i, checked);
                }
                Mode::Async | Mode::Staged => {
                    let ok = checked.and_then(|v| match self.refs.get(&i) {
                        Some(Ok(r)) => self.chk.close(&v, r),
                        _ => Err("no eager reference".to_string()),
                    });
                    self.chk.record(&what, ok);
                }
                Mode::Dp => {
                    let rig = &mut self.rig;
                    let ok = checked
                        .and_then(|v| Checker::guard(|| rig.dp_reference(i, &v)))
                        .and_then(|(got, reference)| self.chk.bitwise(&got, &reference));
                    self.chk.record(&what, ok);
                }
            }
        }
        self.tr.set_on(false);
        if let Some(before) = before {
            let after = Counters::read();
            let d = self.t.deltas.entry(mode).or_default();
            for &name in COUNTERS {
                *d.entry(name).or_default() += after.delta(&before, name);
            }
            for (name, v) in exec_deltas(&after, &before) {
                *d.entry(name).or_default() += v;
            }
            *self.t.window_steps.entry(mode).or_default() += n as f64;
        }
    }

    /// A window of every step mode; the eager, async and staged windows
    /// cover the same step indices. `alternate` windows are twice as long
    /// and trace every second step.
    fn windows(&mut self, w: usize, dp_w: usize, record: bool, alternate: bool) {
        let k = if alternate { 2 } else { 1 };
        for mode in MODES {
            let (base, n) = if mode == Mode::Dp { (self.next_dp, dp_w) } else { (self.next, w) };
            self.window(mode, base, k * n, record, alternate);
        }
        self.next += k * w;
        self.next_dp += k * dp_w;
        self.refs.retain(|&i, _| i >= self.next);
    }

    /// One checkpoint round trip, timed and checked. Returns its size.
    fn checkpoint(&mut self, record: bool) -> u64 {
        self.rig.set_position(self.next);
        let rig = &mut self.rig;
        let tr = &mut self.tr;
        let c = Checker::guard(|| rig.checkpoint(tr));
        let mut bytes = 0;
        let ok = c.and_then(|c| {
            if record && self.tr.on() {
                self.t.ckpts_traced += 1.0;
            } else if record {
                self.t.save.push(c.save_s);
                self.t.restore.push(c.restore_s);
            }
            bytes = c.bytes;
            self.chk.bitwise(&c.got, &c.reference)
        });
        self.chk.record("checkpoint", ok);
        bytes
    }

    /// One JSON codec round trip of the step's tensors.
    fn codec(&mut self) {
        let (bytes, secs, ok) = codec_round_trip(&self.rig.codec_tensors());
        self.t.codec_bytes += bytes as f64;
        self.t.codec_secs += secs;
        self.chk.record("codec", ok);
    }
}

/// Fresh set-ups and what each measured.
#[derive(Default)]
struct Setups {
    done: usize,
    secs: Samples,
    trace_ms: Samples,
    /// Traced runs only: the pass pipeline rerun on each set-up's raw
    /// trace, and the trace time without it.
    traced: bool,
    optimize_ms: Samples,
    trace_only_ms: Samples,
}

impl Setups {
    /// One fresh set-up, under function names of its own so that its
    /// staged step is traced anew.
    fn build(
        &mut self,
        wl: &Workload,
        seed: u64,
        dir: &Path,
        chk: &mut Checker,
    ) -> Option<Box<dyn Rig>> {
        let tag = self.done;
        self.done += 1;
        let t0 = Instant::now();
        let built = Checker::guard(|| (wl.build)(seed, tag, dir));
        let secs = t0.elapsed().as_secs_f64();
        match built {
            Ok(r) => {
                self.secs.push(secs);
                let (t, c) = r.trace_secs();
                self.trace_ms.push(t * 1e3);
                if self.traced {
                    let optimize = optimize_ms(&r.concrete());
                    self.optimize_ms.push(optimize);
                    self.trace_only_ms.push(c * 1e3 - optimize);
                }
                chk.record("setup", Ok(()));
                Some(r)
            }
            Err(e) => {
                chk.record("setup", Err(e));
                None
            }
        }
    }
}

/// Milliseconds the pass pipeline takes on `concrete`'s raw trace, with
/// the constant-folding evaluator the trace uses.
fn optimize_ms(concrete: &tfe_core::ConcreteFunction) -> f64 {
    let evaluator = |node: &tfe_graph::Node,
                     inputs: &[std::sync::Arc<tfe_tensor::TensorData>]|
     -> Result<Vec<tfe_tensor::TensorData>, String> {
        tfe_runtime::kernels::run_kernel(&node.op, &node.attrs, inputs).map_err(|e| e.to_string())
    };
    let t0 = Instant::now();
    let _ = tfe_graph::passes::optimize_with_stats(
        &concrete.raw,
        &tfe_graph::passes::OptimizeOptions::default(),
        Some(&evaluator),
    );
    t0.elapsed().as_secs_f64() * 1e3
}

pub struct Outcome {
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Run `wl` for `seconds` of measurement after set-up.
pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    chk: &mut Checker,
    dir: &Path,
) -> Result<Outcome, String> {
    let host = Host::start();
    let mut setups = Setups { traced, ..Setups::default() };
    let rig = setups.build(wl, seed, dir, chk).ok_or("the first set-up failed")?;
    let first = rig.first_staged();
    let mut run = Run {
        rig,
        chk,
        tr: Tracer::new(false),
        refs: BTreeMap::new(),
        next: 0,
        next_dp: 0,
        t: Timings::default(),
    };

    // Warm-up: step 0 of eager and async against the staged first call,
    // then one untimed window of everything.
    run.window(Mode::Eager, 0, 1, false, false);
    let ok = match (&first, run.refs.get(&0)) {
        (Ok(s), Some(Ok(e))) => run.chk.close(s, e),
        _ => Err("staged first call or eager step 0 failed".to_string()),
    };
    run.chk.record("staged step 0", ok);
    run.window(Mode::Async, 0, 1, false, false);
    run.next = 1;
    run.windows(wl.window, wl.dp_window, false, false);
    run.checkpoint(false);

    // The exact counts: one fixed untraced window per mode.
    let mut counts: Vec<(&str, f64)> = Vec::new();
    if traced {
        let (i, j) = (run.next, run.next_dp);
        let c0 = Counters::read();
        run.window(Mode::Eager, i, wl.window, false, false);
        let c1 = Counters::read();
        run.window(Mode::Async, i, wl.window, false, false);
        let c2 = Counters::read();
        run.window(Mode::Staged, i, wl.window, false, false);
        let c3 = Counters::read();
        run.window(Mode::Dp, j, wl.dp_window, false, false);
        let c4 = Counters::read();
        run.next += wl.window;
        run.next_dp += wl.dp_window;
        run.refs.clear();
        let bytes = run.checkpoint(false);
        let (w, dp_w) = (wl.window as f64, wl.dp_window as f64);
        let wire = c4.delta(&c3, "tfe_dist_bytes_sent_total")
            + c4.delta(&c3, "tfe_dist_bytes_received_total");
        counts = vec![
            ("runtime.eager_ops_per_step", c1.delta(&c0, "tfe_eager_ops_dispatched_total") / w),
            ("runtime.executor_nodes_per_call", exec_deltas(&c3, &c2)[0].1 / w),
            ("tensor.kernels_per_step", exec_deltas(&c3, &c2)[1].1 / w),
            ("dist.wire_bytes_per_step", wire / dp_w),
            ("dist.rpcs_per_step", c4.delta(&c3, "tfe_dist_rpcs_total") / dp_w),
            ("state.ckpt_bytes", bytes as f64),
        ];
    }

    let stats0 = run.rig.func().stats();
    let retry0 = Counters::read();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        // The other set-ups are spread over the run, so that they meet the
        // same host conditions as the steps.
        if setups.done < wl.setups
            && t0.elapsed().as_secs_f64() >= seconds * (setups.done - 1) as f64 / wl.setups as f64
        {
            drop(setups.build(wl, seed, dir, run.chk));
        }
        run.windows(wl.window, wl.dp_window, true, traced);
        run.checkpoint(true);
        if traced {
            run.tr.set_on(true);
            run.checkpoint(true);
            run.tr.set_on(false);
            run.codec();
        }
        rounds += 1;
    }
    let stats1 = run.rig.func().stats();
    let calls = (stats1.calls() - stats0.calls()) as f64;
    let hit_rate = (stats1.hits - stats0.hits) as f64 / calls.max(1.0);
    let retraces = (stats1.retraces - stats0.retraces) as f64;
    let ok = if hit_rate == 1.0 && retraces == 0.0 {
        Ok(())
    } else {
        Err(format!("timed loop: hit rate {hit_rate}, {retraces} retraces"))
    };
    run.chk.record("trace cache", ok);

    let mut lines = vec![host.describe()];
    lines.push(format!(
        "{}: {} set-ups (median {:.3} s, trace {:.3} ms), {rounds} rounds in {:.1} s",
        wl.name,
        setups.secs.len(),
        setups.secs.median(),
        setups.trace_ms.median(),
        t0.elapsed().as_secs_f64()
    ));
    let ex = run.rig.examples();
    for mode in MODES {
        let s = run.t.steps.get(&mode).cloned().unwrap_or_default();
        let (p, tail) = s.tail();
        lines.push(format!(
            "  {mode:?}: {ex} examples/step, step median {:.3} ms, p{p} {:.3} ms, n={}",
            s.median() * 1e3,
            tail * 1e3,
            s.len()
        ));
    }

    let metrics = if traced {
        per_layer(
            &mut run, &counts, &setups, hit_rate, retraces, &retry0, &mut lines, dir, wl, seed,
        )
    } else {
        let tput = |m: Mode| ex as f64 / run.t.steps.get(&m).map_or(f64::NAN, |s| s.median());
        vec![
            metric("setup_s", setups.secs.median(), "s"),
            metric("trace_ms", setups.trace_ms.median(), "ms"),
            metric("eager_examples_per_s", tput(Mode::Eager), "ex/s"),
            metric("async_examples_per_s", tput(Mode::Async), "ex/s"),
            metric("staged_examples_per_s", tput(Mode::Staged), "ex/s"),
            metric("dp_examples_per_s", tput(Mode::Dp), "ex/s"),
            metric("ckpt_save_ms", run.t.save.median() * 1e3, "ms"),
            metric("ckpt_restore_ms", run.t.restore.median() * 1e3, "ms"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric(
                "ok_share",
                (run.chk.attempted - run.chk.failed) as f64 / run.chk.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };
    Ok(Outcome { lines, metrics })
}

/// The traced run's per-layer metrics and its accounting check.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    run: &mut Run,
    counts: &[(&str, f64)],
    setups: &Setups,
    hit_rate: f64,
    retraces: f64,
    retry0: &Counters,
    lines: &mut Vec<String>,
    dir: &Path,
    wl: &Workload,
    seed: u64,
) -> Vec<Metric> {
    let spans = run.tr.spans();
    // Span trees are contiguous: a root is followed by its descendants.
    let mut roots: Vec<usize> =
        spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()).map(|(i, _)| i).collect();
    roots.push(spans.len());
    let mut by_mode: BTreeMap<Mode, Vec<(usize, &[Span])>> = BTreeMap::new();
    let mut ckpt_trees: Vec<&[Span]> = Vec::new();
    for pair in roots.windows(2) {
        let tree = &spans[pair[0]..pair[1]];
        match MODES.iter().find(|m| m.root() == tree[0].name) {
            Some(m) => by_mode.entry(*m).or_default().push((pair[0], tree)),
            None => ckpt_trees.push(tree),
        }
    }

    // Accounting: per traced step, the layer self-times (the step span's
    // own self time being the unattributed part) add up to the step; and
    // the traced step's median is within ACCOUNTING_TOL of the untraced
    // step's median, measured on alternate steps of the same windows.
    let mut problems = Vec::new();
    let (mut unattributed, mut traced_total) = (0u64, 0u64);
    let mut overhead = Samples::default();
    for mode in MODES {
        let trees = by_mode.get(&mode).map_or(&[][..], |t| t.as_slice());
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        let mut total = 0u64;
        for &(base, tree) in trees {
            for (k, v) in layer_self_ns(tree, base) {
                *layers.entry(k).or_default() += v;
            }
            total += tree[0].end_ns - tree[0].start_ns;
        }
        if layers.values().sum::<u64>() != total {
            problems.push(format!("{mode:?}: layer self-times do not add up to the steps"));
        }
        unattributed += layers.get("step").copied().unwrap_or(0);
        traced_total += total;
        let traced = run.t.traced.get(&mode).map_or(f64::NAN, |s| s.median());
        let untraced = run.t.steps.get(&mode).map_or(f64::NAN, |s| s.median());
        let err = run.t.paired.get(&mode).map_or(f64::NAN, |s| s.median()) - 1.0;
        overhead.push(err);
        let within = err.abs() <= ACCOUNTING_TOL;
        if !within {
            problems.push(format!("{mode:?}: traced steps {:+.1}% off untraced", err * 100.0));
        }
        let steps = trees.len().max(1) as f64;
        let parts: Vec<String> = layers
            .iter()
            .map(|(k, v)| {
                let k = if *k == "step" { "unattributed" } else { k };
                format!("{k} {:.3}", *v as f64 / steps / 1e6)
            })
            .collect();
        lines.push(format!(
            "  layers {mode:?}, mean ms per traced step: {} (sum {:.3}); median traced {:.3} \
             untraced {:.3}; traced over untraced neighbour {:+.1}%",
            parts.join(", "),
            total as f64 / steps / 1e6,
            traced * 1e3,
            untraced * 1e3,
            err * 100.0
        ));
    }
    run.chk
        .record("accounting", if problems.is_empty() { Ok(()) } else { Err(problems.join("; ")) });

    let t = &run.t;
    // Span metrics: per traced step. Counter metrics: per step of the
    // alternating windows, traced and untraced alike.
    let per = |mode: Mode, name: &str| -> f64 {
        let trees = by_mode.get(&mode).map_or(&[][..], |t| t.as_slice());
        let ns: u64 = trees.iter().map(|(_, tr)| total_ns(tr, name)).sum();
        ns as f64 / trees.len().max(1) as f64
    };
    let n = |mode: Mode| t.window_steps.get(&mode).copied().unwrap_or(0.0).max(1.0);
    let d = |mode: Mode, name: &str| -> f64 {
        t.deltas.get(&mode).and_then(|d| d.get(name)).copied().unwrap_or(0.0) / n(mode)
    };
    let window_ns = |mode: Mode| {
        let sum = |m: &BTreeMap<Mode, Samples>| m.get(&mode).map_or(0.0, |s| s.sum());
        (sum(&t.steps) + sum(&t.traced)) * 1e9 / n(mode)
    };
    let ckpt = |name: &str| -> f64 {
        let ns: u64 = ckpt_trees.iter().map(|tr| total_ns(tr, name)).sum();
        ns as f64 / t.ckpts_traced.max(1.0) / 1e6
    };
    let c = |name: &str| counts.iter().find(|(k, _)| *k == name).map_or(f64::NAN, |(_, v)| *v);
    let end = Counters::read();

    let concrete = run.rig.concrete();
    let stats = &concrete.opt_stats;

    lines.push(format!(
        "  counts: {}",
        counts.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    ));
    let span_path = dir.parent().unwrap_or(dir).join(format!("spans-{}-seed{seed}.json", wl.name));
    lines.push(match run.tr.write(&span_path) {
        Ok(()) => format!("  spans: {} written to {}", spans.len(), span_path.display()),
        Err(e) => format!("  spans: not written: {e}"),
    });

    let (eager, staged, dp) = (Mode::Eager, Mode::Staged, Mode::Dp);
    let kernel = "tfe_kernel_time_ns";
    let intra = d(staged, "intra_par") + d(staged, "intra_serial");
    vec![
        metric("runtime.eager_ops_per_step", c("runtime.eager_ops_per_step"), "count"),
        metric(
            "runtime.dispatch_us_per_op",
            (window_ns(eager) - d(eager, kernel))
                / d(eager, "tfe_eager_ops_dispatched_total").max(1e-9)
                / 1e3,
            "us",
        ),
        metric(
            "runtime.async_issue_ms_per_step",
            per(Mode::Async, "runtime.async_issue") / 1e6,
            "ms",
        ),
        metric(
            "runtime.async_wait_ms_per_step",
            per(Mode::Async, "runtime.async_wait") / 1e6,
            "ms",
        ),
        metric("runtime.async_queue_depth_peak", end.total("tfe_async_queue_depth_peak"), "count"),
        metric("runtime.executor_nodes_per_call", c("runtime.executor_nodes_per_call"), "count"),
        metric(
            "runtime.executor_us_per_node",
            // Kernels of nodes the executor runs in parallel overlap, so
            // their summed time can exceed the call: then this floors at 0.
            (per(staged, "runtime.executor") - d(staged, kernel)).max(0.0)
                / d(staged, "nodes").max(1e-9)
                / 1e3,
            "us",
        ),
        metric(
            "runtime.executor_peak_live_mib",
            end.exec.peak_live_bytes as f64 / 1048576.0,
            "MiB",
        ),
        metric("tensor.kernel_ms_per_step.eager", d(eager, kernel) / 1e6, "ms"),
        metric("tensor.kernel_ms_per_step.staged", d(staged, kernel) / 1e6, "ms"),
        metric("tensor.kernels_per_step", c("tensor.kernels_per_step"), "count"),
        metric("parallel.pool_jobs_per_step", d(staged, "tfe_pool_jobs_total"), "count"),
        metric("parallel.pool_wait_us_per_step", d(staged, "tfe_pool_queue_wait_ns") / 1e3, "us"),
        metric(
            "parallel.intra_par_share",
            if intra > 0.0 { d(staged, "intra_par") / intra } else { 0.0 },
            "ratio",
        ),
        metric("core.cache_lookup_us_per_call", per(staged, "core.cache_lookup") / 1e3, "us"),
        metric("core.cache_hit_rate", hit_rate, "ratio"),
        metric("core.retraces", retraces, "count"),
        metric("core.trace_only_ms", setups.trace_only_ms.median(), "ms"),
        metric("graph.optimize_ms", setups.optimize_ms.median(), "ms"),
        metric("graph.nodes_raw", concrete.raw.nodes.len() as f64, "count"),
        metric("graph.nodes_optimized", concrete.function.nodes.len() as f64, "count"),
        metric("graph.rewrites", stats.rewrites.values().sum::<u64>() as f64, "count"),
        metric("graph.sweeps", stats.sweeps as f64, "count"),
        metric(
            "graph.fused_elements_per_step",
            d(staged, "tfe_fused_tiled_elements_total"),
            "count",
        ),
        metric("nn.forward_ms_per_step", per(eager, "nn.forward") / 1e6, "ms"),
        metric("autodiff.backward_ms_per_step", per(eager, "autodiff.backward") / 1e6, "ms"),
        metric("nn.optimizer_apply_ms_per_step", per(eager, "nn.optimizer_apply") / 1e6, "ms"),
        metric("state.ckpt_snapshot_ms", ckpt("state.ckpt_snapshot"), "ms"),
        metric("encode.ckpt_serialize_ms", ckpt("encode.ckpt_serialize"), "ms"),
        metric("state.ckpt_write_ms", ckpt("state.ckpt_write"), "ms"),
        metric("state.ckpt_read_ms", ckpt("state.ckpt_read"), "ms"),
        metric("encode.ckpt_parse_ms", ckpt("encode.ckpt_parse"), "ms"),
        metric("state.ckpt_apply_ms", ckpt("state.ckpt_apply"), "ms"),
        metric("state.ckpt_bytes", c("state.ckpt_bytes"), "B"),
        metric("dist.grad_call_ms_per_step", per(dp, "dist.grad_call") / 1e6, "ms"),
        metric("dist.allreduce_ms_per_step", per(dp, "dist.allreduce") / 1e6, "ms"),
        metric("dist.fetch_ms_per_step", per(dp, "dist.fetch") / 1e6, "ms"),
        metric("dist.wire_bytes_per_step", c("dist.wire_bytes_per_step"), "B"),
        metric("dist.rpcs_per_step", c("dist.rpcs_per_step"), "count"),
        metric("dist.rpc_ms_per_step", d(dp, "tfe_dist_rpc_ns") / 1e6, "ms"),
        metric("dist.rpc_retries", end.delta(retry0, "tfe_dist_rpc_retries_total"), "count"),
        metric("dist.rpc_timeouts", end.delta(retry0, "tfe_dist_rpc_timeouts_total"), "count"),
        metric("dist.rpc_failures", end.delta(retry0, "tfe_dist_rpc_failures_total"), "count"),
        metric(
            "encode.tensor_codec_us_per_kib",
            t.codec_secs * 1e6 / (t.codec_bytes / 1024.0).max(1e-9),
            "us/KiB",
        ),
        metric(
            "bench.unattributed_share",
            unattributed as f64 / traced_total.max(1) as f64,
            "ratio",
        ),
        metric("bench.trace_overhead_share", overhead.median(), "ratio"),
    ]
}
