//! What every workload provides once set up, and the checkpoint and codec
//! round trips the workloads share.

use crate::trace::Tracer;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use tfe_core::{ConcreteFunction, Func};
use tfe_encode::Value;
use tfe_runtime::Variable;
use tfe_state::{checkpoint, MutableState, Trackable, TrackableChild};
use tfe_tensor::TensorData;

/// A step's checked output (losses, chain states, …) or the error it hit.
pub type Out = Result<Vec<f64>, String>;

/// One fully set-up workload: models, inputs, staged functions and a
/// running cluster. Every step method advances its own copy of the state,
/// so eager, async and staged runs stay in lockstep on step index `i`.
pub trait Rig {
    /// Examples one step of any mode processes.
    fn examples(&self) -> usize;
    /// First-call latency of the staged step, in seconds, and the time of
    /// its `concrete_for` (trace and pass pipeline) alone.
    fn trace_secs(&self) -> (f64, f64);
    /// Output of that first staged call (step 0).
    fn first_staged(&self) -> Out;
    /// The staged step and its concrete function.
    fn func(&self) -> &Func;
    fn concrete(&self) -> Arc<ConcreteFunction>;

    fn eager(&mut self, i: usize, tr: &mut Tracer) -> Out;
    fn run_async(&mut self, i: usize, tr: &mut Tracer) -> Out;
    fn staged(&mut self, i: usize, tr: &mut Tracer) -> Out;
    /// Workload-specific checks of one step's output (finite values, …).
    fn validate(&self, out: &[f64]) -> Result<(), String>;

    /// One step over the two TCP workers.
    fn dp(&mut self, i: usize, tr: &mut Tracer) -> Out;
    /// After [`Rig::dp`]: the distributed state and the same state from
    /// the single-process mirror, which must agree bit for bit.
    fn dp_reference(&mut self, i: usize, out: &[f64]) -> Result<(Vec<f64>, Vec<f64>), String>;

    /// Record the dataset position (the next step index) for checkpoints.
    fn set_position(&mut self, i: usize);
    /// Save, clobber and restore the checkpointed state.
    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<Ckpt, String>;
    /// Tensors the codec micro-measure round-trips (the step's gradients
    /// or chain states).
    fn codec_tensors(&self) -> Vec<Arc<TensorData>>;
}

/// The dataset position, checkpointed with the model.
#[derive(Default)]
pub struct Position(AtomicI64);

impl Position {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::SeqCst);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::SeqCst)
    }
}

impl MutableState for Position {
    fn save_state(&self) -> Value {
        Value::Int(self.get())
    }

    fn restore_state(&self, value: &Value) -> Result<(), String> {
        self.set(value.as_i64().ok_or("position is not an integer")?);
        Ok(())
    }
}

/// Every variable reachable from `root`, in edge order.
pub fn collect_vars(root: &dyn Trackable, out: &mut Vec<Variable>) {
    for (_, child) in root.children() {
        match child {
            TrackableChild::Variable(v) => out.push(v),
            TrackableChild::Node(n) => collect_vars(n.as_ref(), out),
            TrackableChild::State(_) => {}
        }
    }
}

/// Values of `vars` (and the position) as one flat vector.
pub fn state_values(vars: &[Variable], pos: &Position) -> Vec<f64> {
    let mut out = vec![pos.get() as f64];
    for v in vars {
        out.extend(v.peek().to_f64_vec());
    }
    out
}

/// The outcome of one checkpoint round trip.
pub struct Ckpt {
    pub save_s: f64,
    pub restore_s: f64,
    pub bytes: u64,
    /// State after the restore, and before the save.
    pub got: Vec<f64>,
    pub reference: Vec<f64>,
}

/// Save `root` to `path`, overwrite every variable and the position, then
/// restore. Untraced, this calls `checkpoint::save` and `restore`; traced,
/// it makes their public parts one by one so each gets a span.
pub fn round_trip(
    root: &dyn Trackable,
    pos: &Position,
    path: &Path,
    tr: &mut Tracer,
) -> Result<Ckpt, String> {
    let mut vars = Vec::new();
    collect_vars(root, &mut vars);
    let reference = state_values(&vars, pos);
    let (saved, save_s) = tr.span("step.ckpt_save", |tr| save(root, path, tr));
    saved?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    for v in &vars {
        v.restore(TensorData::zeros(v.dtype(), v.shape().clone())).map_err(|e| e.to_string())?;
    }
    pos.set(-1);
    let (status, restore_s) = tr.span("step.ckpt_restore", |tr| restore(root, path, tr));
    let status = status?;
    if !status.is_complete() {
        return Err(format!("restore incomplete: {status:?}"));
    }
    Ok(Ckpt { save_s, restore_s, bytes, got: state_values(&vars, pos), reference })
}

fn save(root: &dyn Trackable, path: &Path, tr: &mut Tracer) -> Result<(), String> {
    if !tr.on() {
        return checkpoint::save(root, path).map_err(|e| e.to_string());
    }
    let (value, _) = tr.span("state.ckpt_snapshot", |_| {
        tfe_runtime::context::sync().map(|()| checkpoint::save_to_value(root))
    });
    let value = value.map_err(|e| e.to_string())?;
    let (text, _) = tr.span("encode.ckpt_serialize", |_| value.to_json_pretty());
    tr.span("state.ckpt_write", |_| std::fs::write(path, text)).0.map_err(|e| e.to_string())
}

fn restore(
    root: &dyn Trackable,
    path: &Path,
    tr: &mut Tracer,
) -> Result<checkpoint::RestoreStatus, String> {
    if !tr.on() {
        return checkpoint::restore(root, path).map_err(|e| e.to_string());
    }
    let (text, _) = tr.span("state.ckpt_read", |_| std::fs::read_to_string(path));
    let text = text.map_err(|e| e.to_string())?;
    let (value, _) = tr.span("encode.ckpt_parse", |_| Value::parse(&text));
    let value = value.map_err(|e| e.to_string())?;
    tr.span("state.ckpt_apply", |_| checkpoint::restore_from_value(root, &value))
        .0
        .map_err(|e| e.to_string())
}

/// Round-trip `tensors` through the JSON tensor codec. Returns the raw
/// bytes moved, the seconds taken, and whether every tensor came back bit
/// for bit.
pub fn codec_round_trip(tensors: &[Arc<TensorData>]) -> (u64, f64, Result<(), String>) {
    let raw: u64 = tensors.iter().map(|t| (t.num_elements() * t.dtype().size_bytes()) as u64).sum();
    let t0 = std::time::Instant::now();
    let back: Result<Vec<TensorData>, String> = tensors
        .iter()
        .map(|t| {
            let text = tfe_graph::serial::tensor_to_value(t).to_json();
            let v = Value::parse(&text).map_err(|e| e.to_string())?;
            tfe_graph::serial::tensor_from_value(&v).map_err(|e| e.to_string())
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let ok = back.and_then(|back| {
        for (a, b) in tensors.iter().zip(&back) {
            let same = a.shape() == b.shape()
                && a.to_f64_vec()
                    .iter()
                    .zip(b.to_f64_vec())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                return Err("tensor changed in the codec round trip".to_string());
            }
        }
        Ok(())
    });
    (raw, secs, ok)
}
