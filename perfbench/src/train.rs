//! Training workloads: a model, an optimizer, a loss and generated batches.
//! Eager, async and staged runs each train their own copy of the model from
//! the same initial weights on the same batches, so their losses must
//! agree. The data-parallel trainer runs over two TCP workers with ring
//! all-reduce; its mirror trains a fourth copy through
//! `DataParallel::local_step`, which must match it bit for bit.

use crate::measure::Gen;
use crate::rig::{round_trip, Ckpt, Out, Position, Rig};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tfe_autodiff::GradientTape;
use tfe_core::{Arg, ConcreteFunction, Func};
use tfe_dist::{ring_all_reduce_mean, Cluster, ClusterSpec, DistError, RemoteArg, RemoteTensor};
use tfe_nn::layers::{Activation, Conv2d, Dense, Flatten, Layer, MaxPool2d, Sequential};
use tfe_nn::losses::{mean_squared_error, softmax_cross_entropy};
use tfe_nn::{optimizer, Adam, DataParallel, Initializer, Optimizer, Reduction, Sgd};
use tfe_runtime::{api, context, RuntimeError, Tensor, Variable};
use tfe_state::TrackableGroup;
use tfe_tensor::{Shape, TensorData};

type LossFn = fn(&Tensor, &Tensor) -> tfe_runtime::Result<Tensor>;
type Batch = Result<(TensorData, TensorData), String>;

/// What one training workload is made of.
pub struct Spec {
    pub name: &'static str,
    pub batch: usize,
    /// Distinct generated batches; steps cycle through them.
    pub batches: usize,
    pub make_batch: fn(&mut Gen, usize) -> Batch,
    pub model: fn(&mut Initializer) -> Sequential,
    pub optimizer: fn() -> Arc<dyn Optimizer>,
    pub loss: LossFn,
}

/// The §3 classifier of `examples/train_classifier.rs` on 28×28×1 images:
/// conv-pool-conv-pool-dense-dense, Adam, 4 classes.
pub const CLASSIFIER: Spec = Spec {
    name: "classifier_train",
    batch: 64,
    batches: 16,
    make_batch: images,
    model: cnn,
    optimizer: || Arc::new(Adam::new(2e-3)),
    loss: softmax_cross_entropy,
};

/// A 64-256-1 tanh MLP trained with SGD on a regression target.
pub const MLP: Spec = Spec {
    name: "dp_train",
    batch: 32,
    batches: 32,
    make_batch: regression,
    model: |init| tfe_nn::mlp(64, &[256], 1, Activation::Tanh, init),
    optimizer: || Arc::new(Sgd::new(0.05)),
    loss: mean_squared_error,
};

const CLASSES: u64 = 4;
const SIDE: usize = 28;

fn cnn(init: &mut Initializer) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(1, 8, (3, 3), (1, 1), "SAME", Activation::Relu, true, init))
        .push(MaxPool2d::new((2, 2), (2, 2), "VALID"))
        .push(Conv2d::new(8, 16, (3, 3), (1, 1), "SAME", Activation::Relu, true, init))
        .push(MaxPool2d::new((2, 2), (2, 2), "VALID"))
        .push(Flatten)
        .push(Dense::new(16 * 7 * 7, 32, Activation::Relu, init))
        .push(Dense::new(32, 4, Activation::Linear, init))
}

/// Noise images whose brighter quadrant is the label.
fn images(g: &mut Gen, batch: usize) -> Batch {
    let mut x = Vec::with_capacity(batch * SIDE * SIDE);
    let mut y = Vec::with_capacity(batch);
    for _ in 0..batch {
        let label = g.below(CLASSES);
        for r in 0..SIDE {
            for c in 0..SIDE {
                let quadrant = (r >= SIDE / 2) as u64 * 2 + (c >= SIDE / 2) as u64;
                let bias = if quadrant == label { 0.5 } else { 0.0 };
                x.push(g.uniform(0.0, 0.5) + bias);
            }
        }
        y.push(label as i64);
    }
    let x = TensorData::from_vec(x, Shape::from([batch, SIDE, SIDE, 1]));
    let y = TensorData::from_vec(y, Shape::from([batch]));
    Ok((x.map_err(|e| e.to_string())?, y.map_err(|e| e.to_string())?))
}

/// `y = tanh(mean of the first 8 features) + noise`.
fn regression(g: &mut Gen, batch: usize) -> Batch {
    let mut x = Vec::with_capacity(batch * 64);
    let mut y = Vec::with_capacity(batch);
    for _ in 0..batch {
        let row: Vec<f32> = (0..64).map(|_| g.uniform(-1.0, 1.0)).collect();
        y.push((row[..8].iter().sum::<f32>() / 8.0).tanh() + 0.05 * g.normal());
        x.extend(row);
    }
    let x = TensorData::from_vec(x, Shape::from([batch, 64]));
    let y = TensorData::from_vec(y, Shape::from([batch, 1]));
    Ok((x.map_err(|e| e.to_string())?, y.map_err(|e| e.to_string())?))
}

/// `[loss, grad per variable] = f(x, y)` under `loss` — the gradient
/// function each data-parallel worker runs (as `tfe_nn::mse_grad_fn`, for
/// any loss).
fn grad_fn(name: &str, model: Arc<Sequential>, vars: Vec<Variable>, loss: LossFn) -> Func {
    tfe_core::function(name, move |args| {
        let (x, y) = match (args[0].as_tensor(), args[1].as_tensor()) {
            (Some(x), Some(y)) => (x, y),
            _ => return Err(RuntimeError::Internal("grad fn expects tensors x, y".into())),
        };
        let tape = GradientTape::new();
        let l = loss(&model.call(x, true)?, y)?;
        let refs: Vec<&Variable> = vars.iter().collect();
        let grads = tape.gradient_vars(&l, &refs)?;
        let mut out = vec![l];
        for (g, v) in grads.into_iter().zip(&vars) {
            out.push(match g {
                Some(g) => g,
                None => api::constant_data(TensorData::zeros(v.dtype(), v.shape().clone())),
            });
        }
        Ok(out)
    })
}

struct Trainer {
    model: Arc<Sequential>,
    vars: Vec<Variable>,
    opt: Arc<dyn Optimizer>,
}

impl Trainer {
    fn new(spec: &Spec, seed: u64) -> Trainer {
        let model = Arc::new((spec.model)(&mut Initializer::seeded(seed)));
        let vars = model.variables();
        Trainer { model, vars, opt: (spec.optimizer)() }
    }

    fn values(&self) -> Vec<f64> {
        self.vars.iter().flat_map(|v| v.peek().to_f64_vec()).collect()
    }

    /// Forward, backward and update from their public calls: what
    /// `optimizer::minimize` does, one span per call.
    fn step(
        &self,
        loss: LossFn,
        x: &Tensor,
        y: &Tensor,
        tr: &mut Tracer,
    ) -> tfe_runtime::Result<Tensor> {
        let tape = GradientTape::new();
        let l = tr.kspan("nn.forward", |_| loss(&self.model.call(x, true)?, y)).0?;
        let refs: Vec<&Variable> = self.vars.iter().collect();
        let grads = tr.kspan("autodiff.backward", |_| tape.gradient_vars(&l, &refs)).0?;
        let pairs: Vec<(Tensor, Variable)> = grads
            .into_iter()
            .zip(&self.vars)
            .filter_map(|(g, v)| g.map(|g| (g, v.clone())))
            .collect();
        tr.kspan("nn.optimizer_apply", |_| self.opt.apply(&pairs)).0?;
        drop(tape);
        Ok(l)
    }
}

pub struct Train {
    spec: &'static Spec,
    data: Vec<(Tensor, Tensor)>,
    eager: Trainer,
    asynch: Trainer,
    func: Func,
    concrete: Arc<ConcreteFunction>,
    trace: (f64, f64),
    first: Out,
    dp: DataParallel,
    dp_trainer: Trainer,
    dp_grad: String,
    mirror: DataParallel,
    mirror_trainer: Trainer,
    last_grads: Vec<Arc<TensorData>>,
    root: Option<TrackableGroup>,
    pos: Arc<Position>,
    path: PathBuf,
}

const WORKERS: [&str; 2] = ["/job:train/task:0/device:CPU:0", "/job:train/task:1/device:CPU:0"];

/// Row shard `k` of `t`, as `DataParallel` cuts it.
fn shard(t: &Tensor, k: usize) -> tfe_runtime::Result<Tensor> {
    let dims = t.shape()?.dims().to_vec();
    let per = (dims[0] / WORKERS.len()) as i64;
    let mut begin = vec![0i64; dims.len()];
    let mut size = vec![-1i64; dims.len()];
    begin[0] = k as i64 * per;
    size[0] = per;
    api::slice(t, &begin, &size)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Train {
    /// A fresh set-up: five copies of the model, the batches, the staged
    /// step and the gradient functions under new names, and the cluster.
    pub fn build(
        spec: &'static Spec,
        seed: u64,
        tag: usize,
        dir: &std::path::Path,
    ) -> Result<Train, String> {
        let mut g = Gen::new(seed, 2);
        let mut data = Vec::with_capacity(spec.batches);
        for _ in 0..spec.batches {
            let (x, y) = (spec.make_batch)(&mut g, spec.batch)?;
            data.push((Tensor::from_data(x), Tensor::from_data(y)));
        }
        let eager = Trainer::new(spec, seed);
        let asynch = Trainer::new(spec, seed);
        let staged = Trainer::new(spec, seed);
        let func = {
            let (model, opt, vars, loss) =
                (staged.model.clone(), staged.opt.clone(), staged.vars.clone(), spec.loss);
            tfe_core::function(&format!("bench_{}_step_{tag}", spec.name), move |args| {
                let x = args[0].as_tensor().expect("x");
                let y = args[1].as_tensor().expect("y");
                let tape = GradientTape::new();
                let l = loss(&model.call(x, true)?, y)?;
                optimizer::minimize(opt.as_ref(), tape, &l, &vars)?;
                Ok(vec![l])
            })
        };

        // First call on a new signature: trace, pass pipeline, first run.
        let (x0, y0) = &data[0];
        let t0 = Instant::now();
        let concrete = func.concrete_for(&[Arg::from(x0), Arg::from(y0)]).map_err(err)?;
        let concrete_s = t0.elapsed().as_secs_f64();
        let first = func.call_tensors(&[x0, y0]).map_err(err);
        let trace_s = t0.elapsed().as_secs_f64();
        let first = first.and_then(|o| Ok(vec![o[0].scalar_f64().map_err(err)?]));

        let dp_trainer = Trainer::new(spec, seed);
        let mirror_trainer = Trainer::new(spec, seed);
        let shard_args =
            [Arg::from(&shard(x0, 0).map_err(err)?), Arg::from(&shard(y0, 0).map_err(err)?)];
        let trace_grad = |t: &Trainer, which: &str| -> Result<String, String> {
            let name = format!("bench_{}_grad_{which}_{tag}", spec.name);
            let f = grad_fn(&name, t.model.clone(), t.vars.clone(), spec.loss);
            Ok(f.concrete_for(&shard_args).map_err(err)?.function.name.clone())
        };
        let dp_grad = trace_grad(&dp_trainer, "dp")?;
        let mirror_grad = trace_grad(&mirror_trainer, "mirror")?;
        let cluster_spec = ClusterSpec::new().with_job("train", WORKERS.len()).map_err(err)?;
        let workers: Vec<String> = WORKERS.iter().map(|w| w.to_string()).collect();
        let dp = DataParallel::new(
            Cluster::start_tcp(&cluster_spec).map_err(err)?,
            workers.clone(),
            Reduction::Ring,
            &dp_grad,
            dp_trainer.vars.clone(),
            dp_trainer.opt.clone(),
        )
        .map_err(err)?;
        // The mirror sends no RPC after construction; an in-process cluster
        // satisfies the constructor's liveness ping.
        let mirror = DataParallel::new(
            Cluster::start(&cluster_spec),
            workers,
            Reduction::Ring,
            &mirror_grad,
            mirror_trainer.vars.clone(),
            mirror_trainer.opt.clone(),
        )
        .map_err(err)?;
        Ok(Train {
            spec,
            data,
            eager,
            asynch,
            func,
            concrete,
            trace: (trace_s, concrete_s),
            first,
            dp,
            dp_trainer,
            dp_grad,
            mirror,
            mirror_trainer,
            last_grads: Vec::new(),
            root: None,
            pos: Arc::new(Position::default()),
            path: dir.join(format!("{}-{tag}.ckpt", spec.name)),
        })
    }

    fn batch(&self, i: usize) -> (Tensor, Tensor) {
        self.data[i % self.data.len()].clone()
    }

    /// `DataParallel::step` from its public calls, one span per call.
    fn dp_traced(&mut self, x: &Tensor, y: &Tensor, tr: &mut Tracer) -> Result<f64, DistError> {
        let cluster = self.dp.cluster();
        let shards = tr
            .kspan("nn.dp_shard", |_| -> tfe_runtime::Result<Vec<(Tensor, Tensor)>> {
                (0..WORKERS.len()).map(|k| Ok((shard(x, k)?, shard(y, k)?))).collect()
            })
            .0?;
        let mut outs: Vec<Vec<RemoteTensor>> = Vec::new();
        for (w, (xs, ys)) in WORKERS.iter().zip(&shards) {
            let args = [RemoteArg::from(xs), RemoteArg::from(ys)];
            outs.push(
                tr.span("dist.grad_call", |_| cluster.call_function(w, &self.dp_grad, &args)).0?,
            );
        }
        let mut pairs = Vec::new();
        for (i, v) in self.dp_trainer.vars.iter().enumerate() {
            let grads: Vec<RemoteTensor> = outs.iter().map(|o| o[1 + i].clone()).collect();
            let reduced = tr.span("dist.allreduce", |_| ring_all_reduce_mean(cluster, &grads)).0?;
            let first =
                reduced.into_iter().next().ok_or_else(|| DistError::Spec("no result".into()))?;
            pairs.push((tr.span("dist.fetch", |_| first.fetch()).0?, v.clone()));
        }
        let mut loss = 0.0;
        for o in &outs {
            loss += tr.span("dist.fetch", |_| o[0].fetch()).0?.scalar_f64()?;
        }
        tr.kspan("nn.optimizer_apply", |_| self.dp_trainer.opt.apply(&pairs)).0?;
        self.last_grads = pairs.iter().filter_map(|(g, _)| g.value().ok()).collect();
        Ok(loss / WORKERS.len() as f64)
    }
}

impl Rig for Train {
    fn examples(&self) -> usize {
        self.spec.batch
    }

    fn trace_secs(&self) -> (f64, f64) {
        self.trace
    }

    fn first_staged(&self) -> Out {
        self.first.clone()
    }

    fn func(&self) -> &Func {
        &self.func
    }

    fn concrete(&self) -> Arc<ConcreteFunction> {
        self.concrete.clone()
    }

    fn eager(&mut self, i: usize, tr: &mut Tracer) -> Out {
        let (x, y) = self.batch(i);
        let l = self.eager.step(self.spec.loss, &x, &y, tr).map_err(err)?;
        Ok(vec![l.scalar_f64().map_err(err)?])
    }

    fn run_async(&mut self, i: usize, tr: &mut Tracer) -> Out {
        let (x, y) = self.batch(i);
        let (t, loss) = (&self.asynch, self.spec.loss);
        let l = context::async_scope(|| {
            let l = tr.span("runtime.async_issue", |tr| t.step(loss, &x, &y, tr)).0;
            tr.span("runtime.async_wait", |_| context::sync()).0.and(l)
        });
        let l = l.and_then(|l| l).map_err(err)?;
        Ok(vec![l.scalar_f64().map_err(err)?])
    }

    fn staged(&mut self, i: usize, tr: &mut Tracer) -> Out {
        let (x, y) = self.batch(i);
        let out = if tr.on() {
            let args = [Arg::from(&x), Arg::from(&y)];
            let (c, _) = tr.span("core.cache_lookup", |_| self.func.concrete_for(&args));
            c.and_then(|c| tr.kspan("runtime.executor", |_| c.call(&[x.clone(), y.clone()])).0)
        } else {
            self.func.call_tensors(&[&x, &y])
        };
        let out = out.map_err(err)?;
        Ok(vec![out.first().ok_or("no output")?.scalar_f64().map_err(err)?])
    }

    fn validate(&self, out: &[f64]) -> Result<(), String> {
        crate::check::finite(out)
    }

    fn dp(&mut self, i: usize, tr: &mut Tracer) -> Out {
        let (x, y) = self.batch(i);
        let loss = if tr.on() { self.dp_traced(&x, &y, tr) } else { self.dp.step(&x, &y) };
        Ok(vec![loss.map_err(err)?])
    }

    fn dp_reference(&mut self, i: usize, out: &[f64]) -> Result<(Vec<f64>, Vec<f64>), String> {
        let (x, y) = self.batch(i);
        let loss = self.mirror.local_step(&x, &y).map_err(err)?;
        let mut got = out.to_vec();
        got.extend(self.dp_trainer.values());
        let mut reference = vec![loss];
        reference.extend(self.mirror_trainer.values());
        Ok((got, reference))
    }

    fn set_position(&mut self, i: usize) {
        self.pos.set(i as i64);
    }

    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<Ckpt, String> {
        // Built on first use, once the optimizer has made its slots.
        let root = self.root.get_or_insert_with(|| {
            TrackableGroup::new()
                .with_node("model", self.eager.model.trackable())
                .with_node("optimizer", self.eager.opt.trackable())
                .with_state("iterator", self.pos.clone())
        });
        round_trip(root, &self.pos, &self.path, tr)
    }

    fn codec_tensors(&self) -> Vec<Arc<TensorData>> {
        if self.last_grads.is_empty() {
            self.eager.vars.iter().map(|v| v.peek()).collect()
        } else {
            self.last_grads.clone()
        }
    }
}

impl Drop for Train {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
