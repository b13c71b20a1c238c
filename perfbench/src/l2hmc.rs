//! `l2hmc_cpu`: the L2HMC sampler step of the paper's Figure 4 (2-D
//! strongly-correlated Gaussian, 10 leapfrog steps, hidden width 10) at 10
//! parallel chains. Each step is about two thousand tiny ops, so it
//! stresses dispatch, the async stream, the trace cache and the executor
//! rather than kernels.
//!
//! The step's random ops draw from the process RNG, which every mode
//! re-seeds from the step index before the step; eager, async and staged
//! chains therefore take the same draws and must agree. The data-parallel
//! step splits the chains into one shard per TCP worker and runs the staged
//! sampler step there; the mirror runs the same concrete function on the
//! same shards locally. Workers run only capture-free functions, so the
//! shard step is registered once more with its captured constants as
//! ordinary inputs, and those constants are placed on each worker at
//! set-up.

use crate::measure::Gen;
use crate::rig::{round_trip, Ckpt, Out, Position, Rig};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tfe_core::{Arg, ConcreteFunction, Func};
use tfe_dist::{Cluster, ClusterSpec, RemoteArg, RemoteTensor};
use tfe_nn::l2hmc::{L2hmc, StronglyCorrelatedGaussian};
use tfe_nn::Initializer;
use tfe_runtime::{api, context, Tensor, Variable};
use tfe_state::TrackableGroup;
use tfe_tensor::{Shape, TensorData};

pub const CHAINS: usize = 10;
const DIM: usize = 2;
const LEAPFROG_STEPS: usize = 10;
const HIDDEN: usize = 10;
const WORKERS: [&str; 2] = ["/job:sample/task:0/device:CPU:0", "/job:sample/task:1/device:CPU:0"];

pub struct Sampler {
    sampler: Arc<L2hmc>,
    func: Func,
    concrete: Arc<ConcreteFunction>,
    shard: Arc<ConcreteFunction>,
    /// The shard step without captures, and its constants on each worker.
    open_shard: String,
    resident: Vec<Vec<RemoteTensor>>,
    trace: (f64, f64),
    first: Out,
    seed: u64,
    /// Chain states of the eager, async and staged runs.
    chains: [Tensor; 3],
    dp_state: Tensor,
    dp_prev: Tensor,
    cluster: Cluster,
    root: TrackableGroup,
    chain_var: Variable,
    pos: Arc<Position>,
    path: PathBuf,
}

fn step_seed(seed: u64, i: usize) -> u64 {
    Gen::new(seed, 1_000_000 + i as u64).next_u64()
}

fn values(ts: &[Tensor]) -> Out {
    let mut out = Vec::new();
    for t in ts {
        out.extend(t.to_f64_vec().map_err(|e| e.to_string())?);
    }
    Ok(out)
}

fn rows(t: &Tensor, begin: usize, count: usize) -> Result<Tensor, String> {
    api::slice(t, &[begin as i64, 0], &[count as i64, -1]).map_err(|e| e.to_string())
}

/// Stack per-shard `(x, accept)` outputs back into one chain state.
fn unshard(parts: &[(Arc<TensorData>, Arc<TensorData>)]) -> Result<(Tensor, Vec<f64>), String> {
    let mut x = Vec::new();
    let mut p = Vec::new();
    for (xs, ps) in parts {
        x.extend(xs.as_slice::<f32>().map_err(|e| e.to_string())?.iter().copied());
        p.extend(ps.to_f64_vec());
    }
    let n = x.len() / DIM;
    let t = TensorData::from_vec(x, Shape::from([n, DIM])).map_err(|e| e.to_string())?;
    Ok((Tensor::from_data(t), p))
}

impl Sampler {
    /// A fresh set-up: sampler, chains, staged step under a new name,
    /// cluster.
    pub fn build(seed: u64, tag: usize, dir: &std::path::Path) -> Result<Sampler, String> {
        let sampler = Arc::new(L2hmc::new(
            Arc::new(StronglyCorrelatedGaussian::new()),
            HIDDEN,
            LEAPFROG_STEPS,
            0.1,
            &mut Initializer::seeded(seed),
        ));
        let mut g = Gen::new(seed, 1);
        let x0: Vec<f32> = (0..CHAINS * DIM).map(|_| g.normal()).collect();
        let x0 = Tensor::from_data(
            TensorData::from_vec(x0, Shape::from([CHAINS, DIM])).map_err(|e| e.to_string())?,
        );
        let step = |name: String| {
            let s = sampler.clone();
            tfe_core::function(&name, move |args| {
                let x = args[0].as_tensor().expect("chain state");
                let (x_next, accept) = s.sample_step(x)?;
                Ok(vec![x_next, accept])
            })
        };
        let func = step(format!("bench_l2hmc_step_{tag}"));

        // First call on a new signature: trace, pass pipeline, first run.
        context::set_random_seed(step_seed(seed, 0));
        let t0 = Instant::now();
        let concrete = func.concrete_for(&[Arg::from(&x0)]).map_err(|e| e.to_string())?;
        let concrete_s = t0.elapsed().as_secs_f64();
        let first = func.call_tensors(&[&x0]).map_err(|e| e.to_string());
        let trace_s = t0.elapsed().as_secs_f64();
        let (first, staged_x) = match first {
            Ok(out) => (values(&out), out[0].clone()),
            Err(e) => (Err(e), x0.clone()),
        };

        let shard_func = step(format!("bench_l2hmc_shard_{tag}"));
        let shard = shard_func
            .concrete_for(&[Arg::from(&rows(&x0, 0, CHAINS / WORKERS.len())?)])
            .map_err(|e| e.to_string())?;
        let spec =
            ClusterSpec::new().with_job("sample", WORKERS.len()).map_err(|e| e.to_string())?;
        let cluster = Cluster::start_tcp(&spec).map_err(|e| e.to_string())?;
        let mut open = (*shard.function).clone();
        open.name = format!("{}_open", open.name);
        open.num_captures = 0;
        let open_shard = context::library().insert(open).name.clone();
        let mut resident = Vec::new();
        for w in WORKERS {
            let mut on_worker = Vec::new();
            for c in &shard.captures {
                let placed = cluster
                    .execute(w, "identity", &[RemoteArg::from(c)], tfe_ops::Attrs::new())
                    .map_err(|e| e.to_string())?;
                on_worker.push(placed.into_iter().next().ok_or("identity gave no output")?);
            }
            resident.push(on_worker);
        }

        let chain_var = Variable::new(TensorData::zeros(x0.dtype(), Shape::from([CHAINS, DIM])));
        let pos = Arc::new(Position::default());
        let mut root = TrackableGroup::new();
        for (i, v) in sampler.variables().iter().enumerate() {
            root = root.with_variable(&format!("v{i}"), v);
        }
        let root = root.with_variable("chain", &chain_var).with_state("position", pos.clone());
        Ok(Sampler {
            sampler,
            func,
            concrete,
            shard,
            open_shard,
            resident,
            trace: (trace_s, concrete_s),
            first,
            seed,
            chains: [x0.clone(), x0.clone(), staged_x],
            dp_state: x0.clone(),
            dp_prev: x0,
            cluster,
            root,
            chain_var,
            pos,
            path: dir.join(format!("l2hmc-{tag}.ckpt")),
        })
    }

    fn advance(&mut self, k: usize, out: Result<(Tensor, Tensor), String>) -> Out {
        let (x, accept) = out?;
        self.chains[k] = x.clone();
        values(&[x, accept])
    }
}

impl Rig for Sampler {
    fn examples(&self) -> usize {
        CHAINS
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
        context::set_random_seed(step_seed(self.seed, i));
        let x = self.chains[0].clone();
        let sampler = self.sampler.clone();
        let out = tr.kspan("nn.forward", |_| sampler.sample_step(&x)).0;
        self.advance(0, out.map_err(|e| e.to_string()))
    }

    fn run_async(&mut self, i: usize, tr: &mut Tracer) -> Out {
        context::set_random_seed(step_seed(self.seed, i));
        let x = self.chains[1].clone();
        let sampler = self.sampler.clone();
        let out = context::async_scope(|| {
            let out = tr.span("runtime.async_issue", |_| sampler.sample_step(&x)).0;
            tr.span("runtime.async_wait", |_| context::sync()).0.and(out)
        });
        self.advance(1, out.and_then(|r| r).map_err(|e| e.to_string()))
    }

    fn staged(&mut self, i: usize, tr: &mut Tracer) -> Out {
        context::set_random_seed(step_seed(self.seed, i));
        let x = self.chains[2].clone();
        let out = if tr.on() {
            let (c, _) = tr.span("core.cache_lookup", |_| self.func.concrete_for(&[Arg::from(&x)]));
            c.and_then(|c| tr.kspan("runtime.executor", |_| c.call(std::slice::from_ref(&x))).0)
        } else {
            self.func.call_tensors(&[&x])
        };
        let out = out.map_err(|e| e.to_string()).and_then(|mut o| {
            if o.len() != 2 {
                return Err(format!("{} outputs", o.len()));
            }
            let accept = o.pop().expect("two outputs");
            Ok((o.pop().expect("two outputs"), accept))
        });
        self.advance(2, out)
    }

    fn validate(&self, out: &[f64]) -> Result<(), String> {
        crate::check::finite(out)?;
        if out.len() != CHAINS * DIM + CHAINS {
            return Err(format!("{} values, expected {}", out.len(), CHAINS * DIM + CHAINS));
        }
        match out[CHAINS * DIM..].iter().find(|p| !(0.0..=1.0).contains(*p)) {
            Some(p) => Err(format!("accept_prob {p} outside [0, 1]")),
            None => Ok(()),
        }
    }

    fn dp(&mut self, i: usize, tr: &mut Tracer) -> Out {
        context::set_random_seed(step_seed(self.seed, i));
        let per = CHAINS / WORKERS.len();
        let mut parts = Vec::new();
        for (k, w) in WORKERS.iter().enumerate() {
            let xs = rows(&self.dp_state, k * per, per)?;
            let mut args = vec![RemoteArg::from(&xs)];
            args.extend(self.resident[k].iter().map(RemoteArg::from));
            let (out, _) = tr
                .span("dist.grad_call", |_| self.cluster.call_function(w, &self.open_shard, &args));
            let out = out.map_err(|e| e.to_string())?;
            if out.len() != 2 {
                return Err(format!("{} outputs from {w}", out.len()));
            }
            let (fetched, _) = tr.span("dist.fetch", |_| {
                Ok::<_, tfe_dist::DistError>((out[0].fetch()?.value()?, out[1].fetch()?.value()?))
            });
            parts.push(fetched.map_err(|e| e.to_string())?);
        }
        let (x, accept) = unshard(&parts)?;
        self.dp_prev = std::mem::replace(&mut self.dp_state, x.clone());
        let mut out = x.to_f64_vec().map_err(|e| e.to_string())?;
        out.extend(accept);
        Ok(out)
    }

    fn dp_reference(&mut self, i: usize, out: &[f64]) -> Result<(Vec<f64>, Vec<f64>), String> {
        context::set_random_seed(step_seed(self.seed, i));
        let per = CHAINS / WORKERS.len();
        let mut parts = Vec::new();
        for k in 0..WORKERS.len() {
            let xs = rows(&self.dp_prev, k * per, per)?;
            let o = self.shard.call(&[xs]).map_err(|e| e.to_string())?;
            parts.push((
                o[0].value().map_err(|e| e.to_string())?,
                o[1].value().map_err(|e| e.to_string())?,
            ));
        }
        let (x, accept) = unshard(&parts)?;
        let mut reference = x.to_f64_vec().map_err(|e| e.to_string())?;
        reference.extend(accept);
        Ok((out.to_vec(), reference))
    }

    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<Ckpt, String> {
        let chain = self.chains[0].value().map_err(|e| e.to_string())?;
        self.chain_var.restore((*chain).clone()).map_err(|e| e.to_string())?;
        round_trip(&self.root, &self.pos, &self.path, tr)
    }

    fn codec_tensors(&self) -> Vec<Arc<TensorData>> {
        self.chains.iter().filter_map(|t| t.value().ok()).collect()
    }

    fn set_position(&mut self, i: usize) {
        self.pos.set(i as i64);
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
