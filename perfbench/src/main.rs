//! Wall-clock benchmark of eager, async, staged, checkpointed and
//! data-parallel training.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload l2hmc_cpu --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `l2hmc_cpu`, `classifier_train`, `dp_train` (see
//! `BENCHMARK.json` for why each was chosen). With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics and writes its spans to
//! `.bench_work/spans-<workload>-seed<seed>.json`. The last line of
//! standard output is the JSON result. `--corrupt-reference` perturbs every
//! reference the checks compare against, which must make them fail.

mod check;
mod l2hmc;
mod measure;
mod rig;
mod run;
mod trace;
mod train;

use run::Workload;
use std::path::{Path, PathBuf};

fn l2hmc(seed: u64, tag: usize, dir: &Path) -> Result<Box<dyn rig::Rig>, String> {
    Ok(Box::new(l2hmc::Sampler::build(seed, tag, dir)?))
}

fn classifier(seed: u64, tag: usize, dir: &Path) -> Result<Box<dyn rig::Rig>, String> {
    Ok(Box::new(train::Train::build(&train::CLASSIFIER, seed, tag, dir)?))
}

fn mlp(seed: u64, tag: usize, dir: &Path) -> Result<Box<dyn rig::Rig>, String> {
    Ok(Box::new(train::Train::build(&train::MLP, seed, tag, dir)?))
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "l2hmc_cpu", setups: 15, window: 10, dp_window: 10, build: l2hmc },
    Workload { name: "classifier_train", setups: 12, window: 2, dp_window: 1, build: classifier },
    Workload { name: "dp_train", setups: 15, window: 10, dp_window: 2, build: mlp },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, 1, 10.0, false, false);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, corrupt })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <l2hmc_cpu|classifier_train|dp_train> \
                 --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]"
            );
            std::process::exit(2);
        }
    };
    tfe_core::init();
    let dir: PathBuf =
        Path::new(".bench_work").join(format!("{}-{}", args.workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut chk = check::Checker::new(args.corrupt);
    let outcome = run::run(args.workload, args.seed, args.seconds, args.trace, &mut chk, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            for note in &chk.notes {
                eprintln!("  {note}");
            }
            std::process::exit(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("  {} = {} {}", m.name, measure::num(m.value), m.unit);
    }
    println!("checked: {} attempted, {} failed", chk.attempted, chk.failed);
    for note in &chk.notes {
        println!("  failed: {note}");
    }
    println!("{}", measure::result_json(chk.attempted, chk.failed, &outcome.metrics));
}
