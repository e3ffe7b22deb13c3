//! Command implementations. Each writes human-readable output to the
//! given writer, so tests can capture it.

use crate::{Command, FaultMode, ServeFault, SimApproach};
use bytes::Bytes;
use mime_core::deploy::{pack_model, unpack_model, verify_image, write_file_atomic};
use mime_core::faults::FaultInjector;
use mime_core::{
    calibrate_thresholds, measure_sparsity, Checkpointer, MimeNetwork, MimeTrainer,
    MimeTrainerConfig, MultiTaskModel,
};
use mime_datasets::{TaskFamily, TaskSpec};
use mime_nn::{build_network, evaluate, train_epoch, vgg16_arch, Adam};
use mime_runtime::BoundNetwork;
use mime_systolic::{
    analytic_image_counts, simulate_network, storage_curve, vgg16_geometry_with, Approach,
    ArrayConfig, FunctionalArray, Mapper, Scenario, TaskMode,
};
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::Path;

/// Exit code for a command that completed but served degraded results
/// (e.g. `mime batch` falling back to the parent path for a task).
pub const EXIT_DEGRADED: u8 = 2;

/// A failed command: the message goes to stderr, the code becomes the
/// process exit status. Plain errors carry code 1; "completed, but
/// degraded" carries [`EXIT_DEGRADED`] so scripts can tell the two
/// apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description, suitable for stderr.
    pub message: String,
    /// Process exit code (nonzero).
    pub code: u8,
}

impl CliError {
    fn degraded(message: impl Into<String>) -> Self {
        CliError { message: message.into(), code: EXIT_DEGRADED }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, code: 1 }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Executes a parsed command, writing its report to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] whose message is suitable for printing to
/// stderr and whose code becomes the process exit status.
pub fn run(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            write_help(out);
            Ok(())
        }
        Command::Storage { input_hw, children } => storage(out, input_hw, children),
        Command::Simulate { pipelined, approach, pe, cache_kb, input_hw, csv } => {
            simulate(out, pipelined, approach, pe, cache_kb, input_hw, csv)
        }
        Command::Train { task, epochs, seed, checkpoint_dir, resume } => {
            train(out, &task, epochs, seed, checkpoint_dir.as_deref(), resume)
        }
        Command::Pack { out: path, tasks, seed } => pack(out, &path, tasks, seed),
        Command::Inspect { path } => inspect(out, &path),
        Command::VerifyImage { path } => verify_image_cmd(out, &path),
        Command::InjectFaults { path, out: dest, seed, mode, count } => {
            inject_faults(out, &path, &dest, seed, mode, count)
        }
        Command::Sweep { input_hw, rounds } => sweep(out, input_hw, rounds),
        Command::Validate { input_hw } => validate(out, input_hw),
        Command::Batch { images, tasks, seed, poison } => {
            batch(out, images, tasks, seed, poison)
        }
        Command::Serve {
            requests,
            tasks,
            seed,
            inject,
            capacity,
            listen,
            replicas,
            image,
            deadline_ms,
            inject_every,
            no_obs,
            flight_dir,
            no_brownout,
            brownout_rungs,
            critical_tasks,
            max_batch,
        } => serve(
            out,
            listen.as_deref(),
            requests,
            tasks,
            seed,
            inject,
            capacity,
            replicas,
            image.as_deref(),
            deadline_ms,
            inject_every,
            no_obs,
            flight_dir.as_deref(),
            no_brownout,
            brownout_rungs,
            critical_tasks,
            max_batch,
        ),
        Command::ReplicaWorker {
            image,
            replica,
            inject,
            inject_every,
            heartbeat_ms,
            no_obs,
            trace,
            flight_dir,
            brownout_rungs,
        } => replica_worker(
            &image,
            replica,
            inject,
            inject_every,
            heartbeat_ms,
            no_obs,
            trace,
            flight_dir.as_deref(),
            brownout_rungs,
        ),
        Command::Loadgen {
            connect,
            requests,
            concurrency,
            tasks,
            deadline_ms,
            bench_out,
            label,
            drain,
            slow_threshold_ms,
            rate,
        } => loadgen(
            out,
            &connect,
            requests,
            concurrency,
            tasks,
            deadline_ms,
            bench_out.as_deref(),
            &label,
            drain,
            slow_threshold_ms,
            rate,
        ),
    }
}

fn write_help(out: &mut dyn Write) {
    let _ = writeln!(
        out,
        "mime — multi-task inference with memory-efficient dynamic pruning\n\n\
         commands:\n\
         \x20 storage   [--input-hw 224] [--children 8]        DRAM storage vs task count (Fig. 4)\n\
         \x20 simulate  [--mode pipelined|singular] [--approach mime|case1|case2|pruned]\n\
         \x20           [--pe 1024] [--cache-kb 156] [--input-hw 224]   layerwise energy\n\
         \x20 train     [--task cifar10|cifar100|fmnist] [--epochs 10] [--seed 42]\n\
         \x20           [--checkpoint-dir <dir>] [--resume]\n\
         \x20           mini-scale threshold training on a synthetic child task\n\
         \x20 pack      --out <file> [--tasks 2] [--seed 42]   write a deployment image\n\
         \x20 inspect   <file>                                 summarize a deployment image\n\
         \x20 verify-image <file>                              per-section checksum walk\n\
         \x20 inject-faults <file> --out <file> [--seed 42] [--mode bitflip|truncate|garble]\n\
         \x20           [--count N]                            corrupt an image for fault drills\n\
         \x20 sweep     [--input-hw 224] [--rounds 6]          batch/task scaling sweeps\n\
         \x20 validate  [--input-hw 32]                        analytical vs functional counters\n\
         \x20 batch     [--images 6] [--tasks 2] [--seed 42] [--poison i]\n\
         \x20           pipelined multi-task batch on the sparse software path\n\
         \x20           (exit code 2 when a task degraded to parent)\n\
         \x20 serve     [--listen <addr> | --requests 16] [--tasks 3] [--seed 42]\n\
         \x20           [--replicas 2] [--image <file>] [--capacity 0]\n\
         \x20           [--deadline-ms 5000] [--inject none|replica-abort|\n\
         \x20           replica-hang|replica-slow|conn-garbage|conn-truncate]\n\
         \x20           [--inject-every 4] [--no-obs] [--flight-dir <dir>] [--no-brownout]\n\
         \x20           [--brownout-rungs 4] [--critical-tasks 0]\n\
         \x20           [--max-batch 8 | --no-batch]\n\
         \x20           multi-process TCP front door over supervised replica processes\n\
         \x20           with brownout overload control (DESIGN.md \u{00a7}13) and\n\
         \x20           deadline-aware request batching (DESIGN.md \u{00a7}15);\n\
         \x20           also answers GET /metrics, /healthz, /readyz on the same port.\n\
         \x20           Without --listen: drives --requests requests through its own\n\
         \x20           fleet (the loadgen client, 4 connections), then drains\n\
         \x20 loadgen   --connect <addr> [--requests 64] [--concurrency 4] [--tasks 3]\n\
         \x20           [--deadline-ms 5000] [--bench-out <file>] [--label run] [--drain]\n\
         \x20           [--slow-threshold-ms 0] [--rate 0]\n\
         \x20           drive a front door, print outcome counts + latency percentiles\n\
         \x20           (+ queue/compute/wire breakdown for requests over the threshold);\n\
         \x20           --rate <rps> switches to open-loop Poisson arrivals\n\
         \x20 help                                             this message\n\n\
         global flags (any command):\n\
         \x20 --trace-out <file>    write a Chrome-trace JSON (chrome://tracing, Perfetto)\n\
         \x20 --metrics-out <file>  write the metrics registry (.json = JSON, else Prometheus)\n\
         \x20 --log-level <level>   error|warn|info|debug|trace|off (default: MIME_LOG or warn)"
    );
}

fn io_err(e: impl std::fmt::Display) -> String {
    format!("error: {e}")
}

fn storage(out: &mut dyn Write, input_hw: usize, children: usize) -> Result<(), CliError> {
    let geoms = vgg16_geometry_with(input_hw, 4096, 1000);
    let _ = writeln!(
        out,
        "{:>9} {:>18} {:>12} {:>10}",
        "children", "conventional (MB)", "MIME (MB)", "savings"
    );
    for p in storage_curve(&geoms, children) {
        let _ = writeln!(
            out,
            "{:>9} {:>18.1} {:>12.1} {:>9.2}x",
            p.n_children, p.conventional_mb, p.mime_mb, p.savings
        );
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    out: &mut dyn Write,
    pipelined: bool,
    approach: SimApproach,
    pe: usize,
    cache_kb: usize,
    input_hw: usize,
    csv: bool,
) -> Result<(), CliError> {
    let cfg = ArrayConfig {
        pe_count: pe,
        act_cache_bytes: cache_kb * 1024,
        weight_cache_bytes: cache_kb * 1024,
        threshold_cache_bytes: cache_kb * 1024,
        ..ArrayConfig::eyeriss_65nm()
    };
    let approach = match approach {
        SimApproach::Mime => Approach::Mime,
        SimApproach::Case1 => Approach::Case1,
        SimApproach::Case2 => Approach::Case2,
        SimApproach::Pruned => Approach::Pruned { weight_density: 0.1 },
    };
    let mode =
        if pipelined { TaskMode::paper_pipelined() } else { TaskMode::paper_singular() };
    let geoms = vgg16_geometry_with(input_hw, 4096, 1000);
    let results = simulate_network(&geoms, &cfg, &Scenario { mode, approach });
    if csv {
        let _ = write!(out, "{}", mime_systolic::report::render_csv(&results));
    } else {
        let _ = write!(out, "{}", mime_systolic::report::render_table(&results));
    }
    Ok(())
}

fn train(
    out: &mut dyn Write,
    task: &str,
    epochs: usize,
    seed: u64,
    checkpoint_dir: Option<&str>,
    resume: bool,
) -> Result<(), CliError> {
    let family = TaskFamily::new(seed, 3, 32);
    let parent_spec =
        TaskSpec { classes: 10, ..TaskSpec::imagenet_like().with_samples(16, 4) };
    let parent_task = family.generate(&parent_spec);
    let arch = vgg16_arch(0.125, 32, 3, 10, 64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut parent = build_network(&arch, &mut rng);
    let mut opt = Adam::with_lr(1e-3);
    let _ = writeln!(out, "training parent (imagenet-like stand-in)...");
    for _ in 0..6 {
        train_epoch(&mut parent, &parent_task.train.batches(16), &mut opt)
            .map_err(io_err)?;
    }
    let pacc = evaluate(&mut parent, &parent_task.test.batches(16)).map_err(io_err)?;
    let _ = writeln!(out, "parent accuracy: {:.2}%", pacc * 100.0);

    let spec = match task {
        "cifar100" => {
            let mut s = TaskSpec::cifar100_like();
            s.classes = 25;
            s.train_per_class = 10;
            s.test_per_class = 4;
            s
        }
        "fmnist" => TaskSpec::fmnist_like().with_samples(16, 8),
        _ => TaskSpec::cifar10_like().with_samples(16, 8),
    };
    let child = family.generate(&spec);
    let child_arch = vgg16_arch(0.125, 32, 3, spec.classes, 64);
    let mut net = MimeNetwork::from_trained_with_head(&child_arch, &parent, 0.01, true)
        .map_err(io_err)?;
    let train_batches = child.train.batches(16);
    if let Some((images, _)) = train_batches.first() {
        calibrate_thresholds(&mut net, images, 0.6).map_err(io_err)?;
    }
    let mut trainer = MimeTrainer::new(MimeTrainerConfig {
        epochs,
        threshold_lr: 3e-2,
        lr: 3e-3,
        ..MimeTrainerConfig::default()
    });
    let checkpointer = match checkpoint_dir {
        Some(dir) => Some(Checkpointer::new(dir).map_err(io_err)?),
        None => None,
    };
    let mut start_epoch = 0usize;
    if resume {
        // `--resume` without `--checkpoint-dir` is rejected at parse
        // time, so the checkpointer exists here.
        let ckpt = checkpointer.as_ref().expect("--resume implies --checkpoint-dir");
        match ckpt.resume(&mut net).map_err(io_err)? {
            Some((next_epoch, path)) => {
                start_epoch = next_epoch;
                let _ = writeln!(
                    out,
                    "resumed from {} (continuing at epoch {start_epoch})",
                    path.display()
                );
            }
            None => {
                let _ = writeln!(out, "no usable checkpoint found; training from scratch");
            }
        }
    }
    let reports = trainer
        .train_resumable(&mut net, &train_batches, start_epoch, checkpointer.as_ref())
        .map_err(io_err)?;
    for r in &reports {
        let _ = writeln!(
            out,
            "epoch {:>2}: CE {:.3}  train-acc {:.2}%  sparsity {:.3}",
            r.epoch,
            r.ce_loss,
            r.accuracy * 100.0,
            r.mean_sparsity
        );
    }
    let test = child.test.batches(16);
    let mut hits = 0.0;
    let mut n = 0usize;
    for (images, labels) in &test {
        let logits = net.forward(images).map_err(io_err)?;
        hits += mime_nn::accuracy(&logits, labels).map_err(io_err)? * labels.len() as f64;
        n += labels.len();
    }
    let sp = measure_sparsity(&mut net, &test).map_err(io_err)?;
    let _ = writeln!(
        out,
        "{task}: test accuracy {:.2}%, mean dynamic sparsity {:.3}",
        100.0 * hits / n.max(1) as f64,
        sp.mean()
    );
    Ok(())
}

fn small_multitask_model(seed: u64, tasks: usize) -> Result<MultiTaskModel, String> {
    let arch = vgg16_arch(0.0625, 32, 3, 8, 16);
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = build_network(&arch, &mut rng);
    let net = MimeNetwork::from_trained(&arch, &parent, 0.01).map_err(io_err)?;
    let mut model = MultiTaskModel::new(net);
    for i in 0..tasks {
        let banks = model
            .network()
            .export_thresholds()
            .into_iter()
            .map(|t| t.map(|_| 0.02 + 0.05 * i as f32))
            .collect();
        model.register_task(format!("task{i}"), banks).map_err(io_err)?;
    }
    Ok(model)
}

fn pack(out: &mut dyn Write, path: &str, tasks: usize, seed: u64) -> Result<(), CliError> {
    let model = small_multitask_model(seed, tasks)?;
    let image = pack_model(&model).map_err(io_err)?;
    write_file_atomic(Path::new(path), &image).map_err(io_err)?;
    let (w, t, n) = model.storage_profile();
    let _ = writeln!(
        out,
        "wrote {path}: {} bytes ({} backbone params, {} thresholds/task x {n} tasks)",
        image.len(),
        w,
        t
    );
    Ok(())
}

fn inspect(out: &mut dyn Write, path: &str) -> Result<(), CliError> {
    let raw = std::fs::read(path).map_err(io_err)?;
    let bytes = Bytes::from(raw);
    // Rebuild a compatible receiver at the pack() architecture; a wrong
    // architecture is reported as a readable error.
    let mut model = small_multitask_model(0, 0)?;
    let report = unpack_model(&bytes, &mut model)
        .map_err(|e| format!("error: not a compatible deployment image: {e}"))?;
    let (w, t, n) = model.storage_profile();
    if report.is_clean() {
        let _ = writeln!(out, "{path}: valid MIME deployment image (v{})", report.version);
    } else {
        let _ = writeln!(
            out,
            "{path}: damaged MIME deployment image (v{}): {} task section(s) rejected",
            report.version,
            report.rejected.len()
        );
    }
    let _ = writeln!(out, "  backbone parameters: {w}");
    let _ = writeln!(out, "  thresholds per task: {t}");
    let _ = writeln!(out, "  registered tasks:    {n}");
    for task in model.tasks() {
        let _ = writeln!(out, "    - {}", task.name);
    }
    for r in &report.rejected {
        let name = r.name.as_deref().unwrap_or("?");
        let _ = writeln!(out, "    ! task #{} ({name}) rejected: {}", r.index, r.error);
    }
    Ok(())
}

fn verify_image_cmd(out: &mut dyn Write, path: &str) -> Result<(), CliError> {
    let raw = Bytes::from(std::fs::read(path).map_err(io_err)?);
    let summary =
        verify_image(&raw).map_err(|e| format!("error: unreadable image header: {e}"))?;
    let _ = writeln!(
        out,
        "{path}: format v{}, {} bytes, {} section(s)",
        summary.version,
        summary.total_bytes,
        summary.sections.len()
    );
    let mut damaged = 0usize;
    for s in &summary.sections {
        match &s.error {
            None => {
                let _ =
                    writeln!(out, "  ok      {} ({} bytes)", s.section, s.payload_bytes);
            }
            Some(e) => {
                damaged += 1;
                let _ = writeln!(out, "  DAMAGED {}: {e}", s.section);
            }
        }
    }
    if damaged == 0 {
        let _ = writeln!(out, "image is clean");
        Ok(())
    } else {
        Err(format!("error: {damaged} damaged section(s) in {path}").into())
    }
}

fn inject_faults(
    out: &mut dyn Write,
    path: &str,
    dest: &str,
    seed: u64,
    mode: FaultMode,
    count: usize,
) -> Result<(), CliError> {
    let mut raw = std::fs::read(path).map_err(io_err)?;
    if raw.is_empty() {
        return Err(format!("error: {path} is empty; nothing to corrupt").into());
    }
    let mut injector = FaultInjector::new(seed);
    match mode {
        FaultMode::BitFlip => {
            let flips = injector.flip_bits(&mut raw, count);
            let _ = writeln!(out, "flipped {} bit(s) (seed {seed}):", flips.len());
            for f in &flips {
                let _ = writeln!(out, "  byte {:>8}, bit {}", f.offset, f.bit);
            }
        }
        FaultMode::Truncate => {
            let before = raw.len();
            let after = injector.truncate(&mut raw);
            let _ = writeln!(out, "truncated {before} -> {after} bytes (seed {seed})");
        }
        FaultMode::Garble => match injector.garble(&mut raw, count) {
            Some((offset, len)) => {
                let _ =
                    writeln!(out, "garbled {len} byte(s) at offset {offset} (seed {seed})");
            }
            None => {
                let _ = writeln!(out, "image too small to garble; left unchanged");
            }
        },
    }
    write_file_atomic(Path::new(dest), &raw).map_err(io_err)?;
    let _ = writeln!(out, "wrote {dest}: {} bytes", raw.len());
    Ok(())
}

fn sweep(out: &mut dyn Write, input_hw: usize, rounds: usize) -> Result<(), CliError> {
    let geoms = vgg16_geometry_with(input_hw, 4096, 1000);
    let cfg = ArrayConfig::eyeriss_65nm();
    let _ = writeln!(out, "batch-depth sweep (3 tasks, round-robin):");
    let _ = writeln!(
        out,
        "{:>7} {:>16} {:>16} {:>10}",
        "batch", "conventional", "MIME", "savings"
    );
    for p in mime_systolic::sweep_batch_depth(&geoms, &cfg, rounds) {
        let _ = writeln!(
            out,
            "{:>7} {:>16.4e} {:>16.4e} {:>9.2}x",
            p.x, p.conventional, p.mime, p.savings
        );
    }
    let _ = writeln!(out, "\ntask-mix sweep (fixed batch of 6):");
    let _ = writeln!(
        out,
        "{:>7} {:>16} {:>16} {:>10}",
        "tasks", "conventional", "MIME", "savings"
    );
    for p in mime_systolic::sweep_task_mix(&geoms, &cfg) {
        let _ = writeln!(
            out,
            "{:>7} {:>16.4e} {:>16.4e} {:>9.2}x",
            p.x, p.conventional, p.mime, p.savings
        );
    }
    Ok(())
}

fn validate(out: &mut dyn Write, input_hw: usize) -> Result<(), CliError> {
    let geoms = vgg16_geometry_with(input_hw, 256, 10);
    let cfg = ArrayConfig::eyeriss_65nm();
    let mapper = Mapper::new(cfg);
    let mut rng = StdRng::seed_from_u64(7);
    let density = 0.35f64;
    let _ = writeln!(out, "{:<8} {:>8} {:>8} {:>8}", "layer", "macs", "dram", "energy");
    let mut worst: f64 = 1.0;
    for geom in &geoms {
        let mapping = mapper.best_mapping(geom, 0.5, 1.0);
        let weights = Tensor::from_fn(&[geom.k, geom.c, geom.r, geom.r], |i| {
            (((i * 13) % 11) as f32 - 5.0) * 0.03
        });
        let bias = Tensor::zeros(&[geom.k]);
        let input = Tensor::from_fn(&[geom.c, geom.in_hw, geom.in_hw], |_| {
            if rng.gen_bool(density) {
                rng.gen_range(0.05f32..1.0)
            } else {
                0.0
            }
        });
        let thresholds = Tensor::full(&[geom.k * geom.sites()], 0.1);
        let mut array = FunctionalArray::new(cfg);
        let result = array
            .run_layer(geom, &mapping, &weights, &bias, &input, Some(&thresholds), true)
            .map_err(io_err)?;
        let c = array.counters();
        let doo = 1.0 - result.sparsity();
        let ana = analytic_image_counts(geom, &cfg, &mapping, density, doo, 1.0, true);
        let e_fn = c.energy(&cfg);
        let e_ana = mime_systolic::EnergyModel::from_breakdown(&ana, &cfg).total();
        let er = e_fn / e_ana.max(1.0);
        worst = worst.max(er.max(1.0 / er));
        let _ = writeln!(
            out,
            "{:<8} {:>8.2} {:>8.2} {:>8.2}",
            geom.name,
            c.macs as f64 / ana.macs.max(1.0),
            (c.dram_reads + c.dram_writes) as f64 / ana.dram_words().max(1.0),
            er
        );
    }
    let _ = writeln!(out, "worst-case energy ratio: {worst:.2}x");
    Ok(())
}

fn batch(
    out: &mut dyn Write,
    images: usize,
    tasks: usize,
    seed: u64,
    poison: Option<usize>,
) -> Result<(), CliError> {
    use mime_runtime::{ComputePath, HardwareExecutor, SparseDispatch};

    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = build_network(&arch, &mut rng);
    let mut plans: Vec<BoundNetwork> = (0..tasks)
        .map(|i| {
            // spread thresholds so tasks prune visibly different amounts
            let mut net = MimeNetwork::from_trained(&arch, &parent, 0.03 + 0.09 * i as f32)
                .map_err(io_err)?;
            if poison == Some(i) {
                // fault drill: a NaN bank binds this task as its parent
                // path
                let mut banks = net.export_thresholds();
                FaultInjector::new(seed).poison_tensor(&mut banks[0], 2);
                net.import_thresholds(&banks).map_err(io_err)?;
            }
            BoundNetwork::from_mime(&net).map_err(io_err)
        })
        .collect::<Result<_, String>>()?;
    // Pack the weights once per process: the software path runs the
    // resident operands.
    let stats = mime_runtime::prepack_plans(&mut plans).map_err(io_err)?;
    let _ = writeln!(
        out,
        "prepacked {} weighted layer(s) ({} shared, {} bytes) in {:.2} ms",
        stats.layers, stats.shared, stats.bytes, stats.ms
    );
    let batch: Vec<(usize, Tensor)> = (0..images)
        .map(|i| {
            let image = Tensor::from_fn(&[3, 32, 32], move |j| {
                (((j + i * 97) % 17) as f32 - 8.0) * 0.09
            });
            (i % tasks, image)
        })
        .collect();
    // Software compute path: the sparsity-aware fast path.
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );
    let report = exec.run_pipelined(&plans, &batch, true, true).map_err(io_err)?;
    let _ =
        writeln!(out, "ran {images} image(s) over {tasks} task(s) in one pipelined pass");
    let c = &report.counters;
    let _ = writeln!(out, "  macs executed:      {}", c.macs);
    let _ = writeln!(out, "  dram words:         {}", c.dram_reads + c.dram_writes);
    let _ = writeln!(out, "  task switches:      {}", report.task_switches);
    let _ = writeln!(out, "  threshold reloads:  {} words", report.threshold_reload_words);
    let _ = writeln!(out, "  degraded tasks:     {:?}", report.degraded_tasks);
    // bit-level fingerprint of every logit: identical across dispatch
    // policies and thread counts, or something is broken
    let _ = writeln!(out, "  logits checksum:    {:016x}", logits_checksum(&report.logits));
    if !report.degraded_tasks.is_empty() {
        // The batch completed — every image got logits — but some tasks
        // ran on the parent path. Distinct exit code so callers can
        // separate "served degraded" from hard failure.
        return Err(CliError::degraded(format!(
            "warning: batch completed with {} task(s) degraded to the parent path: {:?}",
            report.degraded_tasks.len(),
            report.degraded_tasks
        )));
    }
    Ok(())
}

/// FNV-1a over the raw bits of every logit — a stable fingerprint for
/// bit-identity smoke checks across dispatch policies and thread counts.
fn logits_checksum(logits: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for row in logits {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// Loads a deployment image for serving: every section must pass its
/// checksum and carry at least one task. `replica-worker` serves what
/// this returns; `serve` runs it on `--image` before spawning replicas.
/// The error names each rejected section.
fn load_serving_model(image: &str) -> Result<MultiTaskModel, String> {
    let raw =
        std::fs::read(image).map_err(|e| format!("cannot read image {image}: {e}"))?;
    // The receiver seed is irrelevant: the backbone and every task bank
    // are replaced by the image's sections.
    let mut receiver = small_multitask_model(0, 0)?;
    let report = unpack_model(&Bytes::from(raw), &mut receiver)
        .map_err(|e| format!("unusable image {image}: {e}"))?;
    if !report.is_clean() {
        let rejected: Vec<String> = report
            .rejected
            .iter()
            .map(|r| format!("task #{}: {}", r.index, r.error))
            .collect();
        return Err(format!(
            "image {image} has {} rejected task section(s): {}",
            rejected.len(),
            rejected.join("; ")
        ));
    }
    if receiver.tasks().is_empty() {
        return Err(format!("image {image} carries no tasks"));
    }
    Ok(receiver)
}

/// POSIX signal → atomic flag, with no libc crate: the handler may only
/// touch async-signal-safe state, so it sets a flag a watcher thread
/// polls.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);
    pub static DUMP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_dump_signal(_sig: i32) {
        DUMP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes SIGINT and SIGTERM to [`STOP`].
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Routes SIGUSR1 to [`DUMP`] — a watcher thread turns the flag
    /// into a flight-recorder dump (the handler itself may only touch
    /// async-signal-safe state).
    pub fn install_dump() {
        const SIGUSR1: i32 = 10;
        let handler = on_dump_signal as *const () as usize;
        unsafe {
            signal(SIGUSR1, handler);
        }
    }
}

/// Arms the flight recorder for this process: dump directory + label,
/// a panic hook, and a SIGUSR1 watcher thread that dumps on demand.
fn arm_flight_recorder(dir: &str, label: &str) {
    mime_obs::flight::configure(dir, label);
    mime_obs::flight::install_panic_dump();
    sig::install_dump();
    std::thread::spawn(|| loop {
        if sig::DUMP.swap(false, std::sync::atomic::Ordering::SeqCst) {
            let _ = mime_obs::flight::dump_now("sigusr1");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

/// `mime serve`: the multi-process front door. Checks a given image (or
/// packs a temporary one from `--seed`/`--tasks`), spawns `replicas`
/// copies of this binary as `replica-worker` processes, and serves.
/// With `listen`, it serves until SIGINT / SIGTERM / a client `Shutdown`
/// frame drains it. Without, it binds `127.0.0.1:0`, drives `requests`
/// requests through its own fleet with the `mime loadgen` client
/// (closed loop, 4 connections), and drains.
#[allow(clippy::too_many_arguments)]
fn serve(
    out: &mut dyn Write,
    listen: Option<&str>,
    requests: usize,
    tasks: usize,
    seed: u64,
    inject: ServeFault,
    capacity: usize,
    replicas: usize,
    image: Option<&str>,
    deadline_ms: u64,
    inject_every: usize,
    no_obs: bool,
    flight_dir: Option<&str>,
    no_brownout: bool,
    brownout_rungs: usize,
    critical_tasks: usize,
    max_batch: usize,
) -> Result<(), CliError> {
    use mime_serve::{ConnFault, FrontDoor, FrontDoorConfig, OverloadConfig};
    use std::time::Duration;

    // Every replica maps the same read-only packed artifact; without
    // --image, pack one from the --seed/--tasks fleet. A given image
    // passes the replicas' own load check first: a damaged one would
    // only fail every spawn until the restart budgets ran out.
    let (image_path, temp_image) = match image {
        Some(p) => {
            drop(load_serving_model(p).map_err(|e| format!("error: {e}"))?);
            (p.to_string(), None)
        }
        None => {
            let path = std::env::temp_dir()
                .join(format!("mime_frontdoor_{}_{seed}.mime", std::process::id()));
            let model = small_multitask_model(seed, tasks)?;
            let bytes = pack_model(&model).map_err(io_err)?;
            write_file_atomic(&path, &bytes).map_err(io_err)?;
            let s = path.to_string_lossy().into_owned();
            (s.clone(), Some(s))
        }
    };
    let exe = std::env::current_exe().map_err(io_err)?;
    let mut replica_cmd = vec![
        exe.to_string_lossy().into_owned(),
        "replica-worker".to_string(),
        "--image".to_string(),
        image_path.clone(),
    ];
    // A brownout-disabled fleet only ever dispatches rung 0, so its
    // replicas skip ladder derivation entirely (depth 1 = rung 0 only).
    let ladder_depth = if no_brownout { 1 } else { brownout_rungs };
    replica_cmd.push("--brownout-rungs".to_string());
    replica_cmd.push(ladder_depth.to_string());
    if no_obs {
        replica_cmd.push("--no-obs".to_string());
    } else if mime_obs::trace::enabled() {
        // Front door runs with --trace-out: replicas record spans too
        // and ship them home as TraceChunk frames for stitching.
        replica_cmd.push("--trace".to_string());
    }
    if let Some(dir) = flight_dir {
        replica_cmd.push("--flight-dir".to_string());
        replica_cmd.push(dir.to_string());
    }
    if !no_obs {
        // The front door's own counters feed the live /metrics scrape.
        mime_obs::set_metrics_enabled(true);
    }
    if let Some(dir) = flight_dir {
        arm_flight_recorder(dir, "frontdoor");
    }
    let mut self_inject = None;
    match inject {
        ServeFault::ReplicaAbort | ServeFault::ReplicaHang | ServeFault::ReplicaSlow => {
            replica_cmd.push("--inject".to_string());
            replica_cmd.push(inject.name().to_string());
            replica_cmd.push("--inject-every".to_string());
            replica_cmd.push(inject_every.to_string());
        }
        ServeFault::ConnGarbage => self_inject = Some(ConnFault::Garbage),
        ServeFault::ConnTruncate => self_inject = Some(ConnFault::Truncate),
        ServeFault::None => {}
    }
    let cfg = FrontDoorConfig {
        listen: listen.unwrap_or("127.0.0.1:0").to_string(),
        replicas,
        replica_cmd,
        tasks: tasks as u32,
        queue_capacity: if capacity == 0 { 64 } else { capacity },
        deadline: Duration::from_millis(deadline_ms),
        max_batch,
        self_inject,
        obs: !no_obs,
        overload: OverloadConfig {
            enabled: !no_brownout,
            max_rung: ladder_depth.saturating_sub(1).min(255) as u8,
            critical_tasks: critical_tasks as u32,
            ..OverloadConfig::default()
        },
        ..FrontDoorConfig::default()
    };
    let door = FrontDoor::start(cfg).map_err(io_err)?;
    let addr = door.addr();
    // Scripts parse this line for the kernel-assigned port; flush so it
    // is visible before the (long) serving phase.
    let _ = writeln!(out, "listening on {addr} ({replicas} replica(s))");
    let _ = out.flush();
    let stopper = door.stopper();
    sig::install();
    std::thread::spawn(move || loop {
        if sig::STOP.load(std::sync::atomic::Ordering::SeqCst) {
            stopper.stop();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    // Self-driven: this process is its own client, then drains.
    let driven = listen.is_none().then(|| {
        let driven = loadgen(
            out,
            &addr.to_string(),
            requests,
            4,
            tasks,
            deadline_ms,
            None,
            "serve",
            false,
            0,
            0.0,
        );
        door.stopper().stop();
        driven
    });
    let report = door.wait();
    if let Some(p) = temp_image {
        let _ = std::fs::remove_file(p);
    }
    let _ = writeln!(out, "front door drained, inject={}", inject.name());
    let _ = writeln!(out, "  requests:           {}", report.requests);
    let _ = writeln!(out, "  success:            {}", report.success);
    let _ = writeln!(out, "  degraded-to-parent: {}", report.degraded);
    let _ = writeln!(out, "  shed:               {}", report.shed);
    let _ = writeln!(out, "  browned-out:        {}", report.brownout);
    let _ = writeln!(out, "  rung transitions:   {}", report.rung_transitions);
    let _ = writeln!(out, "  unavailable:        {}", report.unavailable);
    let _ = writeln!(out, "  deadline-exceeded:  {}", report.deadline_exceeded);
    let _ = writeln!(out, "  failed:             {}", report.failed);
    let _ = writeln!(out, "  bad frames:         {}", report.bad_frames);
    let _ = writeln!(out, "  retries:            {}", report.retries);
    let _ = writeln!(out, "  replica restarts:   {}", report.restarts);
    let _ = writeln!(out, "  spawn failures:     {}", report.spawn_failures);
    let _ = writeln!(out, "  live replicas:      {}", report.live_replicas);
    driven.transpose()?;
    if report.drain_clean {
        let _ = writeln!(out, "every request terminated in exactly one terminal state");
        Ok(())
    } else {
        Err(CliError::degraded(
            "warning: drain timed out with connections or requests in flight".to_string(),
        ))
    }
}

/// `mime replica-worker`: the child side of the front door. Loads the
/// packed image read-only, then speaks `mime_serve::proto` frames over
/// stdin/stdout — so nothing human-readable may be written to stdout
/// here; diagnostics go to stderr via the logger.
#[allow(clippy::too_many_arguments)]
fn replica_worker(
    image: &str,
    replica: u32,
    inject: ServeFault,
    inject_every: usize,
    heartbeat_ms: u64,
    no_obs: bool,
    trace: bool,
    flight_dir: Option<&str>,
    brownout_rungs: usize,
) -> Result<(), CliError> {
    use mime_serve::replica::run_replica_worker;
    use mime_serve::{ReplicaFault, ReplicaWorkerConfig};
    use std::time::Duration;

    if !no_obs {
        mime_obs::set_metrics_enabled(true);
    }
    if trace && !no_obs {
        mime_obs::trace::set_enabled(true);
    }
    if let Some(dir) = flight_dir {
        arm_flight_recorder(dir, &format!("replica{replica}"));
    }
    let mut receiver =
        load_serving_model(image).map_err(|e| format!("error: replica {replica}: {e}"))?;
    let names: Vec<String> = receiver.tasks().iter().map(|t| t.name.clone()).collect();
    let mut plans = Vec::with_capacity(names.len());
    for name in &names {
        receiver.activate(name).map_err(io_err)?;
        plans.push(BoundNetwork::from_mime(receiver.network()).map_err(io_err)?);
    }
    // Prepack once at replica startup, never per request: the
    // `mime_prepack_total` gauge-asserted invariant in check.sh.
    mime_runtime::prepack_plans(&mut plans).map_err(io_err)?;
    let fault = match inject {
        ServeFault::ReplicaAbort => ReplicaFault::Abort,
        ServeFault::ReplicaHang => ReplicaFault::Hang,
        ServeFault::ReplicaSlow => ReplicaFault::Slow,
        _ => ReplicaFault::None,
    };
    let cfg = ReplicaWorkerConfig {
        replica,
        fault,
        fault_every: if fault == ReplicaFault::None { 0 } else { inject_every },
        heartbeat: Duration::from_millis(heartbeat_ms),
        obs: !no_obs,
        brownout_rungs,
        ..ReplicaWorkerConfig::default()
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_replica_worker(
        &plans,
        ArrayConfig::eyeriss_65nm(),
        cfg,
        &mut stdin.lock(),
        &mut stdout.lock(),
    )
    .map_err(|e| CliError::from(format!("error: replica {replica} worker loop: {e}")))
}

/// Per-thread outcome tally for `mime loadgen`.
#[derive(Default)]
struct LoadgenTally {
    success: u64,
    degraded: u64,
    shed: u64,
    unavailable: u64,
    deadline_exceeded: u64,
    failed: u64,
    /// Requests with no terminal frame (connect/write/read failure) —
    /// the one thing the chaos harness must never see.
    lost: u64,
    /// Replies per brownout rung (rungs ≥ 7 clamp into the last slot).
    rungs: [u64; 8],
    /// Times this client honored an `Overloaded` retry-after hint.
    retry_waits: u64,
    /// XOR-fold of per-reply FNV hashes over (id, logit bits) — order-
    /// independent, so concurrent runs of the same request set against
    /// rung-0-only fleets produce identical checksums (the bit-equality
    /// handle check.sh uses for rung-0 parity).
    checksum: u64,
    latencies_us: Vec<u64>,
    /// First-request latency per connection — the cold-start cost
    /// (connection setup plus whatever the server does lazily on first
    /// touch), reported as its own percentile row in the bench JSON.
    cold_us: Vec<u64>,
    /// Outcome counts for those first round trips, in
    /// [`outcome_counts`](Self::outcome_counts) order — the cold row
    /// reports real outcomes, not hardcoded zeros.
    cold_outcomes: [u64; 6],
    /// First requests that never reached a terminal frame (connect,
    /// write, or read failure on a fresh connection).
    cold_lost: u64,
    /// Admission-queue wait per successful reply, as stamped by the
    /// front door (`queue_us` on the Reply frame).
    queue_us: Vec<u64>,
    /// Replies at/above `--slow-threshold-ms`:
    /// `(id, trace, total_us, queue_us, compute_us)`.
    slow: Vec<(u64, u64, u64, u32, u32)>,
}

impl LoadgenTally {
    fn absorb(&mut self, other: LoadgenTally) {
        self.success += other.success;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.unavailable += other.unavailable;
        self.deadline_exceeded += other.deadline_exceeded;
        self.failed += other.failed;
        self.lost += other.lost;
        for (mine, theirs) in self.rungs.iter_mut().zip(other.rungs) {
            *mine += theirs;
        }
        self.retry_waits += other.retry_waits;
        self.checksum ^= other.checksum;
        self.latencies_us.extend(other.latencies_us);
        self.cold_us.extend(other.cold_us);
        for (mine, theirs) in self.cold_outcomes.iter_mut().zip(other.cold_outcomes) {
            *mine += theirs;
        }
        self.cold_lost += other.cold_lost;
        self.queue_us.extend(other.queue_us);
        self.slow.extend(other.slow);
    }

    /// The terminal-outcome counters as an array (success, degraded,
    /// shed, unavailable, deadline-exceeded, failed) — diffed around a
    /// round trip to attribute its outcome to the cold row.
    fn outcome_counts(&self) -> [u64; 6] {
        [
            self.success,
            self.degraded,
            self.shed,
            self.unavailable,
            self.deadline_exceeded,
            self.failed,
        ]
    }

    fn terminal(&self) -> u64 {
        self.success
            + self.degraded
            + self.shed
            + self.unavailable
            + self.deadline_exceeded
            + self.failed
    }
}

/// FNV-1a over one reply's identity and logit bits, for the loadgen's
/// XOR-combined fleet checksum.
fn reply_checksum(id: u64, logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for b in id.to_le_bytes() {
        eat(b);
    }
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// `p` in [0, 1] over an ascending-sorted slice (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `mime loadgen`: a fixed-count client. Each of `concurrency` threads
/// owns one connection and drives its share of the ids sequentially
/// (one request outstanding per connection). With `--rate`, sends are
/// paced open-loop by a deterministic Poisson arrival process instead
/// of send-when-answered, so offered load stays fixed while the server
/// slows down — the shape that actually exercises overload control.
#[allow(clippy::too_many_arguments)]
fn loadgen(
    out: &mut dyn Write,
    connect: &str,
    requests: usize,
    concurrency: usize,
    tasks: usize,
    deadline_ms: u64,
    bench_out: Option<&str>,
    label: &str,
    drain: bool,
    slow_threshold_ms: u64,
    rate: f64,
) -> Result<(), CliError> {
    use mime_serve::proto::{read_frame, write_frame, ErrorCode, Frame, RequestInput};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let threads = concurrency.min(requests);
    // Comfortably beyond the front door's own worst case, so "lost"
    // means the server really dropped the request, not client impatience.
    let read_timeout = Duration::from_millis(deadline_ms) + Duration::from_secs(90);
    let run_started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let connect = connect.to_string();
            std::thread::spawn(move || -> LoadgenTally {
                let mut tally = LoadgenTally::default();
                let ids: Vec<usize> = (t..requests).step_by(threads).collect();
                let mut stream = match TcpStream::connect(&connect) {
                    Ok(s) => s,
                    Err(_) => {
                        tally.lost = ids.len() as u64;
                        tally.cold_lost = 1;
                        return tally;
                    }
                };
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_nodelay(true);
                // Open-loop pacing: this connection's share of the
                // offered rate, with exponential (Poisson) inter-arrival
                // gaps from a per-thread deterministic stream. A send
                // that falls behind schedule goes out immediately —
                // open-loop clients don't slow down with the server.
                let thread_rate = rate / threads as f64;
                let mut rng = StdRng::seed_from_u64(0xC0DE + t as u64);
                let open_loop_started = Instant::now();
                let mut next_send = Duration::ZERO;
                // An honored Overloaded retry-after hint delays this
                // connection's next send (capped at 2 s).
                let mut backoff = Duration::ZERO;
                for (n, i) in ids.iter().copied().enumerate() {
                    if thread_rate > 0.0 {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        next_send += Duration::from_secs_f64(-u.ln() / thread_rate);
                        let due = next_send.max(backoff.max(open_loop_started.elapsed()));
                        let wait = due.saturating_sub(open_loop_started.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                    } else if !backoff.is_zero() {
                        let wait = backoff.saturating_sub(open_loop_started.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                    }
                    backoff = Duration::ZERO;
                    let req = Frame::Request {
                        id: i as u64,
                        trace: 0,
                        task: (i % tasks) as u32,
                        deadline_ms: deadline_ms as u32,
                        rung: 0,
                        input: RequestInput::Probe(i as u32),
                    };
                    let started = Instant::now();
                    if write_frame(&mut stream, &req).is_err() {
                        tally.lost += (ids.len() - n) as u64;
                        if n == 0 {
                            tally.cold_lost = 1;
                        }
                        break;
                    }
                    // (trace, queue_us, compute_us) from a full Reply,
                    // for the queue percentiles and slow-request report.
                    let mut detail: Option<(u64, u32, u32)> = None;
                    let before = tally.outcome_counts();
                    match read_frame(&mut stream) {
                        Ok(Frame::Reply {
                            id,
                            trace,
                            degraded,
                            queue_us,
                            compute_us,
                            rung,
                            logits,
                        }) if id == i as u64 => {
                            detail = Some((trace, queue_us, compute_us));
                            tally.rungs[usize::from(rung).min(7)] += 1;
                            tally.checksum ^= reply_checksum(id, &logits);
                            if degraded {
                                tally.degraded += 1;
                            } else {
                                tally.success += 1;
                            }
                        }
                        Ok(Frame::ErrorReply { id, code, retry_after_ms, .. })
                            if id == i as u64 =>
                        {
                            match code {
                                ErrorCode::Overloaded => {
                                    tally.shed += 1;
                                    if retry_after_ms > 0 {
                                        tally.retry_waits += 1;
                                        backoff = open_loop_started.elapsed()
                                            + Duration::from_millis(u64::from(
                                                retry_after_ms.min(2000),
                                            ));
                                    }
                                }
                                ErrorCode::Unavailable => tally.unavailable += 1,
                                ErrorCode::DeadlineExceeded => tally.deadline_exceeded += 1,
                                _ => tally.failed += 1,
                            }
                        }
                        _ => {
                            // Wrong frame, wrong id, or a dead socket:
                            // this and the rest of this connection's
                            // share are unaccounted for.
                            tally.lost += (ids.len() - n) as u64;
                            if n == 0 {
                                tally.cold_lost = 1;
                            }
                            break;
                        }
                    }
                    let us = started.elapsed().as_micros() as u64;
                    if n == 0 {
                        // this connection's first round trip: cold start,
                        // latency and outcome both
                        tally.cold_us.push(us);
                        let after = tally.outcome_counts();
                        for (c, (a, b)) in
                            tally.cold_outcomes.iter_mut().zip(after.iter().zip(before))
                        {
                            *c += a - b;
                        }
                    }
                    tally.latencies_us.push(us);
                    if let Some((trace, queue_us, compute_us)) = detail {
                        tally.queue_us.push(u64::from(queue_us));
                        if slow_threshold_ms > 0 && us >= slow_threshold_ms * 1000 {
                            tally.slow.push((i as u64, trace, us, queue_us, compute_us));
                        }
                    }
                }
                tally
            })
        })
        .collect();
    let mut tally = LoadgenTally::default();
    for w in workers {
        if let Ok(t) = w.join() {
            tally.absorb(t);
        }
    }
    let wall_secs = run_started.elapsed().as_secs_f64().max(1e-9);
    // Offered is what the client tried to present (the configured rate
    // in open-loop mode, the achieved rate closed-loop); goodput counts
    // every reply that delivered logits — browned rungs included, since
    // their quality degradation was validated and bounded at ladder
    // derivation — while sheds, deadline misses, and errors don't.
    let achieved_rps = tally.terminal() as f64 / wall_secs;
    let offered_rps = if rate > 0.0 { rate } else { achieved_rps };
    let goodput_rps = (tally.success + tally.degraded) as f64 / wall_secs;
    if drain {
        if let Ok(mut s) = TcpStream::connect(connect) {
            let _ = write_frame(&mut s, &Frame::Shutdown);
        }
    }
    tally.latencies_us.sort_unstable();
    tally.cold_us.sort_unstable();
    tally.queue_us.sort_unstable();
    let (p50, p95, p99) = (
        percentile_us(&tally.latencies_us, 0.50),
        percentile_us(&tally.latencies_us, 0.95),
        percentile_us(&tally.latencies_us, 0.99),
    );
    let (cold_p50, cold_p95, cold_p99) = (
        percentile_us(&tally.cold_us, 0.50),
        percentile_us(&tally.cold_us, 0.95),
        percentile_us(&tally.cold_us, 0.99),
    );
    let (queue_p50, queue_p95) =
        (percentile_us(&tally.queue_us, 0.50), percentile_us(&tally.queue_us, 0.95));
    let _ = writeln!(
        out,
        "loadgen: {requests} request(s) to {connect}, {threads} connection(s), \
         label {label}"
    );
    let _ = writeln!(out, "  success:            {}", tally.success);
    let _ = writeln!(out, "  degraded-to-parent: {}", tally.degraded);
    let _ = writeln!(out, "  shed:               {}", tally.shed);
    let _ = writeln!(out, "  unavailable:        {}", tally.unavailable);
    let _ = writeln!(out, "  deadline-exceeded:  {}", tally.deadline_exceeded);
    let _ = writeln!(out, "  failed:             {}", tally.failed);
    let _ = writeln!(out, "  lost:               {}", tally.lost);
    let browned: u64 = tally.rungs[1..].iter().sum();
    let _ = writeln!(out, "  browned-out:        {browned}");
    let _ = writeln!(out, "  replies by rung:    {:?}", tally.rungs);
    let _ = writeln!(out, "  retry-after waits:  {}", tally.retry_waits);
    let _ = writeln!(
        out,
        "  offered/achieved/goodput: {offered_rps:.1}/{achieved_rps:.1}/{goodput_rps:.1} rps"
    );
    let _ = writeln!(out, "  logits checksum: {:016x}", tally.checksum);
    let _ = writeln!(
        out,
        "  latency p50/p95/p99: {:.2}/{:.2}/{:.2} ms",
        p50 as f64 / 1000.0,
        p95 as f64 / 1000.0,
        p99 as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "  cold-start p50/p95/p99: {:.2}/{:.2}/{:.2} ms ({} connection(s))",
        cold_p50 as f64 / 1000.0,
        cold_p95 as f64 / 1000.0,
        cold_p99 as f64 / 1000.0,
        tally.cold_us.len()
    );
    if !tally.queue_us.is_empty() {
        let _ = writeln!(
            out,
            "  queue-wait p50/p95: {:.2}/{:.2} ms",
            queue_p50 as f64 / 1000.0,
            queue_p95 as f64 / 1000.0
        );
    }
    if slow_threshold_ms > 0 {
        // Worst offenders first; the wire share is whatever the
        // front-door-stamped queue + compute intervals don't explain.
        tally.slow.sort_unstable_by_key(|s| std::cmp::Reverse(s.2));
        let _ = writeln!(
            out,
            "  slow requests (>= {slow_threshold_ms} ms): {}",
            tally.slow.len()
        );
        for (id, trace, total_us, queue_us, compute_us) in tally.slow.iter().take(10) {
            let wire_us =
                total_us.saturating_sub(u64::from(*queue_us) + u64::from(*compute_us));
            let _ = writeln!(
                out,
                "    id {id} trace {trace}: total {:.2} ms = queue {:.2} + compute {:.2} + wire {:.2}",
                *total_us as f64 / 1000.0,
                f64::from(*queue_us) / 1000.0,
                f64::from(*compute_us) / 1000.0,
                wire_us as f64 / 1000.0
            );
        }
    }
    if let Some(path) = bench_out {
        let rung_counts: Vec<String> = tally.rungs.iter().map(|c| c.to_string()).collect();
        let run = format!(
            "{{\"label\":\"{}\",\"requests\":{requests},\"concurrency\":{threads},\
             \"success\":{},\"degraded\":{},\"shed\":{},\"unavailable\":{},\
             \"deadline_exceeded\":{},\"failed\":{},\"lost\":{},\
             \"offered_rps\":{offered_rps:.1},\"achieved_rps\":{achieved_rps:.1},\
             \"goodput_rps\":{goodput_rps:.1},\"rungs\":[{}],\"retry_waits\":{},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\
             \"queue_p50_ms\":{:.3},\"queue_p95_ms\":{:.3}}}",
            label.replace(['"', '\\'], "_"),
            tally.success,
            tally.degraded,
            tally.shed,
            tally.unavailable,
            tally.deadline_exceeded,
            tally.failed,
            tally.lost,
            rung_counts.join(","),
            tally.retry_waits,
            p50 as f64 / 1000.0,
            p95 as f64 / 1000.0,
            p99 as f64 / 1000.0,
            queue_p50 as f64 / 1000.0,
            queue_p95 as f64 / 1000.0,
        );
        merge_bench_serve(path, &run)?;
        // cold-start percentiles as their own row — the first request
        // per connection, which is what a just-(re)started replica
        // fleet shows to its first callers
        let safe_label = label.replace(['"', '\\'], "_");
        let [c_ok, c_deg, c_shed, c_unavail, c_dl, c_fail] = tally.cold_outcomes;
        let cold = format!(
            "{{\"label\":\"{safe_label}-cold\",\"requests\":{},\"concurrency\":{threads},\
             \"success\":{c_ok},\"degraded\":{c_deg},\"shed\":{c_shed},\
             \"unavailable\":{c_unavail},\"deadline_exceeded\":{c_dl},\
             \"failed\":{c_fail},\"lost\":{},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3}}}",
            tally.cold_us.len() as u64 + tally.cold_lost,
            tally.cold_lost,
            cold_p50 as f64 / 1000.0,
            cold_p95 as f64 / 1000.0,
            cold_p99 as f64 / 1000.0,
        );
        merge_bench_serve(path, &cold)?;
        let _ = writeln!(out, "  wrote {path}");
    }
    if tally.terminal() as usize == requests && tally.lost == 0 {
        let _ = writeln!(out, "every request terminated in exactly one terminal state");
        Ok(())
    } else {
        Err(format!(
            "error: {} request(s) never reached a terminal state",
            requests as u64 - tally.terminal().min(requests as u64)
        )
        .into())
    }
}

/// Appends one run object to the `runs` array of a
/// `mime-bench-serve/v1` JSON file, creating the file if needed. Plain
/// string surgery — the file format is ours and the writes are atomic.
fn merge_bench_serve(path: &str, run_json: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let merged = match text.rfind(']') {
        Some(pos) if text.contains("\"runs\"") => {
            let mut s = text.clone();
            let insert = if s[..pos].trim_end().ends_with('[') {
                run_json.to_string()
            } else {
                format!(",{run_json}")
            };
            s.insert_str(pos, &insert);
            s
        }
        _ => format!("{{\"schema\":\"mime-bench-serve/v1\",\"runs\":[{run_json}]}}\n"),
    };
    write_file_atomic(Path::new(path), merged.as_bytes()).map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(cmd: Command) -> String {
        let mut buf = Vec::new();
        run(cmd, &mut buf).expect("command runs");
        String::from_utf8(buf).expect("utf8 output")
    }

    #[test]
    fn help_lists_all_commands() {
        let s = capture(Command::Help);
        for cmd in [
            "storage",
            "simulate",
            "train",
            "pack",
            "inspect",
            "verify-image",
            "inject-faults",
            "sweep",
            "validate",
            "batch",
            "--trace-out",
            "--metrics-out",
            "--log-level",
        ] {
            assert!(s.contains(cmd), "{cmd} missing from help");
        }
    }

    #[test]
    fn storage_prints_curve() {
        let s = capture(Command::Storage { input_hw: 64, children: 3 });
        assert!(s.contains("children"));
        assert_eq!(s.lines().count(), 1 + 4); // header + 0..=3
        assert!(s.contains('x'));
    }

    #[test]
    fn simulate_prints_all_layers() {
        let s = capture(Command::Simulate {
            pipelined: true,
            approach: SimApproach::Mime,
            pe: 1024,
            cache_kb: 156,
            input_hw: 64,
            csv: false,
        });
        assert!(s.contains("conv16"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn simulate_csv_output() {
        let s = capture(Command::Simulate {
            pipelined: true,
            approach: SimApproach::Case2,
            pe: 1024,
            cache_kb: 156,
            input_hw: 64,
            csv: true,
        });
        assert!(s.starts_with("layer,e_dram"));
        assert_eq!(s.lines().count(), 17);
    }

    #[test]
    fn pack_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join("mime_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mime");
        let path_str = path.to_str().unwrap().to_string();
        let s = capture(Command::Pack { out: path_str.clone(), tasks: 2, seed: 1 });
        assert!(s.contains("wrote"));
        let s = capture(Command::Inspect { path: path_str });
        assert!(s.contains("valid MIME deployment image"));
        assert!(s.contains("task0"));
        assert!(s.contains("task1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_clean_image() {
        let dir = std::env::temp_dir().join("mime_cli_test_verify");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mime");
        let path_str = path.to_str().unwrap().to_string();
        capture(Command::Pack { out: path_str.clone(), tasks: 2, seed: 1 });
        let s = capture(Command::VerifyImage { path: path_str });
        assert!(s.contains("image is clean"), "{s}");
        assert!(s.contains("backbone"), "{s}");
        assert!(s.contains("task1"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inject_then_verify_flags_damage() {
        let dir = std::env::temp_dir().join("mime_cli_test_inject");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.mime").to_str().unwrap().to_string();
        let bad = dir.join("bad.mime").to_str().unwrap().to_string();
        capture(Command::Pack { out: clean.clone(), tasks: 2, seed: 1 });
        let s = capture(Command::InjectFaults {
            path: clean.clone(),
            out: bad.clone(),
            seed: 9,
            mode: FaultMode::BitFlip,
            count: 3,
        });
        assert!(s.contains("flipped 3 bit(s)"), "{s}");
        // Same seed, same file → identical corruption (determinism).
        let s2 = capture(Command::InjectFaults {
            path: clean,
            out: bad.clone(),
            seed: 9,
            mode: FaultMode::BitFlip,
            count: 3,
        });
        assert_eq!(s.lines().nth(1), s2.lines().nth(1));
        let mut buf = Vec::new();
        let err = run(Command::VerifyImage { path: bad }, &mut buf).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("damaged section"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inject_truncate_mode() {
        let dir = std::env::temp_dir().join("mime_cli_test_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.mime").to_str().unwrap().to_string();
        let bad = dir.join("bad.mime").to_str().unwrap().to_string();
        capture(Command::Pack { out: clean.clone(), tasks: 1, seed: 2 });
        let s = capture(Command::InjectFaults {
            path: clean.clone(),
            out: bad.clone(),
            seed: 3,
            mode: FaultMode::Truncate,
            count: 1,
        });
        assert!(s.contains("truncated"), "{s}");
        let clean_len = std::fs::metadata(&clean).unwrap().len();
        let bad_len = std::fs::metadata(&bad).unwrap().len();
        assert!(bad_len < clean_len, "{bad_len} vs {clean_len}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_rejects_garbage() {
        let dir = std::env::temp_dir().join("mime_cli_test_garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        std::fs::write(&path, b"not an image").unwrap();
        let mut buf = Vec::new();
        let err = run(Command::Inspect { path: path.to_str().unwrap().into() }, &mut buf)
            .unwrap_err();
        assert!(err.message.contains("not a compatible"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_missing_file_errors() {
        let mut buf = Vec::new();
        assert!(
            run(Command::Inspect { path: "/nonexistent/x.mime".into() }, &mut buf).is_err()
        );
    }

    #[test]
    fn sweep_prints_both_tables() {
        let s = capture(Command::Sweep { input_hw: 64, rounds: 2 });
        assert!(s.contains("batch-depth sweep"));
        assert!(s.contains("task-mix sweep"));
        assert!(s.matches('x').count() >= 5);
    }

    #[test]
    fn validate_small_geometry() {
        let s = capture(Command::Validate { input_hw: 32 });
        assert!(s.contains("worst-case energy ratio"));
        assert!(s.contains("conv1"));
    }

    #[test]
    fn batch_reports_counters_and_checksum() {
        let s = capture(Command::Batch { images: 3, tasks: 2, seed: 1, poison: None });
        assert!(s.contains("macs executed"), "{s}");
        assert!(s.contains("logits checksum"), "{s}");
        assert!(s.contains("degraded tasks:     []"), "{s}");
    }

    #[test]
    fn batch_poison_drill_degrades_with_exit_code_2() {
        let mut buf = Vec::new();
        let err =
            run(Command::Batch { images: 4, tasks: 2, seed: 1, poison: Some(1) }, &mut buf)
                .unwrap_err();
        assert_eq!(err.code, EXIT_DEGRADED);
        assert!(err.message.contains("degraded"), "{err}");
        assert!(err.message.contains("[1]"), "{err}");
        // the batch still completed, every image with logits
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("logits checksum"), "{s}");
        assert!(s.contains("degraded tasks:     [1]"), "{s}");
    }
}
