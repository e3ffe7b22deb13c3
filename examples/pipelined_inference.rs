//! Pipelined multi-task inference — the paper's motivating scenario.
//!
//! Trains thresholds for three child tasks **in parallel** (one scoped
//! thread per task) over one shared frozen backbone, registers
//! them in a [`MultiTaskModel`], then runs a task-interleaved batch the
//! way the paper's *Pipelined task mode* does, counting threshold swaps.
//! Finally it feeds the measured sparsity into the systolic simulator and
//! prints the energy comparison against conventional multi-task
//! inference.
//!
//! ```text
//! cargo run --release --example pipelined_inference
//! ```

use mime::core::{
    measure_sparsity, MimeNetwork, MimeTrainer, MimeTrainerConfig, MultiTaskModel,
};
use mime::datasets::{pipelined_batches, TaskFamily, TaskSpec};
use mime::nn::{build_network, train_epoch, vgg16_arch, Adam};
use mime::systolic::{
    simulate_network, vgg16_geometry, Approach, ArrayConfig, Scenario, TaskMode,
};
use mime::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::Mutex;

fn main() -> Result<(), Box<dyn Error>> {
    // shared parent backbone
    let classes = 10usize;
    let family = TaskFamily::new(77, 3, 32);
    let arch = vgg16_arch(0.125, 32, 3, classes, 64);
    let mut rng = StdRng::seed_from_u64(3);
    let mut parent = build_network(&arch, &mut rng);
    let parent_task = family
        .generate(&TaskSpec { classes, ..TaskSpec::imagenet_like().with_samples(16, 4) });
    let mut opt = Adam::with_lr(1e-3);
    for _ in 0..5 {
        train_epoch(&mut parent, &parent_task.train.batches(16), &mut opt)?;
    }
    println!("parent trained; spawning one threshold-training thread per child task\n");

    // three child tasks with a shared head width (10 classes each)
    let specs = vec![
        TaskSpec::cifar10_like().with_samples(16, 6),
        TaskSpec { classes, ..TaskSpec::cifar100_like().with_samples(16, 6) },
        TaskSpec::fmnist_like().with_samples(16, 6),
    ];
    let trained: Mutex<Vec<(String, Vec<Tensor>, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for spec in &specs {
            let arch = &arch;
            let parent = &parent;
            let family = &family;
            let trained = &trained;
            scope.spawn(move || {
                let task = family.generate(spec);
                let mut net = MimeNetwork::from_trained(arch, parent, 0.01)
                    .expect("parent/arch match");
                let mut trainer = MimeTrainer::new(MimeTrainerConfig {
                    epochs: 6,
                    ..MimeTrainerConfig::default()
                });
                trainer
                    .train(&mut net, &task.train.batches(16))
                    .expect("threshold training");
                let sparsity = measure_sparsity(&mut net, &task.test.batches(16))
                    .expect("sparsity measurement")
                    .mean();
                trained
                    .lock()
                    .expect("a training thread panicked holding the lock")
                    .push((spec.name.clone(), net.export_thresholds(), sparsity));
            });
        }
    });

    // assemble the deployable multi-task model
    let net = MimeNetwork::from_trained(&arch, &parent, 0.01)?;
    let mut model = MultiTaskModel::new(net);
    let mut mean_sparsity = 0.0;
    for (name, thresholds, sparsity) in
        trained.into_inner().expect("a training thread panicked holding the lock")
    {
        println!("task {name:<14} trained (mean dynamic sparsity {sparsity:.3})");
        model.register_task(name, thresholds)?;
        mean_sparsity += sparsity / specs.len() as f64;
    }

    // pipelined batch: one image per task, interleaved
    let tasks: Vec<_> = specs.iter().map(|s| family.generate(s)).collect();
    let datasets: Vec<_> = tasks.iter().map(|t| (&t.test, t.spec.id)).collect();
    let batches = pipelined_batches(&datasets, 1);
    println!(
        "\nrunning {} pipelined batches (task-interleaved, batch of 3)...",
        batches.len()
    );
    let mut items = Vec::new();
    for batch in batches.iter().take(8) {
        let per = batch.images.len() / batch.len();
        for (i, _task_id) in batch.tasks.iter().enumerate() {
            let img = Tensor::from_vec(
                batch.images.as_slice()[i * per..(i + 1) * per].to_vec(),
                &[1, 3, 32, 32],
            )?;
            items.push((specs[i % specs.len()].name.clone(), img));
        }
    }
    let logits = model.infer_pipelined(&items)?;
    println!(
        "processed {} images across 3 tasks with {} threshold swaps (weights loaded once)",
        logits.len(),
        model.switch_count()
    );

    // hardware story: what that batch costs on the systolic array
    println!("\nsystolic-array energy for the paper-scale pipelined batch:");
    let geoms = vgg16_geometry(224);
    let cfg = ArrayConfig::eyeriss_65nm();
    let conv = simulate_network(
        &geoms,
        &cfg,
        &Scenario { mode: TaskMode::paper_pipelined(), approach: Approach::Case2 },
    );
    let mime = simulate_network(
        &geoms,
        &cfg,
        &Scenario { mode: TaskMode::paper_pipelined(), approach: Approach::Mime },
    );
    let tc: f64 = conv.iter().map(|l| l.total_energy()).sum();
    let tm: f64 = mime.iter().map(|l| l.total_energy()).sum();
    println!("  conventional (zero-skipping): {tc:.3e} MAC-units");
    println!(
        "  MIME:                         {tm:.3e} MAC-units  ({:.2}x savings)",
        tc / tm
    );
    println!("  measured mean dynamic sparsity of our trained tasks: {mean_sparsity:.3}");
    Ok(())
}
