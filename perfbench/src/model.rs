//! Seeded model and input construction: the calibrated three-task image
//! each workload serves, its input pool, and the reference logits every
//! measured result is compared against.

use bytes::Bytes;
use mime_core::deploy::{pack_model, unpack_model};
use mime_core::{calibrate_thresholds, MimeNetwork, MultiTaskModel};
use mime_datasets::{TaskFamily, TaskSpec};
use mime_nn::{build_network, vgg16_arch, VggArch};
use mime_runtime::{prepack_plans, BoundNetwork};
use mime_systolic::{paper_sparsity_mime, ChildTask};
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Table II band every task's mean measured sparsity must land in.
pub const SPARSITY_BAND: (f64, f64) = (0.56, 0.69);

/// `calibrate_thresholds` passes per task.
const CALIBRATION_PASSES: usize = 3;

/// Seed of the frozen parent backbone.
const BACKBONE_SEED: u64 = 0x5EED;

/// Model geometry a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// What `mime replica-worker` loads: VGG16 at width 0.0625, 32×32
    /// inputs, FC width 16, 8 classes.
    Serve,
    /// CIFAR VGG16: width 1.0, 32×32 inputs, FC width 4096, 10 classes.
    Cifar,
}

impl Geometry {
    pub fn arch(self) -> VggArch {
        match self {
            Geometry::Serve => vgg16_arch(0.0625, 32, 3, 8, 16),
            Geometry::Cifar => vgg16_arch(1.0, 32, 3, 10, 4096),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Geometry::Serve => "serve",
            Geometry::Cifar => "cifar",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve" => Some(Geometry::Serve),
            "cifar" => Some(Geometry::Cifar),
            _ => None,
        }
    }
}

/// The three served tasks: CIFAR10, CIFAR100 and F-MNIST stand-ins.
fn task_specs() -> [(ChildTask, TaskSpec); 3] {
    [
        (ChildTask::Cifar10, TaskSpec::cifar10_like()),
        (ChildTask::Cifar100, TaskSpec::cifar100_like()),
        (ChildTask::Fmnist, TaskSpec::fmnist_like()),
    ]
}

/// Calibration quantile of a task: the mean of its Table II per-layer
/// sparsities over the 15 masked layers.
fn calibration_quantile(task: ChildTask) -> f64 {
    let p = paper_sparsity_mime(task);
    let masked = &p.values()[..15];
    masked.iter().sum::<f64>() / masked.len() as f64
}

/// One pool entry: a task index, its input `[3, 32, 32]`, and the
/// reference logits `MimeNetwork::forward` produced for it.
#[derive(Debug, Clone)]
pub struct PoolItem {
    pub task: u32,
    pub input: Tensor,
    pub reference: Vec<f32>,
}

/// Everything `prepare` produces for one geometry.
pub struct Prepared {
    pub image: Bytes,
    pub pool: Vec<PoolItem>,
    pub sparsity: Vec<TaskSparsity>,
}

/// One task's measured output sparsity over its pool images.
#[derive(Debug, Clone)]
pub struct TaskSparsity {
    pub task: String,
    /// `(layer, share of outputs exactly zero)` for every masked layer.
    pub layers: Vec<(String, f64)>,
    /// Mean over the masked layers.
    pub mean: f64,
}

impl Prepared {
    /// Whether every task's mean sparsity is inside [`SPARSITY_BAND`].
    pub fn in_band(&self) -> bool {
        self.sparsity.iter().all(|t| (SPARSITY_BAND.0..=SPARSITY_BAND.1).contains(&t.mean))
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// A receiver model over `geom` for `unpack_model`: its weights and
/// banks are all replaced by the image's sections.
pub fn receiver(geom: Geometry) -> mime_core::Result<MultiTaskModel> {
    let arch = geom.arch();
    let parent = build_network(&arch, &mut StdRng::seed_from_u64(0));
    Ok(MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.0)?))
}

/// Builds the seeded calibrated image for `geom` (thresholds calibrated on
/// `calibration` images per task), `per_task` pool images per task, and
/// their reference logits from the *unpacked* model (the image stores
/// 16-bit parameters, so the reference must read the same bytes the
/// measured path reads).
///
/// # Errors
///
/// Propagates model construction, calibration, packing and forward errors.
pub fn prepare(
    geom: Geometry,
    seed: u64,
    calibration: usize,
    per_task: usize,
) -> mime_core::Result<Prepared> {
    let arch = geom.arch();
    // One frozen parent backbone per geometry, like a deployed MIME
    // system's W_parent; the seed draws the task images the threshold
    // banks are calibrated on, the pool and the request schedule.
    let parent = build_network(&arch, &mut StdRng::seed_from_u64(BACKBONE_SEED));
    let mut model = MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.0)?);
    drop(parent);
    let family = TaskFamily::new(mix(seed, 0xDA7A), arch.in_channels, arch.input_hw);
    let mut inputs: Vec<Vec<Tensor>> = Vec::new();
    for (child, spec) in task_specs() {
        let classes = spec.classes;
        let per_class = |n: usize| n.div_ceil(classes).max(1);
        let spec = spec.with_samples(per_class(calibration), per_class(per_task));
        let data = family.generate(&spec);
        let calib = first_images(data.train.images(), calibration)?;
        // each pass sets every layer's bank from pre-activations seen
        // under the previous pass's upstream banks; repeating lets deep
        // layers settle under the final upstream sparsity
        for _ in 0..CALIBRATION_PASSES {
            calibrate_thresholds(model.network_mut(), &calib, calibration_quantile(child))?;
        }
        model.adopt_current(spec.name.clone())?;
        inputs.push(split_images(data.test.images(), per_task)?);
    }
    let image = pack_model(&model)?;
    drop(model);
    let mut reference = receiver(geom)?;
    unpack_model(&image, &mut reference)?;
    let names: Vec<String> = reference.tasks().iter().map(|t| t.name.clone()).collect();
    let mut sparsity = Vec::new();
    let mut per_task_items: Vec<Vec<PoolItem>> = Vec::new();
    for (t, name) in names.iter().enumerate() {
        reference.activate(name)?;
        let mut sums: Vec<(String, f64)> = Vec::new();
        let mut items = Vec::new();
        for input in &inputs[t] {
            let batch =
                input.reshape(&[1, arch.in_channels, arch.input_hw, arch.input_hw])?;
            let logits = reference.network_mut().forward(&batch)?;
            let layers = reference.network().layer_sparsities();
            if sums.is_empty() {
                sums = layers.iter().map(|(n, _)| (n.clone(), 0.0)).collect();
            }
            for (acc, (_, s)) in sums.iter_mut().zip(&layers) {
                acc.1 += s;
            }
            items.push(PoolItem {
                task: t as u32,
                input: input.clone(),
                reference: logits.as_slice().to_vec(),
            });
        }
        for acc in &mut sums {
            acc.1 /= inputs[t].len() as f64;
        }
        let mean = sums.iter().map(|(_, s)| s).sum::<f64>() / sums.len() as f64;
        sparsity.push(TaskSparsity { task: name.clone(), layers: sums, mean });
        per_task_items.push(items);
    }
    // interleave tasks so consecutive pool entries cycle CIFAR10,
    // CIFAR100, F-MNIST — mixed-task batches fall out of plain slicing
    let mut pool = Vec::new();
    for i in 0..per_task {
        for items in &per_task_items {
            pool.push(items[i].clone());
        }
    }
    Ok(Prepared { image, pool, sparsity })
}

fn first_images(images: &Tensor, n: usize) -> mime_core::Result<Tensor> {
    let dims = images.dims();
    let per: usize = dims[1..].iter().product();
    let n = n.min(dims[0]);
    let mut out_dims = dims.to_vec();
    out_dims[0] = n;
    Ok(Tensor::from_vec(images.as_slice()[..n * per].to_vec(), &out_dims)?)
}

fn split_images(images: &Tensor, n: usize) -> mime_core::Result<Vec<Tensor>> {
    let dims = images.dims();
    let per: usize = dims[1..].iter().product();
    (0..n.min(dims[0]))
        .map(|i| {
            Ok(Tensor::from_vec(images.as_slice()[i * per..][..per].to_vec(), &dims[1..])?)
        })
        .collect()
}

/// Timings of one deploy → bind → prepack pass.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub unpack_ms: f64,
    pub bind_ms: f64,
    pub prepack_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.unpack_ms + self.bind_ms + self.prepack_ms) / 1e3
    }
}

/// The set-up a serving process performs on an image: `unpack_model`
/// into `receiver`, `BoundNetwork::from_mime` per task, `prepack_plans`.
/// Returns the prepacked plans (task order) and the timings.
///
/// # Errors
///
/// Fails on an unusable image or a bind error.
pub fn load_plans(
    image: &Bytes,
    receiver: &mut MultiTaskModel,
) -> Result<(Vec<BoundNetwork>, SetupTimes), String> {
    let t0 = Instant::now();
    let report = unpack_model(image, receiver).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    if !report.is_clean() || report.loaded.is_empty() {
        return Err(format!("image loaded {} task(s) cleanly", report.loaded.len()));
    }
    let mut plans = Vec::with_capacity(report.loaded.len());
    for name in &report.loaded {
        receiver.activate(name).map_err(|e| e.to_string())?;
        plans.push(BoundNetwork::from_mime(receiver.network()).map_err(|e| e.to_string())?);
    }
    let t2 = Instant::now();
    prepack_plans(&mut plans).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok((
        plans,
        SetupTimes { unpack_ms: ms(t0, t1), bind_ms: ms(t1, t2), prepack_ms: ms(t2, t3) },
    ))
}
