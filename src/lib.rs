//! # mime — reproduction of "MIME: Adapting a Single Neural Network for
//! Multi-task Inference with Memory-efficient Dynamic Pruning" (DAC 2022)
//!
//! This umbrella crate re-exports the workspace's sub-crates behind one
//! dependency:
//!
//! * [`tensor`] — dense `f32` tensor kernels (matmul, im2col conv,
//!   pooling).
//! * [`nn`] — layers, the VGG16 builder, optimizers, losses, pruning.
//! * [`core`] — the MIME algorithm: threshold masks, the STE trainer,
//!   the multi-task model, sparsity measurement.
//! * [`datasets`] — synthetic parent/child tasks standing in for
//!   ImageNet/CIFAR/F-MNIST.
//! * [`systolic`] — the Eyeriss-style systolic-array co-simulator
//!   (mapper, memory hierarchy, Table-IV energy model, task modes) plus a
//!   functional execution-level array.
//! * [`runtime`] — hardware-in-the-loop executor running trained networks
//!   on the functional array with task-aware parameter residency.
//! * [`serve`] — resilient serving loop: bounded admission, deadlines,
//!   retries, supervised workers respawned after a backoff.
//! * [`obs`] — tracing spans, the metrics registry, and the structured
//!   logger behind the per-layer profiling hooks.
//!
//! ## Quickstart
//!
//! ```
//! use mime::core::{MimeNetwork, MimeTrainer, MimeTrainerConfig};
//! use mime::datasets::{TaskFamily, TaskSpec};
//! use mime::nn::{build_network, vgg16_arch};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), mime::core::MimeError> {
//! // a (tiny) parent backbone with a 10-class head (cifar10-like width)
//! let arch = vgg16_arch(0.0625, 32, 3, 10, 16);
//! let mut rng = StdRng::seed_from_u64(0);
//! let parent = build_network(&arch, &mut rng);
//!
//! // MIME: freeze W_parent, learn per-task thresholds
//! let mut net = MimeNetwork::from_trained(&arch, &parent, 0.01)?;
//! let family = TaskFamily::new(7, 3, 32);
//! let task = family.generate(&TaskSpec::cifar10_like().with_samples(2, 1));
//! let mut trainer = MimeTrainer::new(MimeTrainerConfig { epochs: 1, ..Default::default() });
//! trainer.train(&mut net, &task.train.batches(8))?;
//! assert_eq!(net.masks().len(), 15);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the table/figure regeneration binaries.

pub use mime_core as core;
pub use mime_datasets as datasets;
pub use mime_nn as nn;
pub use mime_obs as obs;
pub use mime_runtime as runtime;
pub use mime_serve as serve;
pub use mime_systolic as systolic;
pub use mime_tensor as tensor;
