//! # mime-nn
//!
//! Neural-network building blocks for the MIME reproduction: a [`Layer`]
//! trait with manual forward/backward passes, the standard VGG16 topology
//! (with a width multiplier so the child-task experiments run on a CPU),
//! [`Adam`]/[`Sgd`] optimizers, softmax cross-entropy, a training loop,
//! and the pruning-at-initialization comparator used by the paper's Fig. 8.
//!
//! The [`Layer`] trait is public and object-safe so that `mime-core` can
//! implement its own threshold-masking layer and splice it into the same
//! [`Sequential`] container that hosts the frozen parent backbone.
//!
//! ## Example
//!
//! ```
//! # use mime_nn::{vgg16_arch, build_network};
//! # use rand::{rngs::StdRng, SeedableRng};
//! let arch = vgg16_arch(0.125, 32, 3, 10, 32);
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = build_network(&arch, &mut rng);
//! assert!(net.num_parameters() > 0);
//! ```

mod activations;
mod conv_layer;
mod layer;
mod linear_layer;
mod loss;
mod optim;
mod pool_layer;
pub mod pruning;
pub mod quant;
mod schedule;
mod sequential;
mod train;
mod vgg;

pub use activations::{Flatten, ReluLayer};
pub use conv_layer::Conv2d;
pub use layer::{GemmDims, Layer, LayerKind, Parameter};
pub use linear_layer::Linear;
pub use loss::{accuracy, softmax_cross_entropy, CrossEntropyOut};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use pool_layer::MaxPool2d;
pub use schedule::{diverged, EarlyStopping, LrSchedule};
pub use sequential::Sequential;
pub use train::{evaluate, train_epoch, TrainConfig, TrainReport};
pub use vgg::{build_network, vgg16_arch, VggArch, VggBlock};

/// Result alias re-exported from the tensor crate: all layer maths share
/// the same error type.
pub type Result<T> = mime_tensor::Result<T>;
