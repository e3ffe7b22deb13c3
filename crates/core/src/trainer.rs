//! Threshold training (paper eqs. 3–4 and the Fig. 3a procedure),
//! with crash-safe epoch checkpointing and resume.

use crate::deploy::{pack_image, unpack_checkpoint, write_file_atomic};
use crate::{MimeError, MimeNetwork, TaskEntry};
use bytes::Bytes;
use mime_nn::{accuracy, softmax_cross_entropy, Adam, Optimizer};
use mime_tensor::Tensor;
use std::path::{Path, PathBuf};

/// Hyper-parameters of MIME threshold training.
///
/// Defaults follow the paper: Adam, lr = 1e-3, β = 1e-6 (for batch size
/// 100), 10 epochs.
#[derive(Debug, Clone, Copy)]
pub struct MimeTrainerConfig {
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Learning rate for the threshold banks; defaults to `lr`. Because
    /// each threshold only shifts one neuron's firing point, a larger
    /// rate than the head's is stable and compensates for short
    /// mini-scale schedules (the paper trains on 50k-image datasets,
    /// ~40× more steps than the synthetic tasks provide).
    pub threshold_lr: f32,
    /// Weight of the threshold regularizer `L_t = Σ exp(t_i)`
    /// (paper: 1e-6).
    pub beta: f32,
    /// Number of epochs (paper: 10).
    pub epochs: usize,
    /// Lower clamp applied to thresholds after every step, preserving the
    /// paper's `t_i > 0` constraint.
    pub threshold_min: f32,
}

impl Default for MimeTrainerConfig {
    fn default() -> Self {
        MimeTrainerConfig {
            lr: 1e-3,
            threshold_lr: 1e-3,
            beta: 1e-6,
            epochs: 10,
            threshold_min: 0.0,
        }
    }
}

/// Per-epoch metrics of threshold training.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThresholdEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean cross-entropy over the epoch.
    pub ce_loss: f64,
    /// Final regularizer value `Σ exp(t_i)` (unweighted by β).
    pub reg_loss: f64,
    /// Mean training accuracy over the epoch.
    pub accuracy: f64,
    /// Mean masked-neuron sparsity across all masks at epoch end.
    pub mean_sparsity: f64,
}

/// Crash-safe epoch checkpointing for [`MimeTrainer::train_resumable`].
///
/// After each epoch the learned state (frozen backbone + current
/// threshold banks) is packed with [`pack_image`] into
/// `<dir>/epoch-NNNN.mime`, written atomically via
/// [`write_file_atomic`]. The single task entry in each checkpoint is
/// named `epoch-NNNN`, which is how [`resume`](Self::resume) recovers
/// the epoch counter without a sidecar file.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
}

impl Checkpointer {
    /// Creates (if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`MimeError::Io`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> crate::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| MimeError::io(dir.display().to_string(), &e))?;
        Ok(Checkpointer { dir })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:04}.mime"))
    }

    /// Atomically persists the state after completing 0-based `epoch`.
    /// Returns the checkpoint path.
    ///
    /// # Errors
    ///
    /// Packing or filesystem failures.
    pub fn save(&self, net: &MimeNetwork, epoch: usize) -> crate::Result<PathBuf> {
        let entry = TaskEntry {
            name: format!("epoch-{epoch:04}"),
            thresholds: net.export_thresholds(),
        };
        let image = pack_image(net, std::slice::from_ref(&entry))?;
        let path = self.checkpoint_path(epoch);
        write_file_atomic(&path, &image)?;
        mime_obs::debug!(
            "core.trainer",
            "checkpoint saved",
            epoch = epoch,
            bytes = image.len()
        );
        Ok(path)
    }

    /// Restores the newest *clean* checkpoint into `net` and returns
    /// `Some((next_epoch, path))` — the 0-based epoch training should
    /// continue from — or `None` when the directory holds no usable
    /// checkpoint.
    ///
    /// Every candidate goes through the strict, all-or-nothing
    /// [`unpack_checkpoint`], which checks the framing and every section
    /// CRC before it touches `net`; a torn, corrupted, or unparseable
    /// file is skipped in favour of the next-newest one, so a crash
    /// mid-run (or a damaged disk) degrades to resuming one epoch
    /// earlier instead of failing.
    ///
    /// # Errors
    ///
    /// [`MimeError::Io`] when the directory itself cannot be listed.
    pub fn resume(&self, net: &mut MimeNetwork) -> crate::Result<Option<(usize, PathBuf)>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| MimeError::io(self.dir.display().to_string(), &e))?;
        let mut candidates: Vec<(usize, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                let epoch = epoch_from_path(&path)?;
                Some((epoch, path))
            })
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (epoch, path) in candidates {
            match Self::restore_one(net, &path, epoch) {
                Ok(()) => return Ok(Some((epoch + 1, path))),
                Err(e) => {
                    mime_obs::warn!(
                        "core.trainer",
                        "skipping unusable checkpoint",
                        path = path.display(),
                        error = e
                    );
                }
            }
        }
        Ok(None)
    }

    /// Strictly restores one checkpoint file.
    fn restore_one(net: &mut MimeNetwork, path: &Path, epoch: usize) -> crate::Result<()> {
        let bytes = std::fs::read(path)
            .map_err(|e| MimeError::io(path.display().to_string(), &e))?;
        let entries = unpack_checkpoint(&Bytes::from(bytes), net)?;
        let entry = entries
            .iter()
            .find(|t| t.name == format!("epoch-{epoch:04}"))
            .ok_or_else(|| MimeError::UnknownTask { name: format!("epoch-{epoch:04}") })?;
        net.import_thresholds(&entry.thresholds)?;
        Ok(())
    }
}

/// Parses `epoch-NNNN.mime` back into `NNNN`.
fn epoch_from_path(path: &Path) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("epoch-")?.strip_suffix(".mime")?;
    digits.parse().ok()
}

/// Trains the threshold banks of a [`MimeNetwork`] on one child task,
/// keeping the backbone frozen (the paper's Fig. 3a loop).
#[derive(Debug)]
pub struct MimeTrainer {
    config: MimeTrainerConfig,
    opt_thresholds: Adam,
    opt_head: Adam,
}

impl MimeTrainer {
    /// Creates a trainer from a config.
    pub fn new(config: MimeTrainerConfig) -> Self {
        MimeTrainer {
            config,
            opt_thresholds: Adam::with_lr(config.threshold_lr),
            opt_head: Adam::with_lr(config.lr),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MimeTrainerConfig {
        &self.config
    }

    /// Current value of the threshold regularizer `Σ exp(t_i)`.
    pub fn regularizer(net: &MimeNetwork) -> f64 {
        net.masks()
            .iter()
            .map(|m| m.thresholds().as_slice().iter().map(|&t| t.exp() as f64).sum::<f64>())
            .sum()
    }

    /// Runs one epoch over `batches`, returning its metrics.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the passes.
    pub fn train_epoch(
        &mut self,
        net: &mut MimeNetwork,
        batches: &[(Tensor, Vec<usize>)],
        epoch: usize,
    ) -> crate::Result<ThresholdEpochReport> {
        let mut epoch_span = mime_obs::profiling()
            .then(|| mime_obs::trace::span_cat("train_epoch", "core.trainer"));
        if let Some(span) = epoch_span.as_mut() {
            span.arg("epoch", epoch);
            span.arg("batches", batches.len());
        }
        let mut total_loss = 0.0f64;
        let mut total_acc = 0.0f64;
        for (images, labels) in batches {
            net.zero_grad();
            let logits = net.forward(images)?;
            let ce = softmax_cross_entropy(&logits, labels)?;
            total_loss += ce.loss as f64;
            total_acc += accuracy(&logits, labels)?;
            net.backward(&ce.grad)?;
            // eq. (3)–(4): add ∂(β·Σ exp(t))/∂t = β·exp(t) to each grad
            let beta = self.config.beta;
            for p in net.threshold_params_mut() {
                let (vals, grads) = (p.value.clone(), p.grad.as_mut_slice());
                for (g, &t) in grads.iter_mut().zip(vals.as_slice()) {
                    *g += beta * t.exp();
                }
            }
            // step thresholds and the (optional) unfrozen head with their
            // own optimizers
            let mut t_params = net.threshold_params_mut();
            self.opt_thresholds.step(&mut t_params)?;
            let mut head_params: Vec<&mut mime_nn::Parameter> = net
                .trainable_params_mut()
                .into_iter()
                .filter(|p| !p.name().ends_with(".threshold"))
                .collect();
            if !head_params.is_empty() {
                self.opt_head.step(&mut head_params)?;
            }
            net.clamp_thresholds(self.config.threshold_min);
        }
        let n = batches.len().max(1) as f64;
        let mean_sparsity = {
            let sp = net.layer_sparsities();
            if sp.is_empty() {
                0.0
            } else {
                sp.iter().map(|(_, s)| s).sum::<f64>() / sp.len() as f64
            }
        };
        let report = ThresholdEpochReport {
            epoch,
            ce_loss: total_loss / n,
            reg_loss: Self::regularizer(net),
            accuracy: total_acc / n,
            mean_sparsity,
        };
        mime_obs::debug!(
            "core.trainer",
            "epoch complete",
            epoch = report.epoch,
            ce_loss = report.ce_loss,
            accuracy = report.accuracy,
            mean_sparsity = report.mean_sparsity
        );
        if mime_obs::metrics_enabled() {
            let r = mime_obs::metrics::global();
            r.counter("mime_core_train_epochs_total").inc();
            r.gauge("mime_core_train_ce_loss").set(report.ce_loss);
            r.gauge("mime_core_train_accuracy").set(report.accuracy);
            r.gauge("mime_core_train_mean_sparsity").set(report.mean_sparsity);
        }
        Ok(report)
    }

    /// Runs the full training schedule (`config.epochs` epochs), returning
    /// one report per epoch.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the passes.
    pub fn train(
        &mut self,
        net: &mut MimeNetwork,
        batches: &[(Tensor, Vec<usize>)],
    ) -> crate::Result<Vec<ThresholdEpochReport>> {
        self.train_resumable(net, batches, 0, None)
    }

    /// [`train`](Self::train) with checkpointing: runs epochs
    /// `start_epoch..config.epochs`, persisting the learned state after
    /// every completed epoch when a [`Checkpointer`] is supplied.
    /// `start_epoch` usually comes from [`Checkpointer::resume`]; epochs
    /// already covered by the restored checkpoint are not re-run.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the passes and filesystem errors
    /// from checkpointing.
    pub fn train_resumable(
        &mut self,
        net: &mut MimeNetwork,
        batches: &[(Tensor, Vec<usize>)],
        start_epoch: usize,
        checkpointer: Option<&Checkpointer>,
    ) -> crate::Result<Vec<ThresholdEpochReport>> {
        let mut reports =
            Vec::with_capacity(self.config.epochs.saturating_sub(start_epoch));
        for e in start_epoch..self.config.epochs {
            reports.push(self.train_epoch(net, batches, e)?);
            if let Some(ckpt) = checkpointer {
                ckpt.save(net, e)?;
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_nn::{
        build_network, train_epoch as nn_train_epoch, vgg16_arch, Adam as NnAdam,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_setup() -> (MimeNetwork, Vec<(Tensor, Vec<usize>)>) {
        let arch = vgg16_arch(0.0625, 32, 3, 2, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut parent = build_network(&arch, &mut rng);
        // crude parent pre-training on a separable toy problem
        let batches = toy_batches(3);
        let mut opt = NnAdam::with_lr(3e-3);
        for _ in 0..3 {
            nn_train_epoch(&mut parent, &batches, &mut opt).unwrap();
        }
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        (net, batches)
    }

    fn toy_batches(n_batches: usize) -> Vec<(Tensor, Vec<usize>)> {
        // class 0: bright left half; class 1: bright right half
        let mut out = Vec::new();
        for b in 0..n_batches {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in 0..6 {
                let class = (b + i) % 2;
                for c in 0..3 {
                    for y in 0..32 {
                        for x in 0..32 {
                            let lit = if class == 0 { x < 16 } else { x >= 16 };
                            let v = if lit { 1.0 } else { -0.5 }
                                + ((c + y + x + i) % 5) as f32 * 0.02;
                            data.push(v);
                        }
                    }
                }
                labels.push(class);
            }
            out.push((Tensor::from_vec(data, &[6, 3, 32, 32]).unwrap(), labels));
        }
        out
    }

    #[test]
    fn backbone_unchanged_by_threshold_training() {
        // Train thresholds, then restore the pre-training thresholds and
        // check that a probe input produces bit-identical logits — which
        // can only hold if W_parent never moved.
        let (mut net, batches) = toy_setup();
        let probe = Tensor::from_fn(&[1, 3, 32, 32], |i| ((i * 31) % 11) as f32 * 0.1);
        let original_thresholds = net.export_thresholds();
        let before = net.forward(&probe).unwrap();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 2,
            lr: 5e-3,
            ..MimeTrainerConfig::default()
        });
        trainer.train(&mut net, &batches).unwrap();
        net.import_thresholds(&original_thresholds).unwrap();
        let after = net.forward(&probe).unwrap();
        assert_eq!(before.as_slice(), after.as_slice(), "W_parent must stay frozen");
    }

    #[test]
    fn thresholds_move_and_stay_nonnegative() {
        let (mut net, batches) = toy_setup();
        let before = net.export_thresholds();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 2,
            lr: 5e-3,
            ..MimeTrainerConfig::default()
        });
        let reports = trainer.train(&mut net, &batches).unwrap();
        assert_eq!(reports.len(), 2);
        let after = net.export_thresholds();
        let moved = before.iter().zip(&after).any(|(a, b)| a.as_slice() != b.as_slice());
        assert!(moved, "thresholds should change during training");
        for bank in &after {
            assert!(bank.as_slice().iter().all(|&t| t >= 0.0));
        }
    }

    #[test]
    fn training_produces_sparsity_above_zero() {
        let (mut net, batches) = toy_setup();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 3,
            ..MimeTrainerConfig::default()
        });
        let reports = trainer.train(&mut net, &batches).unwrap();
        let last = reports.last().unwrap();
        assert!(last.mean_sparsity > 0.0, "masking should prune something");
        assert!(last.reg_loss > 0.0);
    }

    #[test]
    fn regularizer_counts_all_thresholds() {
        let (net, _) = toy_setup();
        let reg = MimeTrainer::regularizer(&net);
        // all thresholds at 0.01 → reg = N·e^0.01
        let expected = net.num_thresholds() as f64 * (0.01f32.exp() as f64);
        assert!((reg - expected).abs() / expected < 1e-4);
    }

    fn scratch_dir(tag: &str) -> (std::path::PathBuf, impl Drop) {
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            std::env::temp_dir().join(format!("mime-trainer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), Cleanup(dir))
    }

    #[test]
    fn checkpoint_resume_restores_thresholds_and_epoch() {
        let (dir, _guard) = scratch_dir("resume");
        let (mut net, batches) = toy_setup();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 3,
            lr: 5e-3,
            ..MimeTrainerConfig::default()
        });
        let ckpt = Checkpointer::new(&dir).unwrap();
        trainer.train_resumable(&mut net, &batches, 0, Some(&ckpt)).unwrap();
        let trained = net.export_thresholds();

        // a fresh network resumes from the newest checkpoint: epoch
        // counter continues past the completed run and the thresholds
        // match the trained ones up to 16-bit quantization error
        let (mut fresh, _) = toy_setup();
        let (next_epoch, path) = ckpt.resume(&mut fresh).unwrap().unwrap();
        assert_eq!(next_epoch, 3);
        assert!(path.ends_with("epoch-0002.mime"));
        for (a, b) in trained.iter().zip(&fresh.export_thresholds()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() < 1e-2, "{x} vs {y}");
            }
        }
        // nothing left to train from epoch 3 of 3
        let more =
            trainer.train_resumable(&mut fresh, &batches, next_epoch, Some(&ckpt)).unwrap();
        assert!(more.is_empty());
    }

    #[test]
    fn resume_skips_torn_checkpoint() {
        let (dir, _guard) = scratch_dir("torn");
        let (mut net, batches) = toy_setup();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 2,
            ..MimeTrainerConfig::default()
        });
        let ckpt = Checkpointer::new(&dir).unwrap();
        trainer.train_resumable(&mut net, &batches, 0, Some(&ckpt)).unwrap();
        // tear the newest checkpoint (simulated crash mid-write of a
        // non-atomic writer) — resume must fall back to epoch 0's file
        let newest = dir.join("epoch-0001.mime");
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (mut fresh, _) = toy_setup();
        let (next_epoch, path) = ckpt.resume(&mut fresh).unwrap().unwrap();
        assert_eq!(next_epoch, 1);
        assert!(path.ends_with("epoch-0000.mime"));
    }

    #[test]
    fn resume_on_empty_dir_is_none() {
        let (dir, _guard) = scratch_dir("empty");
        let ckpt = Checkpointer::new(&dir).unwrap();
        let (mut net, _) = toy_setup();
        assert!(ckpt.resume(&mut net).unwrap().is_none());
    }

    #[test]
    fn learns_separable_toy_task() {
        let (mut net, batches) = toy_setup();
        let mut trainer = MimeTrainer::new(MimeTrainerConfig {
            epochs: 5,
            lr: 2e-3,
            ..MimeTrainerConfig::default()
        });
        let reports = trainer.train(&mut net, &batches).unwrap();
        let last = reports.last().unwrap();
        assert!(
            last.accuracy >= 0.5,
            "threshold training should at least hold chance accuracy, got {}",
            last.accuracy
        );
    }
}
