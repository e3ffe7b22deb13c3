//! The hardware executor: images through a [`BoundNetwork`] on a
//! [`FunctionalArray`], with batch-level parameter residency.

use crate::{BoundLayer, BoundNetwork};
use mime_core::faults::first_non_finite;
use mime_core::{channel_activity_rescan, MimeError};
use mime_systolic::{AccessCounters, ArrayConfig, FunctionalArray, LayerGeometry, Mapper};
use mime_tensor::{
    conv2d_sparse_prepacked_with_scratch, matmul_fused_batch_into, max_pool2d_values,
    ConvScratch, ConvSpec, FusedMask, PoolSpec, SparseDispatch, Tensor, TensorError,
};
use std::time::Instant;

/// Which backend executes a plan's array steps.
///
/// Both paths produce the same logits for the same plan (the software
/// path is bit-identical to the host [`mime_core::MimeNetwork::forward`]
/// computation; the simulated array accumulates in a different order and
/// agrees to floating-point tolerance), but they account differently:
///
/// * [`Simulate`](ComputePath::Simulate) runs the cycle-level
///   [`FunctionalArray`] model and reports exact per-access counters.
/// * [`Software`](ComputePath::Software) runs the host CPU GEMMs through
///   the sparsity-aware fast path (row compaction + packed microkernels)
///   for wall-clock speed, over the resident operands
///   [`prepack_plans`](crate::prepack_plans) builds: a plan must be
///   prepacked before it runs here. MAC and comparison counts are
///   reconstructed analytically (they match the array's tap-level
///   accounting exactly); memory-hierarchy counters stay zero, which the
///   batch accounting tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputePath {
    /// Functional systolic-array simulation (exact access counters).
    #[default]
    Simulate,
    /// Host CPU sparse fast path over prepacked plans (compaction +
    /// resident-operand GEMM dispatch).
    Software,
}

/// Per-batch execution report.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Accumulated access counters across the whole batch.
    pub counters: AccessCounters,
    /// Extra DRAM words spent reloading weights on task switches
    /// (conventional multi-task execution only).
    pub weight_reload_words: u64,
    /// Extra DRAM words spent reloading threshold banks on task switches
    /// (MIME only).
    pub threshold_reload_words: u64,
    /// Number of task switches observed.
    pub task_switches: usize,
    /// Plan indices that failed threshold-bank validation and were run
    /// on the baseline parent path instead (graceful degradation),
    /// sorted ascending. Only indices actually referenced by the batch
    /// appear.
    pub degraded_tasks: Vec<usize>,
    /// Per-image logits.
    pub logits: Vec<Vec<f32>>,
}

impl BatchReport {
    /// Total energy in MAC units (counters plus the reload traffic).
    pub fn total_energy(&self, cfg: &ArrayConfig) -> f64 {
        self.counters.energy(cfg)
            + cfg.e_dram * (self.weight_reload_words + self.threshold_reload_words) as f64
    }
}

/// Runs bound networks on the functional array or the host sparse path.
#[derive(Debug)]
pub struct HardwareExecutor {
    cfg: ArrayConfig,
    array: FunctionalArray,
    path: ComputePath,
    dispatch: SparseDispatch,
    // Software-path GEMM scratch, reused across layers and images.
    scratch: ConvScratch,
    // Software-path analytic counters (the array owns the simulated ones).
    sw_counters: AccessCounters,
}

impl HardwareExecutor {
    /// Creates an executor for a hardware configuration, on the
    /// simulated-array path with automatic sparse dispatch.
    pub fn new(cfg: ArrayConfig) -> Self {
        Self::with_options(cfg, ComputePath::default(), SparseDispatch::default())
    }

    /// Creates an executor with an explicit compute path and sparse
    /// dispatch policy.
    pub fn with_options(
        cfg: ArrayConfig,
        path: ComputePath,
        dispatch: SparseDispatch,
    ) -> Self {
        HardwareExecutor {
            cfg,
            array: FunctionalArray::new(cfg),
            path,
            dispatch,
            scratch: ConvScratch::new(),
            sw_counters: AccessCounters::default(),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Clears whichever counters the active path accumulates.
    fn reset_batch_counters(&mut self) {
        self.array.reset();
        self.sw_counters = AccessCounters::default();
    }

    /// The counters the active path accumulated since the last reset.
    fn batch_counters(&self) -> AccessCounters {
        match self.path {
            ComputePath::Simulate => *self.array.counters(),
            ComputePath::Software => self.sw_counters,
        }
    }

    /// Executes one image `[C, H, W]` through the plan; returns logits.
    /// This is a batch of one through
    /// [`run_coalesced_guarded`](Self::run_coalesced_guarded), the
    /// executor's only step loop. Counters accumulate on the internal
    /// array (see [`run_pipelined`](Self::run_pipelined) for batch
    /// accounting).
    ///
    /// The plan-vs-image shape contract is validated up front (before
    /// any hardware step runs), and the produced logits are checked for
    /// non-finite values before being returned.
    ///
    /// # Errors
    ///
    /// Returns [`MimeError::PlanMismatch`] when the image does not match
    /// the plan (or, on the software path, the plan is not prepacked),
    /// [`MimeError::NonFinite`] when the logits contain a NaN or ±Inf, or
    /// a tensor error when a step fails on the array.
    pub fn run_image(
        &mut self,
        plan: &BoundNetwork,
        image: &Tensor,
        zero_skip: bool,
    ) -> crate::Result<Vec<f32>> {
        let mut logits = self.run_coalesced(&[plan], &[image], zero_skip)?;
        Ok(logits.pop().expect("a batch of one yields one logits row"))
    }

    /// Executes a coalesced batch — one image per plan reference — as a
    /// *single* pass over the shared backbone, hot-swapping only the
    /// per-sample threshold banks between samples. This is the paper's
    /// Pipelined batch mode on the real serving path: tasks are
    /// interleaved inside one batch, the weights stream once, and the
    /// per-task state swapped per sample is just eq. (2)'s thresholds
    /// (plus whichever brownout-rung plan variant each request resolved
    /// to).
    ///
    /// See [`run_coalesced_guarded`](Self::run_coalesced_guarded).
    ///
    /// # Errors
    ///
    /// As [`run_coalesced_guarded`](Self::run_coalesced_guarded).
    pub fn run_coalesced(
        &mut self,
        plans: &[&BoundNetwork],
        images: &[&Tensor],
        zero_skip: bool,
    ) -> crate::Result<Vec<Vec<f32>>> {
        self.run_coalesced_guarded(plans, images, zero_skip, &mut |_| Ok(()))
    }

    /// [`run_coalesced`](Self::run_coalesced) with a `guard` hook invoked
    /// once before every backbone step for the whole batch (with the
    /// step index), and once more before the final logits check. A guard
    /// error aborts the run immediately — the serving loop uses it for
    /// between-layer deadline checks.
    ///
    /// This is the executor's one step loop: [`run_image`](Self::run_image)
    /// is its batch of one, and every other entry point reaches the plan
    /// steps through it.
    ///
    /// ## Contract: one backbone, many views
    ///
    /// Every plan must be a view over the same frozen backbone: identical
    /// step structure, layer geometry and bit-identical weights/biases,
    /// all checked here before any step runs. For MIME plan variants —
    /// per-task banks, brownout rungs and stripped parents, which share
    /// one parent network's storage — the weight check is a pointer
    /// comparison. Per-sample thresholds may differ arbitrarily,
    /// including being absent entirely (degraded or baseline samples).
    ///
    /// On the software path every weighted step runs over the lead plan's
    /// resident operand — conv strips or FC panels, built by
    /// [`prepack_plans`](crate::prepack_plans) from the weight every plan
    /// shares — and a lead plan missing one is refused, also before any
    /// step (or the guard) runs.
    ///
    /// ## Bit-identity
    ///
    /// Each sample's logits are bit-identical to running that sample
    /// alone as a batch of one, and on the software path to the host
    /// [`mime_core::MimeNetwork::forward`]:
    ///
    /// * conv steps stack the batch as `[B, C, H, W]` and lower through
    ///   the same im2col GEMM over the resident `A` strips; each sample's
    ///   output columns depend only on its own im2col columns, and the
    ///   depth-window accumulation order per column is independent of
    ///   how many columns ride along;
    /// * the channel compactor runs on the *union* of the per-sample
    ///   activity bitmaps — a channel skipped for the batch is exactly
    ///   zero in every sample, and the sparse row-compacted GEMM is
    ///   bit-identical to dense for any valid promise list;
    /// * threshold/ReLU epilogues and activity rescans run per sample
    ///   with that sample's own bank, on that sample's output slice;
    /// * FC steps run the fused batch kernel over the resident panels at
    ///   any `B`; its per-sample arithmetic does not depend on the batch
    ///   (gated by its own bitwise test), while each weight panel streams
    ///   once per batch;
    /// * pooling is per-sample independent, and the analytic MAC/compare
    ///   counters are tallied per sample with the same formula.
    ///
    /// On the simulated-array path each array step runs
    /// [`FunctionalArray::run_layer`] once per sample, on that sample's
    /// `[C, H, W]` slice and bank (the array models one image at a time),
    /// so its counters tally exactly as for the images run one by one.
    ///
    /// # Errors
    ///
    /// [`MimeError::PlanMismatch`] when the batch is malformed (length
    /// mismatch, divergent plan structure or backbone, wrong image shape)
    /// or, on the software path, the lead plan lacks a step's resident
    /// operand (the first such step is named);
    /// [`MimeError::NonFinite`] when a sample's logits contain a NaN or
    /// ±Inf (the earliest failing sample is reported); a tensor error
    /// when a step fails; or whatever error the guard returns.
    pub fn run_coalesced_guarded(
        &mut self,
        plans: &[&BoundNetwork],
        images: &[&Tensor],
        zero_skip: bool,
        guard: &mut dyn FnMut(usize) -> crate::Result<()>,
    ) -> crate::Result<Vec<Vec<f32>>> {
        self.run_coalesced_guarded_with_threads(
            plans,
            images,
            zero_skip,
            guard,
            mime_tensor::threads::worker_count(),
        )
    }

    /// [`run_coalesced_guarded`](Self::run_coalesced_guarded) with an
    /// explicit worker count for the fused FC kernel (primarily for
    /// tests asserting thread-count invariance).
    ///
    /// # Errors
    ///
    /// As [`run_coalesced_guarded`](Self::run_coalesced_guarded).
    pub fn run_coalesced_guarded_with_threads(
        &mut self,
        plans: &[&BoundNetwork],
        images: &[&Tensor],
        zero_skip: bool,
        guard: &mut dyn FnMut(usize) -> crate::Result<()>,
        threads: usize,
    ) -> crate::Result<Vec<Vec<f32>>> {
        if plans.len() != images.len() {
            return Err(MimeError::PlanMismatch {
                what: "coalesced batch",
                expected: vec![plans.len()],
                actual: vec![images.len()],
            });
        }
        let b = plans.len();
        if b == 0 {
            return Ok(Vec::new());
        }
        coalescible(plans)?;
        let lead = plans[0];
        let (in_c, hw) = (lead.in_channels(), lead.input_hw());
        let expected = vec![in_c, hw, hw];
        for image in images {
            if *image.dims() != expected[..] {
                return Err(MimeError::PlanMismatch {
                    what: "input image",
                    expected,
                    actual: image.dims().to_vec(),
                });
            }
        }
        if self.path == ComputePath::Software {
            // the software path runs only the operands prepack_plans
            // builds: FC panels or conv strips, one per weighted step
            let unpacked = |step: &BoundLayer| {
                matches!(step, BoundLayer::Array { packed: None, packed_a: None, .. })
            };
            if let Some(step) = lead.steps().iter().position(unpacked) {
                return Err(MimeError::PlanMismatch {
                    what: "software plan without a prepacked operand (first such step)",
                    expected: Vec::new(),
                    actual: vec![step],
                });
            }
        }
        let profiling = mime_obs::profiling();
        let mut batch_span =
            profiling.then(|| mime_obs::trace::span_cat("run_coalesced", "runtime.batch"));
        if let Some(span) = batch_span.as_mut() {
            span.arg("batch", b);
        }
        let mut stacked = Vec::with_capacity(b * in_c * hw * hw);
        for image in images {
            stacked.extend_from_slice(image.as_slice());
        }
        let mut x = Tensor::from_vec(stacked, &[b, in_c, hw, hw])?;
        // Software path: per-sample channel activity bitmaps emitted by
        // each threshold/ReLU step; a `false` entry promises that channel
        // is exactly zero in that sample, so the next GEMM compacts
        // without re-scanning. Pool preserves all-zero channels; Flatten
        // expands channels to per-feature entries for the FC steps.
        let mut pending: Vec<Option<Vec<bool>>> = vec![None; b];
        let steps = lead.steps().len();
        for index in 0..steps {
            guard(index)?;
            match &lead.steps()[index] {
                BoundLayer::Array { geom, weight, bias, packed, packed_a, .. } => {
                    let start = profiling.then(Instant::now);
                    let sites = geom.sites();
                    let (per_in, per_out) = (geom.input_count(), geom.output_count());
                    // each sample swaps in its own plan's threshold bank
                    let banks = step_banks(plans, index, per_out)?;
                    let software = self.path == ComputePath::Software;
                    // the fused FC kernel reads [B, C] rows, everything
                    // else [B, C, H, W]; either view shares the buffer
                    let x_in = if software && packed.is_some() {
                        x.reshape(&[b, geom.c])?
                    } else {
                        x.reshape(&[b, geom.c, geom.in_hw, geom.in_hw])?
                    };
                    if software {
                        // analytic MACs per sample, on the pre-GEMM input
                        // (they match the array's tap count)
                        for staged in x_in.as_slice().chunks_exact(per_in) {
                            self.sw_counters.macs +=
                                analytic_taps(staged, geom, zero_skip) * geom.k as u64;
                        }
                    }
                    // the software arms read the lead plan's resident
                    // operands, packed from the weight every plan shares
                    // (see the contract)
                    let out = match (self.path, packed, packed_a) {
                        (ComputePath::Simulate, ..) => {
                            // the array models one image at a time: each
                            // sample's [C, H, W] slice runs on its own bank
                            let mapping =
                                Mapper::new(self.cfg).best_mapping(geom, 0.5, 1.0);
                            let mut out = Vec::with_capacity(b * per_out);
                            for (staged, bank) in
                                x_in.as_slice().chunks_exact(per_in).zip(&banks)
                            {
                                let staged = Tensor::from_vec(
                                    staged.to_vec(),
                                    &[geom.c, geom.in_hw, geom.in_hw],
                                )?;
                                let mut y = self.array.run_layer(
                                    geom, &mapping, weight, bias, &staged, *bank, zero_skip,
                                )?;
                                if bank.is_none() && geom.masked {
                                    // baseline activation: host-side ReLU
                                    y = y.relu();
                                }
                                out.extend_from_slice(y.as_slice());
                            }
                            Tensor::from_vec(out, &[b, geom.k, geom.out_hw, geom.out_hw])?
                        }
                        (ComputePath::Software, Some(pb), _) => {
                            // fused FC: each weight panel streams once for
                            // the batch, and the eq. (2) compare/ReLU plus
                            // the activity bitmap come out of the kernel
                            // epilogue
                            let masks: Vec<FusedMask> = banks
                                .iter()
                                .map(|t| match t {
                                    Some(t) => FusedMask::Thresholds(t.as_slice()),
                                    None if geom.masked => FusedMask::Relu,
                                    None => FusedMask::None,
                                })
                                .collect();
                            let actives: Vec<Option<&[bool]>> =
                                pending.iter().map(|p| p.as_deref()).collect();
                            let mut out = Tensor::zeros(&[b, per_out]);
                            let mut activity = Vec::new();
                            let stats = matmul_fused_batch_into(
                                &x_in,
                                pb,
                                bias,
                                &masks,
                                &actives,
                                self.dispatch,
                                &mut out,
                                &mut activity,
                                threads,
                            )?;
                            for (s, st) in stats.iter().enumerate() {
                                if banks[s].is_some() {
                                    self.sw_counters.cmps += per_out as u64;
                                }
                                let act = &activity[s * per_out..][..per_out];
                                debug_assert_eq!(
                                    act,
                                    channel_activity_rescan(
                                        &out.as_slice()[s * per_out..][..per_out],
                                        geom.k,
                                        sites
                                    ),
                                    "fused epilogue bitmap disagrees with the re-scan reference"
                                );
                                pending[s] = Some(act.to_vec());
                                publish_sparse_step(st, geom);
                            }
                            out
                        }
                        (ComputePath::Software, None, Some(pa)) => {
                            // im2col lowering: one GEMM over [B, C, H, W];
                            // a channel may only be skipped for the batch
                            // if it is promised zero in every sample
                            let spec = ConvSpec::new(geom.r, 1, (geom.r - 1) / 2)?;
                            let union = union_activity(&pending, geom.c);
                            let (mut out4, stats) = conv2d_sparse_prepacked_with_scratch(
                                &x_in,
                                pa,
                                bias,
                                &spec,
                                &mut self.scratch,
                                union.as_deref(),
                                self.dispatch,
                            )?;
                            publish_sparse_step(&stats, geom);
                            let ov = out4.as_mut_slice();
                            for (s, slice) in ov.chunks_exact_mut(per_out).enumerate() {
                                if let Some(t) = banks[s] {
                                    // eq. (2): keep iff acc - t >= 0, else
                                    // exact zero — per-sample bank hot-swap
                                    mime_core::apply_thresholds_rescan(slice, t.as_slice());
                                    self.sw_counters.cmps += per_out as u64;
                                } else if geom.masked {
                                    // baseline activation: ReLU
                                    for v in slice.iter_mut() {
                                        *v = v.max(0.0);
                                    }
                                }
                                pending[s] =
                                    Some(channel_activity_rescan(slice, geom.k, sites));
                            }
                            out4
                        }
                        (ComputePath::Software, ..) => {
                            unreachable!("unpacked plans are refused before the loop")
                        }
                    };
                    if let Some(start) = start {
                        if mime_obs::metrics_enabled() {
                            mime_obs::metrics::global()
                                .histogram_with(
                                    "mime_runtime_layer_latency_seconds",
                                    &[("layer", &geom.name)],
                                    &mime_obs::metrics::SECONDS_BUCKETS,
                                )
                                .observe(start.elapsed().as_secs_f64());
                        }
                    }
                    x = out;
                }
                BoundLayer::Pool => {
                    // [B, C, H, W] pools natively; per-sample channel
                    // bitmaps stay valid (all-zero channels pool to zero)
                    x = max_pool2d_values(&x, &PoolSpec::vgg2x2())?;
                }
                BoundLayer::Flatten => {
                    let sites: usize = x.dims()[2..].iter().product();
                    for p in pending.iter_mut() {
                        if let Some(act) = p.take() {
                            // expand channel promises to the per-feature
                            // granularity the FC steps consume
                            *p = Some(
                                act.iter()
                                    .flat_map(|&a| std::iter::repeat_n(a, sites))
                                    .collect(),
                            );
                        }
                    }
                    let per = x.len() / b;
                    x = x.reshape(&[b, per])?;
                }
            }
        }
        guard(steps)?;
        let per = x.len() / b;
        debug_assert_eq!(per, lead.classes());
        let mut logits = Vec::with_capacity(b);
        for slice in x.as_slice().chunks_exact(per) {
            if let Some(index) = first_non_finite(slice) {
                return Err(MimeError::NonFinite { stage: "logits", layer: steps, index });
            }
            logits.push(slice.to_vec());
        }
        Ok(logits)
    }

    /// Executes a pipelined batch of `(plan_index, image)` pairs over a
    /// set of per-task plans, modelling parameter residency:
    ///
    /// * `shared_weights = true` (MIME): weights stream once for the whole
    ///   batch; each task switch re-streams only that task's threshold
    ///   banks. All plans must then share one backbone, and the batch
    ///   runs as one [`run_coalesced`](Self::run_coalesced) pass.
    /// * `shared_weights = false` (conventional): every task switch
    ///   re-streams the incoming task's full weight set, so each run of
    ///   consecutive same-task images is its own pass.
    ///
    /// Each image's logits and analytic counters are bit-identical to
    /// running it alone through [`run_image`](Self::run_image). The
    /// per-image array counters already include one weight + threshold
    /// stream per image, so the report *rebates* the traffic residency
    /// avoids and *charges* the switch traffic explicitly — keeping the
    /// functional counters exact while exposing the batch-level
    /// accounting separately.
    ///
    /// ## Graceful degradation
    ///
    /// Before the batch runs, every plan's threshold banks are
    /// validated. A plan whose banks fail (non-finite values — e.g. a
    /// corrupted or poisoned child task) is not rejected: its images run
    /// on the same plan with thresholds stripped, which is exactly the
    /// baseline parent path over the shared frozen weights. The affected
    /// plan indices are recorded in [`BatchReport::degraded_tasks`];
    /// sibling tasks are unaffected.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range plan index, plans that do
    /// not share a backbone under `shared_weights`, or a failing step.
    pub fn run_pipelined(
        &mut self,
        plans: &[BoundNetwork],
        batch: &[(usize, Tensor)],
        shared_weights: bool,
        zero_skip: bool,
    ) -> crate::Result<BatchReport> {
        self.reset_batch_counters();
        let mut batch_span = mime_obs::profiling()
            .then(|| mime_obs::trace::span_cat("run_pipelined", "runtime.batch"));
        if let Some(span) = batch_span.as_mut() {
            span.arg("images", batch.len());
        }
        let fallbacks = compute_fallbacks(plans);
        let effective = effective_plans(plans, &fallbacks);
        let acct = batch_accounting(&effective, &fallbacks, batch, shared_weights)?;
        let mut logits = Vec::with_capacity(batch.len());
        for pass in batch.chunk_by(|a, b| shared_weights || a.0 == b.0) {
            let views: Vec<&BoundNetwork> =
                pass.iter().map(|(task, _)| effective[*task]).collect();
            let images: Vec<&Tensor> = pass.iter().map(|(_, image)| image).collect();
            logits.extend(self.run_coalesced(&views, &images, zero_skip)?);
        }
        let report = acct.into_report(self.batch_counters(), logits);
        publish_batch_metrics(&effective, batch, &report);
        Ok(report)
    }
}

/// Publishes the deterministic per-batch counters, derived from the
/// [`BatchReport`] alone (wall-time histograms live elsewhere).
fn publish_batch_metrics(
    effective: &[&BoundNetwork],
    batch: &[(usize, Tensor)],
    report: &BatchReport,
) {
    if !mime_obs::metrics_enabled() {
        return;
    }
    let r = mime_obs::metrics::global();
    r.counter("mime_runtime_images_total").add(batch.len() as u64);
    r.counter("mime_runtime_task_switches_total").add(report.task_switches as u64);
    r.counter("mime_runtime_degraded_tasks_total").add(report.degraded_tasks.len() as u64);
    r.counter("mime_runtime_weight_reload_words_total").add(report.weight_reload_words);
    r.counter("mime_runtime_threshold_reload_words_total")
        .add(report.threshold_reload_words);
    // MACs the dense network would have executed minus what the array
    // actually ran = work removed by dynamic pruning and zero skipping.
    let dense: u64 = batch.iter().map(|(task, _)| plan_dense_macs(effective[*task])).sum();
    r.counter("mime_runtime_macs_executed_total").add(report.counters.macs);
    r.counter("mime_runtime_macs_skipped_total")
        .add(dense.saturating_sub(report.counters.macs));
}

/// MACs a dense (no zero-skip, no threshold pruning) pass of `plan`
/// executes for one image: per array step, every in-bounds kernel tap of
/// every output site, across all input and output channels. Matches the
/// functional array's tap-level accounting (stride-1, same-padded).
fn plan_dense_macs(plan: &BoundNetwork) -> u64 {
    plan.steps()
        .iter()
        .map(|step| match step {
            BoundLayer::Array { geom, .. } => dense_taps(geom) * geom.k as u64,
            BoundLayer::Pool | BoundLayer::Flatten => 0,
        })
        .sum()
}

/// For a stride-1 same-padded conv, the number of output sites along one
/// axis that read input coordinate `i`: the overlap of
/// `[i + pad + 1 - r, i + pad]` with `[0, out_hw)`. `Σ span(i)` over the
/// input axis equals the in-bounds tap count per output row.
fn tap_spans(in_hw: usize, out_hw: usize, r: usize) -> Vec<u64> {
    let pad = (r - 1) / 2;
    (0..in_hw)
        .map(|i| {
            let lo = (i + pad + 1).saturating_sub(r);
            let hi = (i + pad).min(out_hw.saturating_sub(1));
            (hi + 1).saturating_sub(lo) as u64
        })
        .collect()
}

/// In-bounds kernel taps of one output channel over every output site
/// and input channel, `c · (Σ span)²`: the tap walk over sites and
/// kernel offsets separates into the same count along each axis.
fn dense_taps(geom: &LayerGeometry) -> u64 {
    let total: u64 = tap_spans(geom.in_hw, geom.out_hw, geom.r).iter().sum();
    geom.c as u64 * total * total
}

/// Analytic MAC accounting mirroring the functional array: one MAC per
/// in-bounds kernel tap, skipping zero activations when `zero_skip` is
/// on. Each input pixel feeds `span(iy)·span(ix)` output sites, so the
/// tally is O(C·HW²) instead of a tap walk. Returns taps for one output
/// channel; multiply by `geom.k`.
fn analytic_taps(staged: &[f32], geom: &LayerGeometry, zero_skip: bool) -> u64 {
    if !zero_skip {
        return dense_taps(geom);
    }
    let spans = tap_spans(geom.in_hw, geom.out_hw, geom.r);
    let hw = geom.in_hw;
    let mut taps = 0u64;
    for ci in 0..geom.c {
        for (iy, &sy) in spans.iter().enumerate() {
            let row = &staged[(ci * hw + iy) * hw..][..hw];
            for (&a, &sx) in row.iter().zip(&spans) {
                if a != 0.0 {
                    taps += sy * sx;
                }
            }
        }
    }
    taps
}

/// Each sample's threshold bank for array step `index` (`None` for a
/// thresholds-stripped or baseline view), checked against the step's
/// `per_out` neurons.
fn step_banks<'a>(
    plans: &[&'a BoundNetwork],
    index: usize,
    per_out: usize,
) -> crate::Result<Vec<Option<&'a Tensor>>> {
    plans
        .iter()
        .map(|plan| {
            let BoundLayer::Array { thresholds, .. } = &plan.steps()[index] else {
                unreachable!("coalescible() checked step kinds");
            };
            match thresholds {
                Some(t) if t.len() != per_out => {
                    Err(TensorError::LengthMismatch { expected: per_out, actual: t.len() }
                        .into())
                }
                _ => Ok(thresholds.as_ref()),
            }
        })
        .collect()
}

/// The channels the batch may skip: the union of the per-sample activity
/// bitmaps, or `None` (probe) when any sample has none.
fn union_activity(pending: &[Option<Vec<bool>>], c: usize) -> Option<Vec<bool>> {
    pending.iter().all(Option::is_some).then(|| {
        let mut u = vec![false; c];
        for p in pending.iter().flatten() {
            for (uc, &a) in u.iter_mut().zip(p) {
                *uc |= a;
            }
        }
        u
    })
}

/// Sparse-dispatch observability for one GEMM call (counters only).
fn publish_sparse_step(stats: &mime_tensor::SparseStats, geom: &LayerGeometry) {
    if mime_obs::metrics_enabled() {
        let r = mime_obs::metrics::global();
        r.counter("mime_sparse_rows_total").add(stats.k_total as u64);
        r.counter("mime_sparse_rows_skipped_total").add(stats.rows_skipped() as u64);
        r.counter_with(
            "mime_sparse_dispatch_total",
            &[("path", if stats.used_sparse { "sparse" } else { "dense" })],
        )
        .add(1);
    }
    mime_obs::debug!(
        "runtime.sparse",
        "gemm dispatch",
        layer = geom.name,
        used_sparse = stats.used_sparse,
        active_rows = stats.k_active,
        total_rows = stats.k_total
    );
}

/// Checks that every plan in a coalesced batch is a view over the same
/// backbone: equal step count/kinds, per-step layer geometry, and
/// bit-identical weights and biases — the steps read the lead plan's.
/// MIME plan variants (per-task banks, brownout rungs, stripped parents)
/// share one parent's storage, so for them [`Tensor::bits_eq`] is a
/// pointer comparison, not a scan.
fn coalescible(plans: &[&BoundNetwork]) -> crate::Result<()> {
    let lead = plans[0];
    let outline =
        |p: &BoundNetwork| [p.steps().len(), p.classes(), p.input_hw(), p.in_channels()];
    for plan in &plans[1..] {
        if outline(plan) != outline(lead) {
            return Err(MimeError::PlanMismatch {
                what: "coalesced batch plans (steps, classes, input hw, channels)",
                expected: outline(lead).to_vec(),
                actual: outline(plan).to_vec(),
            });
        }
        let divergent =
            lead.steps().iter().zip(plan.steps()).position(|(a, b)| match (a, b) {
                (
                    BoundLayer::Array { geom: ga, weight: wa, bias: ba, .. },
                    BoundLayer::Array { geom: gb, weight: wb, bias: bb, .. },
                ) => ga != gb || !wa.bits_eq(wb) || !ba.bits_eq(bb),
                (BoundLayer::Pool, BoundLayer::Pool) => false,
                (BoundLayer::Flatten, BoundLayer::Flatten) => false,
                _ => true,
            });
        if let Some(step) = divergent {
            // expected none: every step must be the lead plan's
            return Err(MimeError::PlanMismatch {
                what: "coalesced batch backbone (first divergent step)",
                expected: Vec::new(),
                actual: vec![step],
            });
        }
    }
    Ok(())
}

/// Graceful degradation: a task whose threshold bank fails validation
/// runs on the thresholds-stripped parent path.
fn compute_fallbacks(plans: &[BoundNetwork]) -> Vec<Option<BoundNetwork>> {
    plans
        .iter()
        .enumerate()
        .map(|(task, p)| {
            p.validate_thresholds().err().map(|e| {
                mime_obs::warn!(
                    "runtime.executor",
                    "threshold bank invalid; task degraded to parent path",
                    task = task,
                    error = e
                );
                p.strip_thresholds()
            })
        })
        .collect()
}

fn effective_plans<'a>(
    plans: &'a [BoundNetwork],
    fallbacks: &'a [Option<BoundNetwork>],
) -> Vec<&'a BoundNetwork> {
    plans.iter().zip(fallbacks).map(|(p, f)| f.as_ref().unwrap_or(p)).collect()
}

/// Batch-level residency accounting, derived from the task sequence
/// alone (no hardware state).
struct BatchAccounting {
    rebate: u64,
    task_switches: usize,
    degraded_tasks: Vec<usize>,
    weight_reload_words: u64,
    threshold_reload_words: u64,
}

impl BatchAccounting {
    /// Builds the final report from raw batch counters: subtract the
    /// residency rebate, then carve the explicit reload charges out of
    /// the counters so `total_energy` never double-counts them.
    fn into_report(
        self,
        mut counters: AccessCounters,
        logits: Vec<Vec<f32>>,
    ) -> BatchReport {
        counters.dram_reads = counters.dram_reads.saturating_sub(self.rebate);
        counters.dram_reads = counters
            .dram_reads
            .saturating_sub(self.weight_reload_words + self.threshold_reload_words);
        BatchReport {
            counters,
            weight_reload_words: self.weight_reload_words,
            threshold_reload_words: self.threshold_reload_words,
            task_switches: self.task_switches,
            degraded_tasks: self.degraded_tasks,
            logits,
        }
    }
}

/// Walks the batch's task sequence computing residency rebates, switch
/// charges and degraded-task bookkeeping. Validates every plan index
/// (the first bad index in batch order wins) before any image runs.
fn batch_accounting(
    effective: &[&BoundNetwork],
    fallbacks: &[Option<BoundNetwork>],
    batch: &[(usize, Tensor)],
    shared_weights: bool,
) -> crate::Result<BatchAccounting> {
    let mut acct = BatchAccounting {
        rebate: 0,
        task_switches: 0,
        degraded_tasks: Vec::new(),
        // MIME streams W_parent once for a batch that holds an image; an
        // empty batch streams nothing
        weight_reload_words: match (shared_weights, effective.first()) {
            (true, Some(plan)) if !batch.is_empty() => plan.weight_words() as u64,
            _ => 0,
        },
        threshold_reload_words: 0,
    };
    let mut prev_task: Option<usize> = None;
    for (task, _) in batch {
        let plan = *effective
            .get(*task)
            .ok_or(MimeError::UnknownPlanIndex { index: *task, plans: effective.len() })?;
        if fallbacks[*task].is_some() && !acct.degraded_tasks.contains(task) {
            acct.degraded_tasks.push(*task);
        }
        // the per-image run always streams weights and thresholds once:
        // rebate what stays resident, charge what a switch reloads
        // (degraded plans carry no thresholds, so they reload none)
        let w_words = plan.weight_words() as u64;
        let t_words = plan_threshold_words(plan);
        if prev_task == Some(*task) {
            acct.rebate += w_words + t_words; // same task back to back
        } else {
            acct.task_switches += 1;
            acct.threshold_reload_words += t_words;
            if !shared_weights {
                acct.weight_reload_words += w_words;
            } else if prev_task.is_some() {
                acct.rebate += w_words; // W_parent already loaded
            }
        }
        prev_task = Some(*task);
    }
    acct.degraded_tasks.sort_unstable();
    Ok(acct)
}

fn plan_threshold_words(plan: &BoundNetwork) -> u64 {
    plan.steps()
        .iter()
        .map(|s| match s {
            BoundLayer::Array { thresholds: Some(t), .. } => t.len() as u64,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::MimeNetwork;
    use mime_nn::{build_network, vgg16_arch, Sequential, VggArch};
    use mime_systolic::vgg16_geometry_with;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mini() -> (VggArch, Sequential) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
        let mut rng = StdRng::seed_from_u64(6);
        let net = build_network(&arch, &mut rng);
        (arch, net)
    }

    fn probe() -> Tensor {
        Tensor::from_fn(&[3, 32, 32], |i| ((i * 29) % 13) as f32 * 0.05 - 0.3)
    }

    /// The tap walk `dense_taps` replaces: every in-bounds kernel tap of
    /// every output site, once per input channel.
    fn walked_taps(geom: &LayerGeometry) -> u64 {
        let pad = (geom.r - 1) / 2;
        let inside = |i: usize| i >= pad && i - pad < geom.in_hw;
        let mut taps = 0u64;
        for oy in 0..geom.out_hw {
            for ox in 0..geom.out_hw {
                for ry in 0..geom.r {
                    for rx in 0..geom.r {
                        if inside(oy + ry) && inside(ox + rx) {
                            taps += 1;
                        }
                    }
                }
            }
        }
        taps * geom.c as u64
    }

    #[test]
    fn dense_taps_closed_form_matches_the_tap_walk() {
        // CIFAR VGG16 (32, 10 classes) and the paper's 224 geometry,
        // FC steps included
        for geoms in
            [vgg16_geometry_with(32, 4096, 10), vgg16_geometry_with(224, 4096, 1000)]
        {
            assert_eq!(geoms.iter().filter(|g| g.r == 1).count(), 3);
            for geom in &geoms {
                assert_eq!(dense_taps(geom), walked_taps(geom), "{geom:?}");
            }
        }
        let (arch, net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let walked: u64 = plan
            .steps()
            .iter()
            .filter_map(|step| match step {
                BoundLayer::Array { geom, .. } => Some(walked_taps(geom) * geom.k as u64),
                BoundLayer::Pool | BoundLayer::Flatten => None,
            })
            .sum();
        assert_eq!(plan_dense_macs(&plan), walked);
    }

    #[test]
    fn hardware_logits_match_software_forward_baseline() {
        let (arch, mut net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
        let hw = exec.run_image(&plan, &probe(), true).unwrap();
        let sw = net.forward(&probe().reshape(&[1, 3, 32, 32]).unwrap()).unwrap();
        for (a, b) in hw.iter().zip(sw.as_slice()) {
            assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn hardware_logits_match_software_forward_mime() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let plan = BoundNetwork::from_mime(&net).unwrap();
        let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
        let hw = exec.run_image(&plan, &probe(), true).unwrap();
        let sw = net.forward(&probe().reshape(&[1, 3, 32, 32]).unwrap()).unwrap();
        for (a, b) in hw.iter().zip(sw.as_slice()) {
            assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn zero_skip_does_not_change_results() {
        let (arch, net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
        let a = exec.run_image(&plan, &probe(), true).unwrap();
        let b = exec.run_image(&plan, &probe(), false).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn mime_pipelined_cheaper_than_conventional() {
        let (arch, parent) = mini();
        let cfg = ArrayConfig::eyeriss_65nm();
        // MIME: two tasks over one backbone (different thresholds)
        let mime_a = MimeNetwork::from_trained(&arch, &parent, 0.03).unwrap();
        let mime_b = MimeNetwork::from_trained(&arch, &parent, 0.30).unwrap();
        let mime_plans = vec![
            BoundNetwork::from_mime(&mime_a).unwrap(),
            BoundNetwork::from_mime(&mime_b).unwrap(),
        ];
        // conventional: two separately trained weight sets
        let mut rng = StdRng::seed_from_u64(77);
        let conv_plans = vec![
            BoundNetwork::from_baseline(&arch, &build_network(&arch, &mut rng)).unwrap(),
            BoundNetwork::from_baseline(&arch, &build_network(&arch, &mut rng)).unwrap(),
        ];
        let batch: Vec<(usize, Tensor)> = (0..4).map(|i| (i % 2, probe())).collect();
        let mut exec = HardwareExecutor::new(cfg);
        let mime_report = exec.run_pipelined(&mime_plans, &batch, true, true).unwrap();
        let conv_report = exec.run_pipelined(&conv_plans, &batch, false, true).unwrap();
        assert_eq!(mime_report.task_switches, 4);
        assert!(
            mime_report.weight_reload_words < conv_report.weight_reload_words,
            "MIME must reload fewer weight words: {} vs {}",
            mime_report.weight_reload_words,
            conv_report.weight_reload_words
        );
        assert!(mime_report.threshold_reload_words > 0);
        assert_eq!(conv_report.logits.len(), 4);
    }

    #[test]
    fn rejects_wrong_image_shape_and_plan_index() {
        let (arch, net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
        assert!(exec.run_image(&plan, &Tensor::zeros(&[3, 16, 16]), true).is_err());
        let batch = vec![(5usize, probe())];
        assert!(exec.run_pipelined(&[plan], &batch, true, true).is_err());
    }

    fn salted_probe(salt: usize) -> Tensor {
        Tensor::from_fn(&[3, 32, 32], |i| (((i + salt * 97) % 17) as f32 - 8.0) * 0.09)
    }

    /// Two healthy MIME tasks plus one with a poisoned threshold bank
    /// (exercises the degraded parent path).
    fn three_plans() -> Vec<BoundNetwork> {
        let (arch, parent) = mini();
        let mime_a = MimeNetwork::from_trained(&arch, &parent, 0.03).unwrap();
        let mime_b = MimeNetwork::from_trained(&arch, &parent, 0.30).unwrap();
        let mut poisoned = MimeNetwork::from_trained(&arch, &parent, 0.25).unwrap();
        let mut banks = poisoned.export_thresholds();
        mime_core::faults::FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
        poisoned.import_thresholds(&banks).unwrap();
        vec![
            BoundNetwork::from_mime(&mime_a).unwrap(),
            BoundNetwork::from_mime(&mime_b).unwrap(),
            BoundNetwork::from_mime(&poisoned).unwrap(),
        ]
    }

    #[test]
    fn pipelined_batch_matches_per_image_runs() {
        // repeats and switches, with the poisoned task 2 back to back
        let tasks = [0usize, 0, 1, 2, 2, 1, 0];
        let switched_to = [0usize, 1, 2, 1, 0];
        let batch: Vec<(usize, Tensor)> =
            tasks.iter().enumerate().map(|(i, &t)| (t, salted_probe(i))).collect();
        let mut plans = three_plans();
        crate::prepack_plans(&mut plans).unwrap();
        // the poisoned task runs on its thresholds-stripped parent
        let stripped = plans[2].strip_thresholds();
        let view = |t: usize| if t == 2 { &stripped } else { &plans[t] };
        for path in [ComputePath::Software, ComputePath::Simulate] {
            let mut exec = HardwareExecutor::with_options(
                ArrayConfig::eyeriss_65nm(),
                path,
                SparseDispatch::Auto,
            );
            let solo: Vec<Vec<f32>> = batch
                .iter()
                .map(|(t, image)| exec.run_image(view(*t), image, true).unwrap())
                .collect();
            let solo_counters = exec.batch_counters();
            for shared_weights in [true, false] {
                let what = format!("{path:?}, shared_weights={shared_weights}");
                let report =
                    exec.run_pipelined(&plans, &batch, shared_weights, true).unwrap();
                assert_eq!(report.logits.len(), solo.len(), "{what}");
                for (s, (a, b)) in report.logits.iter().zip(&solo).enumerate() {
                    assert!(
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "sample {s} diverged ({what})"
                    );
                }
                assert_eq!(report.task_switches, switched_to.len(), "{what}");
                assert_eq!(report.degraded_tasks, vec![2], "{what}");
                // a switch reloads the incoming task's banks (none on the
                // stripped parent); conventional execution also its
                // weights, MIME streams W_parent once
                let words = |t: usize| view(t).weight_words() as u64;
                let bank_words = |t: usize| plan_threshold_words(view(t));
                let banks: u64 = switched_to.iter().map(|&t| bank_words(t)).sum();
                assert_eq!(report.threshold_reload_words, banks, "{what}");
                let weights = if shared_weights {
                    words(0)
                } else {
                    switched_to.iter().map(|&t| words(t)).sum()
                };
                assert_eq!(report.weight_reload_words, weights, "{what}");
                // every counter is the per-image runs' sum, except that the
                // DRAM reads rebate what residency keeps loaded — W_parent
                // after the first image (MIME), a repeated task's banks
                // and, conventionally, its weights — and carve out the
                // reload charges above
                let repeats = tasks.windows(2).filter(|w| w[0] == w[1]).map(|w| w[1]);
                let rebate: u64 = if shared_weights {
                    (tasks.len() as u64 - 1) * words(0)
                        + repeats.map(bank_words).sum::<u64>()
                } else {
                    repeats.map(|t| words(t) + bank_words(t)).sum()
                };
                let dram_reads =
                    solo_counters.dram_reads.saturating_sub(rebate + weights + banks);
                let expected = AccessCounters { dram_reads, ..solo_counters };
                assert_eq!(report.counters, expected, "{what}");
            }
        }
        let empty = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
            .run_pipelined(&plans, &[], true, true)
            .unwrap();
        assert!(empty.logits.is_empty());
        assert_eq!(empty.task_switches, 0);
        assert_eq!(empty.weight_reload_words, 0);
        assert_eq!(empty.threshold_reload_words, 0);
        assert_eq!(empty.total_energy(&ArrayConfig::eyeriss_65nm()), 0.0);
    }

    #[test]
    fn coalesced_rejects_plans_over_different_backbones() {
        // same structure, different weights: a coalesced pass reads the
        // lead plan's weights, so it must refuse rather than answer
        // sample 1 with sample 0's backbone
        let (arch, net) = mini();
        let other = build_network(&arch, &mut StdRng::seed_from_u64(77));
        let mut plans = vec![
            BoundNetwork::from_baseline(&arch, &net).unwrap(),
            BoundNetwork::from_baseline(&arch, &other).unwrap(),
        ];
        crate::prepack_plans(&mut plans).unwrap();
        let batch = vec![(0usize, probe()), (1, probe())];
        let mut exec = HardwareExecutor::with_options(
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            SparseDispatch::Auto,
        );
        let err = exec
            .run_coalesced(&[&plans[0], &plans[1]], &[&batch[0].1, &batch[1].1], true)
            .unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        // MIME residency claims one backbone too; conventional execution
        // runs each task on its own weights
        let err = exec.run_pipelined(&plans, &batch, true, true).unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        let report = exec.run_pipelined(&plans, &batch, false, true).unwrap();
        for (logits, (task, image)) in report.logits.iter().zip(&batch) {
            assert_eq!(*logits, exec.run_image(&plans[*task], image, true).unwrap());
        }
    }

    #[test]
    fn software_path_logits_are_bit_identical_to_host_forward() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let mut plan = BoundNetwork::from_mime(&net).unwrap();
        crate::prepack_plans(std::slice::from_mut(&mut plan)).unwrap();
        let sw = net.forward(&probe().reshape(&[1, 3, 32, 32]).unwrap()).unwrap();
        for dispatch in
            [SparseDispatch::Auto, SparseDispatch::SparseOnly, SparseDispatch::DenseOnly]
        {
            let mut exec = HardwareExecutor::with_options(
                ArrayConfig::eyeriss_65nm(),
                ComputePath::Software,
                dispatch,
            );
            for zero_skip in [true, false] {
                let logits = exec.run_image(&plan, &probe(), zero_skip).unwrap();
                assert_eq!(
                    logits,
                    sw.as_slice(),
                    "software path must match the host forward bitwise ({dispatch:?})"
                );
            }
        }
    }

    #[test]
    fn software_path_baseline_matches_host_forward() {
        let (arch, mut net) = mini();
        let mut plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        crate::prepack_plans(std::slice::from_mut(&mut plan)).unwrap();
        let mut exec = HardwareExecutor::with_options(
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            SparseDispatch::Auto,
        );
        let logits = exec.run_image(&plan, &probe(), true).unwrap();
        let sw = net.forward(&probe().reshape(&[1, 3, 32, 32]).unwrap()).unwrap();
        assert_eq!(logits, sw.as_slice());
    }

    #[test]
    fn software_macs_match_simulated_array() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let mut plans = [BoundNetwork::from_mime(&net).unwrap()];
        crate::prepack_plans(&mut plans).unwrap();
        let batch: Vec<(usize, Tensor)> = (0..2).map(|i| (0, salted_probe(i))).collect();
        for zero_skip in [true, false] {
            let mut sim = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
            let sim_report = sim.run_pipelined(&plans, &batch, true, zero_skip).unwrap();
            let mut sw = HardwareExecutor::with_options(
                ArrayConfig::eyeriss_65nm(),
                ComputePath::Software,
                SparseDispatch::Auto,
            );
            let sw_report = sw.run_pipelined(&plans, &batch, true, zero_skip).unwrap();
            assert_eq!(
                sw_report.counters.macs, sim_report.counters.macs,
                "analytic MACs must match the array tap count (zero_skip={zero_skip})"
            );
            assert_eq!(sw_report.counters.cmps, sim_report.counters.cmps);
            assert_eq!(sw_report.task_switches, sim_report.task_switches);
        }
    }

    #[test]
    fn coalesced_batch_is_bit_identical_to_serial_per_sample() {
        let mut plans = three_plans();
        crate::prepack_plans(&mut plans).unwrap();
        // resolve plan views the way the replica does: the poisoned task
        // runs on the stripped parent (graceful degradation), and some
        // requests arrive with a nonzero brownout rung
        let parent2 = plans[2].strip_thresholds();
        let rung_a = plans[0].brownout_rung(4.0);
        let rung_b = plans[1].brownout_rung(16.0);
        let views: Vec<&BoundNetwork> = vec![
            &plans[0], &plans[1], &parent2, &rung_a, &plans[1], &rung_b, &parent2,
            &plans[0],
        ];
        let images: Vec<Tensor> = (0..views.len()).map(salted_probe).collect();
        let image_refs: Vec<&Tensor> = images.iter().collect();
        for (path, dispatch) in [
            (ComputePath::Software, SparseDispatch::Auto),
            (ComputePath::Software, SparseDispatch::SparseOnly),
            (ComputePath::Software, SparseDispatch::DenseOnly),
            (ComputePath::Simulate, SparseDispatch::Auto),
        ] {
            let mut exec =
                HardwareExecutor::with_options(ArrayConfig::eyeriss_65nm(), path, dispatch);
            // serial reference: one run_image per sample
            let serial: Vec<Vec<f32>> = views
                .iter()
                .zip(&images)
                .map(|(plan, image)| exec.run_image(plan, image, true).unwrap())
                .collect();
            let serial_counters = exec.batch_counters();
            // the thread count only reaches the software path's FC kernel
            let thread_counts: &[usize] =
                if path == ComputePath::Software { &[1, 2, 5] } else { &[1] };
            for &threads in thread_counts {
                exec.reset_batch_counters();
                let coalesced = exec
                    .run_coalesced_guarded_with_threads(
                        &views,
                        &image_refs,
                        true,
                        &mut |_| Ok(()),
                        threads,
                    )
                    .unwrap();
                assert_eq!(coalesced.len(), serial.len());
                for (s, (a, b)) in coalesced.iter().zip(&serial).enumerate() {
                    assert_eq!(a.len(), b.len());
                    let max_abs_diff =
                        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
                    assert_eq!(
                        max_abs_diff, 0.0,
                        "sample {s} diverged ({path:?}, {dispatch:?}, {threads} threads)"
                    );
                    // bit-identical, not merely equal-within-epsilon
                    assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
                // analytic MAC/compare tallies match the serial walk
                assert_eq!(exec.batch_counters().macs, serial_counters.macs);
                assert_eq!(exec.batch_counters().cmps, serial_counters.cmps);
                // and so does every other counter the path keeps
                assert_eq!(exec.batch_counters(), serial_counters, "{path:?}");
            }
        }
    }

    #[test]
    fn software_path_refuses_unpacked_plans_before_any_step() {
        let raw = three_plans();
        let mut plans = three_plans();
        crate::prepack_plans(&mut plans).unwrap();
        let images: Vec<Tensor> = (0..2).map(salted_probe).collect();
        let image_refs: Vec<&Tensor> = images.iter().collect();
        let mut exec = HardwareExecutor::with_options(
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            SparseDispatch::Auto,
        );
        // an unpacked lead plan: refused, naming conv1 (step 0), before
        // the guard is first called
        let mut guarded = 0usize;
        let err = exec
            .run_coalesced_guarded(&[&raw[0], &plans[1]], &image_refs, true, &mut |_| {
                guarded += 1;
                Ok(())
            })
            .unwrap_err();
        match err {
            MimeError::PlanMismatch { actual, .. } => assert_eq!(actual, vec![0]),
            other => panic!("expected PlanMismatch, got {other}"),
        }
        assert_eq!(guarded, 0, "the guard ran before the refusal");
        let batch = vec![(0usize, images[0].clone())];
        let err = exec.run_pipelined(&raw, &batch, true, true).unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        // every sample reads the lead plan's operands, so a packed lead
        // serves an unpacked sample over the same backbone
        let mixed = exec.run_coalesced(&[&plans[0], &raw[1]], &image_refs, true).unwrap();
        assert_eq!(mixed[1], exec.run_image(&plans[1], &images[1], true).unwrap());
        // the simulated array runs the raw weights and needs no operands
        let mut sim = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
        assert!(sim.run_image(&raw[0], &images[0], true).is_ok());
    }

    #[test]
    fn coalesced_rejects_malformed_batches() {
        let mut plans = three_plans();
        crate::prepack_plans(&mut plans).unwrap();
        let images: Vec<Tensor> = (0..2).map(salted_probe).collect();
        let mut exec = HardwareExecutor::with_options(
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            SparseDispatch::Auto,
        );
        // plan/image count mismatch
        let err =
            exec.run_coalesced(&[&plans[0]], &[&images[0], &images[1]], true).unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        // wrong image shape
        let bad = Tensor::zeros(&[3, 16, 16]);
        let err = exec
            .run_coalesced(&[&plans[0], &plans[1]], &[&images[0], &bad], true)
            .unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        // structurally divergent plans (different class count)
        let arch = vgg16_arch(0.0625, 32, 3, 7, 16);
        let mut rng = StdRng::seed_from_u64(9);
        let other = build_network(&arch, &mut rng);
        let other_plan = BoundNetwork::from_baseline(&arch, &other).unwrap();
        let err = exec
            .run_coalesced(&[&plans[0], &other_plan], &[&images[0], &images[1]], true)
            .unwrap_err();
        assert!(matches!(err, MimeError::PlanMismatch { .. }), "{err}");
        // empty batch is fine
        assert!(exec.run_coalesced(&[], &[], true).unwrap().is_empty());
    }
}
