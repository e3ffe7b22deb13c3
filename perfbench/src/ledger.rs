//! The traced replay: each plan step re-run by calling the same public
//! `mime-tensor`/`mime-core` functions `HardwareExecutor`'s software path
//! calls, timed from outside, so every weighted layer gets a row without
//! any span inside the program.

use mime_core::{apply_thresholds_rescan, channel_activity_rescan};
use mime_runtime::{BoundLayer, BoundNetwork, SparseDispatch};
use mime_tensor::{
    conv2d_sparse_with_scratch, matmul_fused_batch_into, matmul_fused_row_into, max_pool2d,
    ConvScratch, ConvSpec, FusedMask, PoolSpec, SparseStats, Tensor,
};
use std::time::Instant;

/// One weighted layer's share of one replayed call.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub name: String,
    pub ms: f64,
    /// Outputs that are exactly zero, and all outputs.
    pub zeros: u64,
    pub outputs: u64,
    /// GEMM depth rows in total and rows the compactor skipped.
    pub rows_total: u64,
    pub rows_skipped: u64,
    /// Multiply-accumulates the GEMM executed (skipped rows excluded).
    pub macs: u64,
    /// Weight bytes the call reads, counted once per call.
    pub weight_bytes: u64,
}

/// One replayed executor call.
#[derive(Debug, Clone)]
pub struct Replay {
    pub logits: Vec<Vec<f32>>,
    pub layers: Vec<LayerSample>,
    /// Time inside the replayed calls (weighted layers and pools).
    pub step_ms: f64,
    /// Wall time of the whole replay, bookkeeping included.
    pub wall_ms: f64,
}

fn mask_of<'a>(thresholds: Option<&'a Tensor>, masked: bool) -> FusedMask<'a> {
    match thresholds {
        Some(t) => FusedMask::Thresholds(t.as_slice()),
        None if masked => FusedMask::Relu,
        None => FusedMask::None,
    }
}

fn zeros(v: &[f32]) -> u64 {
    v.iter().filter(|&&x| x == 0.0).count() as u64
}

fn executed_macs(stats: &SparseStats, cols: usize) -> u64 {
    ((stats.k_total - stats.rows_skipped()) * cols) as u64
}

fn expand(act: &[bool], sites: usize) -> Vec<bool> {
    act.iter().flat_map(|&a| std::iter::repeat_n(a, sites)).collect()
}

/// Replays `plans[s]` on `images[s]` for every sample `s` the way
/// `HardwareExecutor::run_image` (one sample) or `run_coalesced` (several)
/// does on the software path, timing each step.
///
/// # Errors
///
/// Propagates kernel errors (a malformed plan or input).
pub fn replay(
    plans: &[&BoundNetwork],
    images: &[&Tensor],
    dispatch: SparseDispatch,
    scratch: &mut ConvScratch,
) -> Result<Replay, String> {
    let started = Instant::now();
    let b = plans.len();
    let lead = plans[0];
    let threads = mime_tensor::threads::worker_count();
    let (c0, hw) = (lead.in_channels(), lead.input_hw());
    let mut stacked = Vec::with_capacity(b * c0 * hw * hw);
    for image in images {
        stacked.extend_from_slice(image.as_slice());
    }
    let err = |e: mime_tensor::TensorError| e.to_string();
    let mut x = Tensor::from_vec(stacked, &[b, c0, hw, hw]).map_err(err)?;
    let mut pending: Vec<Option<Vec<bool>>> = vec![None; b];
    let mut layers = Vec::new();
    let mut step_ms = 0.0;
    for (index, step) in lead.steps().iter().enumerate() {
        match step {
            BoundLayer::Array { geom, weight, bias, packed, .. } => {
                let banks: Vec<Option<&Tensor>> = plans
                    .iter()
                    .map(|p| match &p.steps()[index] {
                        BoundLayer::Array { thresholds, .. } => thresholds.as_ref(),
                        _ => None,
                    })
                    .collect();
                let sites = geom.sites();
                let n = geom.k * sites;
                let mut sample = LayerSample {
                    name: geom.name.clone(),
                    weight_bytes: (weight.len() * std::mem::size_of::<f32>()) as u64,
                    ..LayerSample::default()
                };
                let t0 = Instant::now();
                let out = match packed.as_deref() {
                    Some(pb) if geom.r == 1 && b == 1 => {
                        let staged = x.reshape(&[geom.c]).map_err(err)?;
                        let mut out = Tensor::zeros(&[n]);
                        let mut activity = Vec::new();
                        let stats = matmul_fused_row_into(
                            &staged,
                            pb,
                            bias,
                            mask_of(banks[0], geom.masked),
                            pending[0].as_deref(),
                            dispatch,
                            &mut out,
                            &mut activity,
                            threads,
                        )
                        .map_err(err)?;
                        sample.rows_total += stats.k_total as u64;
                        sample.rows_skipped += stats.rows_skipped() as u64;
                        sample.macs += executed_macs(&stats, n);
                        pending[0] = Some(activity);
                        out.reshape(&[1, n]).map_err(err)?
                    }
                    Some(pb) if geom.r == 1 => {
                        let xs = x.reshape(&[b, geom.c]).map_err(err)?;
                        let masks: Vec<FusedMask> =
                            banks.iter().map(|t| mask_of(*t, geom.masked)).collect();
                        let actives: Vec<Option<&[bool]>> =
                            pending.iter().map(|p| p.as_deref()).collect();
                        let mut out = Tensor::zeros(&[b, n]);
                        let mut activity = Vec::new();
                        let stats = matmul_fused_batch_into(
                            &xs,
                            pb,
                            bias,
                            &masks,
                            &actives,
                            dispatch,
                            &mut out,
                            &mut activity,
                            threads,
                        )
                        .map_err(err)?;
                        for (s, st) in stats.iter().enumerate() {
                            sample.rows_total += st.k_total as u64;
                            sample.rows_skipped += st.rows_skipped() as u64;
                            sample.macs += executed_macs(st, n);
                            pending[s] = Some(activity[s * n..][..n].to_vec());
                        }
                        out
                    }
                    _ => {
                        let spec =
                            ConvSpec::new(geom.r, 1, (geom.r - 1) / 2).map_err(err)?;
                        let x4 =
                            x.reshape(&[b, geom.c, geom.in_hw, geom.in_hw]).map_err(err)?;
                        // one sample threads its own bitmap; a batch may
                        // only skip channels promised zero in every sample
                        let union: Option<Vec<bool>> =
                            pending.iter().all(Option::is_some).then(|| {
                                let mut u = vec![false; geom.c];
                                for p in pending.iter().flatten() {
                                    for (uc, &a) in u.iter_mut().zip(p) {
                                        *uc |= a;
                                    }
                                }
                                u
                            });
                        let (mut out4, stats) = conv2d_sparse_with_scratch(
                            &x4,
                            weight,
                            bias,
                            &spec,
                            scratch,
                            union.as_deref(),
                            dispatch,
                        )
                        .map_err(err)?;
                        sample.rows_total += stats.k_total as u64;
                        sample.rows_skipped += stats.rows_skipped() as u64;
                        // k_total sums over im2col chunks; each chunk's
                        // GEMM spans its share of the batch's columns
                        let chunks = stats.k_total / (geom.c * geom.r * geom.r).max(1);
                        let cols_per_chunk = geom.k * sites * b / chunks.max(1);
                        sample.macs += executed_macs(&stats, cols_per_chunk);
                        let ov = out4.as_mut_slice();
                        for (s, bank) in banks.iter().enumerate() {
                            let slice = &mut ov[s * n..][..n];
                            if let Some(t) = bank {
                                apply_thresholds_rescan(slice, t.as_slice());
                            } else if geom.masked {
                                for v in slice.iter_mut() {
                                    *v = v.max(0.0);
                                }
                            }
                            pending[s] =
                                Some(channel_activity_rescan(slice, geom.k, sites));
                        }
                        out4
                    }
                };
                sample.ms = t0.elapsed().as_secs_f64() * 1e3;
                step_ms += sample.ms;
                sample.zeros = zeros(out.as_slice());
                sample.outputs = out.len() as u64;
                layers.push(sample);
                x = if geom.r == 1 {
                    out.reshape(&[b, n]).map_err(err)?
                } else {
                    out.reshape(&[b, geom.k, geom.out_hw, geom.out_hw]).map_err(err)?
                };
            }
            BoundLayer::Pool => {
                let t0 = Instant::now();
                x = max_pool2d(&x, &PoolSpec::vgg2x2()).map_err(err)?.output;
                step_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
            BoundLayer::Flatten => {
                let dims = x.dims().to_vec();
                let sites: usize = dims[2..].iter().product();
                for p in pending.iter_mut() {
                    if let Some(act) = p.take() {
                        *p = Some(expand(&act, sites));
                    }
                }
                x = x.reshape(&[b, dims[1] * sites]).map_err(err)?;
            }
        }
    }
    let per = x.len() / b;
    let logits = x.as_slice().chunks(per).map(<[f32]>::to_vec).collect();
    Ok(Replay { logits, layers, step_ms, wall_ms: started.elapsed().as_secs_f64() * 1e3 })
}
