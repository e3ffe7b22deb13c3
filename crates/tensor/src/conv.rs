//! `im2col`-based 2-D convolution (forward and backward), batched.
//!
//! Layouts: inputs `[N, C, H, W]`, weights `[K, C, R, S]`, outputs
//! `[N, K, Ho, Wo]`. The forward convolution is **one** sparse-dispatch
//! GEMM over the whole batch, `W[K, C·R·S] · B[C·R·S, N·Ho·Wo]`, which
//! keeps the threaded GEMM saturated on large `n` instead of issuing `N`
//! small products. Its `B`, the im2col lowering, is never built: the
//! GEMM packs its panels straight from the activations ([`Im2col`]), so
//! the forward pass writes no column matrix and reads the activations
//! once per packed panel. There is one forward path: the dense
//! [`conv2d_with_scratch`] is the [`SparseDispatch::DenseOnly`] call of
//! [`conv2d_sparse_with_scratch`].
//!
//! The backward pass keeps a materialized lowering, in image chunks that
//! bound the column buffer (see [`ConvScratch`]); all buffers are
//! caller-reusable so a training step performs no per-image allocation.
//! The single-image [`im2col`]/[`col2im`] lowering is kept as a public
//! reference (tests and the systolic functional model use it).

use crate::matmul::{dispatch_gemm, isa, ALayout, AOperand, BLayout, NR};
use crate::{
    matmul_nt_into_acc, matmul_tn_into, PrepackedA, Result, SparseDispatch, SparseStats,
    Tensor, TensorError,
};

/// Geometry of a 2-D convolution: kernel size, stride and zero padding
/// (symmetric, same on both spatial axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Kernel height/width (square kernels).
    pub kernel: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Zero padding added on every spatial border.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a spec; `stride` must be non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for a zero stride or zero
    /// kernel.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        if stride == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} and stride {stride} must be non-zero"
            )));
        }
        Ok(ConvSpec { kernel, stride, padding })
    }

    /// The canonical 3×3 / stride 1 / pad 1 ("same") VGG convolution.
    pub fn vgg3x3() -> Self {
        ConvSpec { kernel: 3, stride: 1, padding: 1 }
    }

    /// Output spatial extent for an input extent of `h`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the padded input is
    /// smaller than the kernel.
    pub fn out_extent(&self, h: usize) -> Result<usize> {
        let padded = h + 2 * self.padding;
        if padded < self.kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {} exceeds padded input extent {padded}",
                self.kernel
            )));
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the weights, `[K, C, R, S]`.
    pub grad_weight: Tensor,
    /// Gradient w.r.t. the bias, `[K]`.
    pub grad_bias: Tensor,
}

/// Reusable scratch for the batched convolution lowering.
///
/// Holds the forward GEMM output of a batch, the channel→row activity
/// list, and the backward pass's column matrix and staging buffers. Thread one instance through repeated
/// [`conv2d_with_scratch`] / [`conv2d_backward_with_scratch`] calls
/// (e.g. one per `Conv2d` layer) and the steady-state training loop
/// performs no per-step allocation: buffers are only reallocated when
/// the layer shape changes.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    cols: Tensor,
    gemm: Vec<f32>,
    gout: Tensor,
    dcols: Tensor,
    active_rows: Vec<usize>,
}

impl ConvScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        ConvScratch::default()
    }
}

/// Ceiling on the backward pass's column-matrix size in floats (4 MiB).
/// Batches whose lowering would exceed it are processed in image chunks,
/// so memory stays bounded while the per-chunk GEMMs stay large enough
/// to saturate the threaded kernel. Kept near last-level-cache size: the
/// freshly written columns feed straight into the GEMMs' packers, and a
/// chunk much larger than the cache turns that hand-off into a DRAM
/// round trip (measured slower than per-image lowering at 16 MiB).
const COLS_BUDGET_FLOATS: usize = 1 << 20;

fn ensure_shape(t: &mut Tensor, dims: &[usize]) {
    if t.dims() != dims {
        *t = Tensor::zeros(dims);
    }
}

/// Lowers one image `[C, H, W]` into a column matrix `[C·R·S, Ho·Wo]`.
///
/// Out-of-bounds (padding) taps contribute zeros. This is the reference
/// single-image lowering; the backward pass uses an internal multi-image
/// variant writing `[C·R·S, N·Ho·Wo]`, and the forward pass packs the
/// same matrix's panels without writing it.
///
/// # Errors
///
/// Returns a geometry error when the kernel does not fit the padded input,
/// or a rank error for a non-rank-3 input.
pub fn im2col(image: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    if image.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: image.rank(),
            op: "im2col",
        });
    }
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    let ho = spec.out_extent(h)?;
    let wo = spec.out_extent(w)?;
    let k = spec.kernel;
    let mut cols = Tensor::zeros(&[c * k * k, ho * wo]);
    im2col_batch_into(image.as_slice(), 0, 1, c, h, w, spec, ho, wo, cols.as_mut_slice());
    Ok(cols)
}

/// Writes the lowering of images `n0..n0+nc` of a `[N, C, H, W]` buffer
/// into `dst`, laid out `[C·R·S, nc·Ho·Wo]` with column index
/// `ni·Ho·Wo + oy·Wo + ox`. `dst` must be pre-zeroed (padding taps are
/// skipped, not written). Stride-1 rows are copied as contiguous spans.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn im2col_batch_into(
    input: &[f32],
    n0: usize,
    nc: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    ho: usize,
    wo: usize,
    dst: &mut [f32],
) {
    let k = spec.kernel;
    let pad = spec.padding as isize;
    let sites = ho * wo;
    let row_len = nc * sites;
    let img_len = c * h * w;
    for ci in 0..c {
        for r in 0..k {
            for s in 0..k {
                let row = (ci * k + r) * k + s;
                let dst_row = &mut dst[row * row_len..(row + 1) * row_len];
                for ni in 0..nc {
                    let src = &input[(n0 + ni) * img_len..(n0 + ni + 1) * img_len];
                    let col_base = ni * sites;
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + r) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue; // padding region stays zero
                        }
                        let src_row = &src[(ci * h + iy as usize) * w..][..w];
                        let dst_site = &mut dst_row[col_base + oy * wo..][..wo];
                        if spec.stride == 1 {
                            // contiguous span: ix = ox + s - pad ∈ [0, w)
                            let ox_lo = (pad - s as isize).max(0) as usize;
                            let ox_hi = ((w as isize + pad - s as isize).min(wo as isize))
                                .max(0) as usize;
                            if ox_hi > ox_lo {
                                let ix_lo = (ox_lo as isize + s as isize - pad) as usize;
                                dst_site[ox_lo..ox_hi].copy_from_slice(
                                    &src_row[ix_lo..ix_lo + (ox_hi - ox_lo)],
                                );
                            }
                        } else {
                            for (ox, d) in dst_site.iter_mut().enumerate() {
                                let ix = (ox * spec.stride + s) as isize - pad;
                                if ix >= 0 && ix < w as isize {
                                    *d = src_row[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The im2col matrix `[C·R·S, N·Ho·Wo]` of a `[N, C, H, W]` batch as a
/// GEMM `B` operand that is never built: [`Im2col::pack`] writes the
/// GEMM's `NR`-column panels straight from the activations, value for
/// value what packing the [`im2col_batch_into`] matrix would give (row
/// `(ci·R + r)·S + s`, column `ni·Ho·Wo + oy·Wo + ox`, `+0.0` on
/// padding taps).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Im2col {
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
}

/// One in-bounds piece of a packed panel row: lanes `lane..lane+len`
/// take the `len` activations at `src` past the depth row's channel
/// plane.
#[derive(Clone, Copy)]
struct Seg {
    lane: usize,
    len: usize,
    src: usize,
}

impl Im2col {
    /// The lowering of `[N, c, h, w]` inputs under `spec` (output extent
    /// `ho × wo`).
    pub(crate) fn new(
        (c, h, w): (usize, usize, usize),
        spec: &ConvSpec,
        (ho, wo): (usize, usize),
    ) -> Self {
        let (kernel, stride, pad) = (spec.kernel, spec.stride, spec.padding);
        Im2col { c, h, w, kernel, stride, pad, ho, wo }
    }

    /// The output positions `lo..hi` whose tap at kernel offset `off`
    /// lands inside an input extent `len` (`lo ≤ hi`, both ≤ `out`).
    fn span(&self, off: usize, len: usize, out: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(off).div_ceil(self.stride).min(out);
        let hi = (len + self.pad).saturating_sub(off).div_ceil(self.stride).min(out);
        (lo, hi.max(lo))
    }

    /// Packs columns `c0..c0+nb` of the depth rows `rows` (ascending) of
    /// the lowering of `x` into `⌈nb/NR⌉` panels of `rows.len()×NR`,
    /// `p`-major, zeroing the lanes past `nb` — the panels
    /// `pack_b_chunk` (a dense window) or `pack_b_chunk_gather` (a row
    /// list) would pack from the materialized matrix.
    ///
    /// A depth row `(ci, r, s)` reads the same positions of every channel
    /// plane, so each panel first lists, per kernel offset `(r, s)`, the
    /// in-bounds pieces of its runs of columns that share an image and an
    /// output row. A row then copies its offset's pieces from its channel
    /// plane, and is zero elsewhere: one 16-float copy when the piece
    /// spans the panel, as it does inside wide maps.
    pub(crate) fn pack(
        &self,
        x: &[f32],
        rows: impl Iterator<Item = usize>,
        c0: usize,
        nb: usize,
        packed: &mut [f32],
    ) {
        let kk = self.kernel * self.kernel;
        let plane = self.h * self.w;
        // each depth row as (channel-plane offset, kernel offset r·S + s)
        let taps: Vec<(usize, usize)> = rows.map(|p| ((p / kk) * plane, p % kk)).collect();
        let kb = taps.len();
        let (sites, img) = (self.ho * self.wo, self.c * plane);
        let mut segs: Vec<Seg> = Vec::new();
        // kernel offset `q`'s pieces are `segs[starts[q]..starts[q + 1]]`
        let mut starts: Vec<usize> = Vec::with_capacity(kk + 1);
        for (jp, panel) in
            packed.chunks_exact_mut(kb * NR).take(nb.div_ceil(NR)).enumerate()
        {
            let j0 = c0 + jp * NR;
            let width = NR.min(c0 + nb - j0);
            segs.clear();
            starts.clear();
            for q in 0..kk {
                starts.push(segs.len());
                let (r, s) = (q / self.kernel, q % self.kernel);
                let (oy_lo, oy_hi) = self.span(r, self.h, self.ho);
                let (ox_lo, ox_hi) = self.span(s, self.w, self.wo);
                let mut lane = 0;
                while lane < width {
                    let (ni, site) = ((j0 + lane) / sites, (j0 + lane) % sites);
                    let (oy, ox) = (site / self.wo, site % self.wo);
                    let len = (self.wo - ox).min(width - lane);
                    let (lo, hi) = (ox_lo.clamp(ox, ox + len), ox_hi.clamp(ox, ox + len));
                    if (oy_lo..oy_hi).contains(&oy) && lo < hi {
                        let row = ni * img + (oy * self.stride + r - self.pad) * self.w;
                        let src = |o: usize| row + o * self.stride + s - self.pad;
                        if self.stride == 1 {
                            segs.push(Seg {
                                lane: lane + lo - ox,
                                len: hi - lo,
                                src: src(lo),
                            });
                        } else {
                            segs.extend((lo..hi).map(|o| Seg {
                                lane: lane + o - ox,
                                len: 1,
                                src: src(o),
                            }));
                        }
                    }
                    lane += len;
                }
            }
            starts.push(segs.len());
            for (dst, &(chan, q)) in panel.chunks_exact_mut(NR).zip(&taps) {
                let dst: &mut [f32; NR] = dst.try_into().expect("an NR-lane row");
                match &segs[starts[q]..starts[q + 1]] {
                    [Seg { len: NR, src, .. }] => {
                        *dst = x[chan + src..][..NR].try_into().expect("NR taps");
                    }
                    pieces => {
                        *dst = [0.0; NR];
                        for seg in pieces {
                            let from = &x[chan + seg.src..][..seg.len];
                            for (d, &v) in dst[seg.lane..].iter_mut().zip(from) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The depth rows of the lowering of `x` (`n` columns) that hold a
    /// nonzero (`-0.0` counts as zero), as `probe_active_rows` finds
    /// them on the materialized matrix: only in-bounds taps are read.
    pub(crate) fn probe(&self, x: &[f32], n: usize) -> Vec<usize> {
        let images = n / (self.ho * self.wo).max(1);
        let img = self.c * self.h * self.w;
        let (stride, pad, kk) = (self.stride, self.pad, self.kernel * self.kernel);
        (0..self.c * kk)
            .filter(|&p| {
                let plane = (p / kk) * self.h * self.w;
                let (r, s) = ((p % kk) / self.kernel, p % self.kernel);
                let (oy_lo, oy_hi) = self.span(r, self.h, self.ho);
                let (ox_lo, ox_hi) = self.span(s, self.w, self.wo);
                if ox_lo == ox_hi {
                    return false;
                }
                let ix0 = ox_lo * stride + s - pad;
                let ix1 = (ox_hi - 1) * stride + s - pad;
                (0..images).any(|ni| {
                    (oy_lo..oy_hi).any(|oy| {
                        let iy = oy * stride + r - pad;
                        let src = &x[ni * img + plane + iy * self.w..][..self.w];
                        src[ix0..=ix1].iter().step_by(stride).any(|&v| v != 0.0)
                    })
                })
            })
            .collect()
    }
}

/// Inverse of [`im2col`]: scatters a column matrix back into an image,
/// **accumulating** overlapping contributions (as required by the input
/// gradient of a convolution).
///
/// # Errors
///
/// Returns shape/geometry errors for inconsistent arguments.
pub fn col2im(
    cols: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    spec: &ConvSpec,
) -> Result<Tensor> {
    let ho = spec.out_extent(height)?;
    let wo = spec.out_extent(width)?;
    let k = spec.kernel;
    if cols.dims() != [channels * k * k, ho * wo] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![channels * k * k, ho * wo],
            op: "col2im",
        });
    }
    let mut image = Tensor::zeros(&[channels, height, width]);
    col2im_batch_add(
        cols.as_slice(),
        0,
        1,
        channels,
        height,
        width,
        spec,
        ho,
        wo,
        image.as_mut_slice(),
    );
    Ok(image)
}

/// Scatter-accumulates a `[C·R·S, nc·Ho·Wo]` column matrix back into
/// images `n0..n0+nc` of a `[N, C, H, W]` buffer (the batched adjoint of
/// [`im2col_batch_into`]).
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn col2im_batch_add(
    cols: &[f32],
    n0: usize,
    nc: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    ho: usize,
    wo: usize,
    out: &mut [f32],
) {
    let k = spec.kernel;
    let pad = spec.padding as isize;
    let sites = ho * wo;
    let row_len = nc * sites;
    let img_len = c * h * w;
    for ci in 0..c {
        for r in 0..k {
            for s in 0..k {
                let row = (ci * k + r) * k + s;
                let src_row = &cols[row * row_len..(row + 1) * row_len];
                for ni in 0..nc {
                    let dst = &mut out[(n0 + ni) * img_len..(n0 + ni + 1) * img_len];
                    let col_base = ni * sites;
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + r) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = &mut dst[(ci * h + iy as usize) * w..][..w];
                        let src_site = &src_row[col_base + oy * wo..][..wo];
                        if spec.stride == 1 {
                            let ox_lo = (pad - s as isize).max(0) as usize;
                            let ox_hi = ((w as isize + pad - s as isize).min(wo as isize))
                                .max(0) as usize;
                            if ox_hi > ox_lo {
                                let ix_lo = (ox_lo as isize + s as isize - pad) as usize;
                                for (d, &v) in dst_row[ix_lo..ix_lo + (ox_hi - ox_lo)]
                                    .iter_mut()
                                    .zip(&src_site[ox_lo..ox_hi])
                                {
                                    *d += v;
                                }
                            }
                        } else {
                            for (ox, &v) in src_site.iter().enumerate() {
                                let ix = (ox * spec.stride + s) as isize - pad;
                                if ix >= 0 && ix < w as isize {
                                    dst_row[ix as usize] += v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn check_conv_args(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "conv2d",
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
            op: "conv2d",
        });
    }
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let (kout, cin) = (weight.dims()[0], weight.dims()[1]);
    if cin != c || bias.dims() != [kout] {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d",
        });
    }
    Ok((n, c, h, w, kout, weight.dims()[2]))
}

/// How many images fit one column-buffer chunk under the memory budget.
fn images_per_chunk(taps: usize, sites: usize, n: usize) -> usize {
    (COLS_BUDGET_FLOATS / (taps * sites).max(1)).clamp(1, n.max(1))
}

/// 2-D convolution forward pass.
///
/// `input: [N, C, H, W]`, `weight: [K, C, R, R]`, `bias: [K]` →
/// `[N, K, Ho, Wo]`. Allocates fresh scratch; in hot loops prefer
/// [`conv2d_with_scratch`].
///
/// # Errors
///
/// Returns shape/rank/geometry errors for inconsistent arguments.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> Result<Tensor> {
    conv2d_with_scratch(input, weight, bias, spec, &mut ConvScratch::new())
}

/// [`conv2d`] with caller-reusable scratch: the whole batch is one
/// threaded GEMM over its `N·Ho·Wo` columns, packed straight from the
/// activations, instead of one small GEMM per image. This is
/// [`conv2d_sparse_with_scratch`] pinned to [`SparseDispatch::DenseOnly`]
/// with no activity bitmap — the same GEMM call, so training is
/// unaffected by the sparse path.
///
/// # Errors
///
/// Returns shape/rank/geometry errors for inconsistent arguments.
pub fn conv2d_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
    scratch: &mut ConvScratch,
) -> Result<Tensor> {
    let dispatch = SparseDispatch::DenseOnly;
    conv2d_sparse_with_scratch(input, weight, bias, spec, scratch, None, dispatch)
        .map(|(out, _)| out)
}

/// [`conv2d`] routed through the sparse GEMM dispatcher.
///
/// When `active_channels` is `Some`, it is a per-input-channel activity
/// bitmap (length `C`, typically emitted by the preceding threshold/ReLU
/// step): a `false` channel is promised to be all zeros, and its
/// `R·S` im2col rows are skipped without probing. A conservative bitmap
/// (extra `true` entries) is always legal. When `None`, the dispatcher
/// probes the lowering's rows for all-zero ones itself, reading the
/// activations' in-bounds taps. Either way the output is bit-identical
/// to the dense [`conv2d_with_scratch`] because skipped rows contribute
/// exact zeros.
///
/// Returns the output together with the batch GEMM's [`SparseStats`]
/// (`k_total` = `C·R·S`). The channel→row expansion reuses a buffer
/// inside `scratch`, so steady-state inference stays allocation-free.
///
/// # Errors
///
/// Returns shape/rank/geometry errors for inconsistent arguments,
/// including a bitmap whose length differs from the input channel count.
#[allow(clippy::too_many_arguments)] // mirrors conv2d_with_scratch plus dispatch inputs
pub fn conv2d_sparse_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
    scratch: &mut ConvScratch,
    active_channels: Option<&[bool]>,
    dispatch: SparseDispatch,
) -> Result<(Tensor, SparseStats)> {
    let (_, c, _, _, kout, kr) = check_conv_args(input, weight, bias)?;
    if kr != spec.kernel {
        return Err(TensorError::InvalidGeometry(format!(
            "weight kernel {kr} does not match spec kernel {}",
            spec.kernel
        )));
    }
    let taps = c * spec.kernel * spec.kernel;
    if weight.len() != kout * taps {
        return Err(TensorError::LengthMismatch {
            expected: kout * taps,
            actual: weight.len(),
        });
    }
    conv2d_sparse_impl(
        input,
        AOperand::Raw(weight.as_slice(), ALayout::Normal),
        (kout, taps),
        bias,
        spec,
        scratch,
        active_channels,
        dispatch,
    )
}

/// [`conv2d_sparse_with_scratch`] over a resident weight: `weight` is the
/// `[K, C·R·S]` conv weight packed once ([`PrepackedA::from_weight`]),
/// so no call re-gathers its strips. Output and [`SparseStats`] are
/// bit-identical to the raw-weight call.
///
/// # Errors
///
/// As [`conv2d_sparse_with_scratch`]; the packed depth must equal
/// `C·R·S` for the input's `C` and the spec's kernel.
#[allow(clippy::too_many_arguments)] // mirrors conv2d_sparse_with_scratch
pub fn conv2d_sparse_prepacked_with_scratch(
    input: &Tensor,
    weight: &PrepackedA,
    bias: &Tensor,
    spec: &ConvSpec,
    scratch: &mut ConvScratch,
    active_channels: Option<&[bool]>,
    dispatch: SparseDispatch,
) -> Result<(Tensor, SparseStats)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "conv2d",
        });
    }
    let taps = input.dims()[1] * spec.kernel * spec.kernel;
    if weight.k() != taps || bias.dims() != [weight.m()] {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: vec![weight.m(), weight.k()],
            op: "conv2d",
        });
    }
    conv2d_sparse_impl(
        input,
        AOperand::Prepacked(weight),
        (weight.m(), taps),
        bias,
        spec,
        scratch,
        active_channels,
        dispatch,
    )
}

/// The batched sparse conv over a checked `A` operand of shape
/// `(K, C·R·S)`.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn conv2d_sparse_impl(
    input: &Tensor,
    weight: AOperand<'_>,
    (kout, taps): (usize, usize),
    bias: &Tensor,
    spec: &ConvSpec,
    scratch: &mut ConvScratch,
    active_channels: Option<&[bool]>,
    dispatch: SparseDispatch,
) -> Result<(Tensor, SparseStats)> {
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let ho = spec.out_extent(h)?;
    let wo = spec.out_extent(w)?;
    let sites = ho * wo;
    let mut out = Tensor::zeros(&[n, kout, ho, wo]);
    let bias_v = bias.as_slice();
    // Expand the channel bitmap into im2col row indices: channel `ci` owns
    // rows `ci·R·S .. (ci+1)·R·S`. The list is moved out of the scratch so
    // it can be borrowed while the GEMM buffer is mutated.
    let mut rows_buf = std::mem::take(&mut scratch.active_rows);
    let known_rows: Option<&[usize]> = match active_channels {
        Some(act) => {
            if act.len() != c {
                scratch.active_rows = rows_buf;
                return Err(TensorError::InvalidGeometry(format!(
                    "active-channel bitmap length {} does not match input channels {c}",
                    act.len()
                )));
            }
            rows_buf.clear();
            let kk = spec.kernel * spec.kernel;
            for (ci, &alive) in act.iter().enumerate() {
                if alive {
                    rows_buf.extend(ci * kk..(ci + 1) * kk);
                }
            }
            Some(&rows_buf)
        }
        None => None,
    };
    let cols = n * sites;
    let lowering = Im2col::new((c, h, w), spec, (ho, wo));
    // One GEMM over every image's sites, its `B` panels packed straight
    // from the activations. A single image's `[K, Ho·Wo]` product already
    // is its `[1, K, Ho, Wo]` output, so it lands there and takes the
    // bias in place; a batch's `[K, N·Ho·Wo]` product is regrouped per
    // image. The batch buffer keeps its largest size, so the layers of a
    // pass do not each map and fault in a fresh one.
    let direct = n == 1;
    let len = kout * cols;
    if !direct && scratch.gemm.len() < len {
        scratch.gemm.resize(len, 0.0);
    }
    let gemm = if direct { out.as_mut_slice() } else { &mut scratch.gemm[..len] };
    let stats = dispatch_gemm(
        weight,
        (kout, taps, cols),
        (input.as_slice(), BLayout::Im2col(lowering)),
        gemm,
        known_rows,
        dispatch,
        crate::threads::worker_count(),
        isa(),
    );
    scratch.active_rows = rows_buf;
    let stats = stats?;
    let dst = out.as_mut_slice();
    if direct {
        for (row, &b) in dst.chunks_exact_mut(sites).zip(bias_v) {
            for d in row {
                *d += b;
            }
        }
    } else {
        let src = &scratch.gemm[..len];
        for (ki, &b) in bias_v.iter().enumerate() {
            for ni in 0..n {
                let s_row = &src[ki * cols + ni * sites..][..sites];
                let d_row = &mut dst[ni * kout * sites + ki * sites..][..sites];
                for (d, &v) in d_row.iter_mut().zip(s_row) {
                    *d = v + b;
                }
            }
        }
    }
    Ok((out, stats))
}

/// 2-D convolution backward pass.
///
/// Given the forward inputs and `grad_output: [N, K, Ho, Wo]`, produces
/// gradients w.r.t. input, weight, and bias. Allocates fresh scratch; in
/// hot loops prefer [`conv2d_backward_with_scratch`].
///
/// # Errors
///
/// Returns shape/rank/geometry errors for inconsistent arguments.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    conv2d_backward_with_scratch(input, weight, grad_output, spec, &mut ConvScratch::new())
}

/// [`conv2d_backward`] with caller-reusable scratch. Like the forward
/// path, the batch is processed in bounded chunks with one `dW`, one
/// `dX` GEMM per chunk (weight gradients accumulate across chunks via
/// [`matmul_nt_into_acc`]).
///
/// # Errors
///
/// Returns shape/rank/geometry errors for inconsistent arguments.
pub fn conv2d_backward_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: &ConvSpec,
    scratch: &mut ConvScratch,
) -> Result<Conv2dGrads> {
    let bias_dummy = Tensor::zeros(&[weight.dims()[0]]);
    let (n, c, h, w, kout, _) = check_conv_args(input, weight, &bias_dummy)?;
    let ho = spec.out_extent(h)?;
    let wo = spec.out_extent(w)?;
    if grad_output.dims() != [n, kout, ho, wo] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, kout, ho, wo],
            op: "conv2d_backward",
        });
    }
    let taps = c * spec.kernel * spec.kernel;
    let sites = ho * wo;
    let w_mat = weight.reshape(&[kout, taps])?;
    let mut grad_w_mat = Tensor::zeros(&[kout, taps]);
    let mut grad_bias = Tensor::zeros(&[kout]);
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let per_chunk = images_per_chunk(taps, sites, n);
    let mut n0 = 0;
    while n0 < n {
        let nc = per_chunk.min(n - n0);
        ensure_shape(&mut scratch.cols, &[taps, nc * sites]);
        scratch.cols.as_mut_slice().fill(0.0);
        im2col_batch_into(
            input.as_slice(),
            n0,
            nc,
            c,
            h,
            w,
            spec,
            ho,
            wo,
            scratch.cols.as_mut_slice(),
        );
        // interleave [nc, K, sites] → [K, nc·sites]
        ensure_shape(&mut scratch.gout, &[kout, nc * sites]);
        {
            let src = grad_output.as_slice();
            let dst = scratch.gout.as_mut_slice();
            for ki in 0..kout {
                for ni in 0..nc {
                    let s_row = &src[(n0 + ni) * kout * sites + ki * sites..][..sites];
                    dst[ki * nc * sites + ni * sites..][..sites].copy_from_slice(s_row);
                }
            }
        }
        // dW += gout · colsᵀ   ([K, nc·sites] · [nc·sites, taps])
        matmul_nt_into_acc(&scratch.gout, &scratch.cols, &mut grad_w_mat)?;
        // db += rowwise sum of gout
        {
            let gb = grad_bias.as_mut_slice();
            let src = scratch.gout.as_slice();
            for ki in 0..kout {
                gb[ki] += src[ki * nc * sites..(ki + 1) * nc * sites].iter().sum::<f32>();
            }
        }
        // dcols = Wᵀ · gout ([taps, K] · [K, nc·sites])
        ensure_shape(&mut scratch.dcols, &[taps, nc * sites]);
        matmul_tn_into(&w_mat, &scratch.gout, &mut scratch.dcols)?;
        col2im_batch_add(
            scratch.dcols.as_slice(),
            n0,
            nc,
            c,
            h,
            w,
            spec,
            ho,
            wo,
            grad_input.as_mut_slice(),
        );
        n0 += nc;
    }
    Ok(Conv2dGrads {
        grad_input,
        grad_weight: grad_w_mat.reshape(weight.dims())?,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul_scalar_ref, matmul_tn};

    #[test]
    fn out_extent_same_padding() {
        let s = ConvSpec::vgg3x3();
        assert_eq!(s.out_extent(32).unwrap(), 32);
        assert_eq!(s.out_extent(8).unwrap(), 8);
    }

    #[test]
    fn out_extent_rejects_oversized_kernel() {
        let s = ConvSpec::new(5, 1, 0).unwrap();
        assert!(s.out_extent(3).is_err());
    }

    #[test]
    fn spec_rejects_zero_stride() {
        assert!(ConvSpec::new(3, 0, 1).is_err());
        assert!(ConvSpec::new(0, 1, 1).is_err());
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 is the identity on a single channel.
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let spec = ConvSpec::new(1, 1, 0).unwrap();
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 all-ones kernel over a 3x3 all-ones image, pad 1: center = 9,
        // edges = 6, corners = 4.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &ConvSpec::vgg3x3()).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[2, 1, 1, 1]);
        let bias = Tensor::from_slice(&[1.0, -2.0]);
        let spec = ConvSpec::new(1, 1, 0).unwrap();
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0]);
    }

    #[test]
    fn stride_two_downsamples() {
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let spec = ConvSpec::new(1, 2, 0).unwrap();
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }

    /// Per-image reference: the pre-batching forward (im2col + scalar
    /// GEMM, one image at a time).
    fn conv2d_per_image_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: &ConvSpec,
    ) -> Tensor {
        let (n, c, h, w) =
            (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
        let kout = weight.dims()[0];
        let ho = spec.out_extent(h).unwrap();
        let wo = spec.out_extent(w).unwrap();
        let taps = c * spec.kernel * spec.kernel;
        let w_mat = weight.reshape(&[kout, taps]).unwrap();
        let mut out = Tensor::zeros(&[n, kout, ho, wo]);
        let img_len = c * h * w;
        let sites = ho * wo;
        for ni in 0..n {
            let image = Tensor::from_vec(
                input.as_slice()[ni * img_len..(ni + 1) * img_len].to_vec(),
                &[c, h, w],
            )
            .unwrap();
            let cols = im2col(&image, spec).unwrap();
            let gemm = matmul_scalar_ref(&w_mat, &cols).unwrap();
            let dst = &mut out.as_mut_slice()[ni * kout * sites..(ni + 1) * kout * sites];
            for ki in 0..kout {
                let b = bias.as_slice()[ki];
                for site in 0..sites {
                    dst[ki * sites + site] = gemm.as_slice()[ki * sites + site] + b;
                }
            }
        }
        out
    }

    #[test]
    fn batched_forward_matches_per_image_reference() {
        for &(n, c, kout, hw, kernel, stride, pad) in &[
            (1usize, 1usize, 1usize, 1usize, 1usize, 1usize, 0usize),
            (3, 2, 5, 7, 3, 1, 1),
            (2, 3, 4, 8, 3, 2, 1),
            (5, 1, 2, 5, 2, 1, 0),
            (4, 3, 8, 6, 3, 1, 1),
        ] {
            let spec = ConvSpec::new(kernel, stride, pad).unwrap();
            let input =
                Tensor::from_fn(&[n, c, hw, hw], |i| ((i * 31) % 23) as f32 * 0.1 - 1.0);
            let weight = Tensor::from_fn(&[kout, c, kernel, kernel], |i| {
                ((i * 17) % 13) as f32 * 0.05 - 0.3
            });
            let bias = Tensor::from_fn(&[kout], |i| i as f32 * 0.1 - 0.2);
            let batched = conv2d(&input, &weight, &bias, &spec).unwrap();
            let reference = conv2d_per_image_ref(&input, &weight, &bias, &spec);
            assert_eq!(batched.dims(), reference.dims());
            for (x, y) in batched.as_slice().iter().zip(reference.as_slice()) {
                assert!((x - y).abs() < 1e-3, "n={n} c={c} k={kout} hw={hw}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        let spec = ConvSpec::vgg3x3();
        let mut scratch = ConvScratch::new();
        for trial in 0..3 {
            let input = Tensor::from_fn(&[2, 3, 6, 6], |i| ((i + trial * 7) % 11) as f32);
            let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| ((i % 5) as f32) * 0.1);
            let bias = Tensor::zeros(&[4]);
            let reused =
                conv2d_with_scratch(&input, &weight, &bias, &spec, &mut scratch).unwrap();
            let fresh = conv2d(&input, &weight, &bias, &spec).unwrap();
            assert_eq!(reused.as_slice(), fresh.as_slice());
            let gout = Tensor::from_fn(reused.dims(), |i| (i % 3) as f32 - 1.0);
            let g1 =
                conv2d_backward_with_scratch(&input, &weight, &gout, &spec, &mut scratch)
                    .unwrap();
            let g2 = conv2d_backward(&input, &weight, &gout, &spec).unwrap();
            assert_eq!(g1.grad_weight.as_slice(), g2.grad_weight.as_slice());
            assert_eq!(g1.grad_input.as_slice(), g2.grad_input.as_slice());
            assert_eq!(g1.grad_bias.as_slice(), g2.grad_bias.as_slice());
        }
    }

    #[test]
    fn sparse_conv_matches_dense_bitwise() {
        let spec = ConvSpec::vgg3x3();
        let c = 6;
        let mut input =
            Tensor::from_fn(&[2, c, 6, 6], |i| ((i * 31) % 23) as f32 * 0.1 - 1.0);
        // zero out channels 1 and 4 of every image, as a threshold would
        let img = c * 36;
        for ni in 0..2 {
            for ci in [1usize, 4] {
                input.as_mut_slice()[ni * img + ci * 36..][..36].fill(0.0);
            }
        }
        let weight =
            Tensor::from_fn(&[4, c, 3, 3], |i| ((i * 17) % 13) as f32 * 0.05 - 0.3);
        let bias = Tensor::from_fn(&[4], |i| i as f32 * 0.1 - 0.2);
        let dense = conv2d(&input, &weight, &bias, &spec).unwrap();

        let bitmap: Vec<bool> = (0..c).map(|ci| ci != 1 && ci != 4).collect();
        let resident = PrepackedA::from_weight(&weight).unwrap();
        let mut scratch = ConvScratch::new();
        for (chans, disp) in [
            (Some(bitmap.as_slice()), SparseDispatch::Auto),
            (Some(bitmap.as_slice()), SparseDispatch::SparseOnly),
            (None, SparseDispatch::SparseOnly),
            (None, SparseDispatch::DenseOnly),
        ] {
            let (out, stats) = conv2d_sparse_with_scratch(
                &input,
                &weight,
                &bias,
                &spec,
                &mut scratch,
                chans,
                disp,
            )
            .unwrap();
            assert_eq!(out.as_slice(), dense.as_slice(), "chans={chans:?} disp={disp:?}");
            // the resident weight reproduces the raw call bit for bit
            let (res_out, res_stats) = conv2d_sparse_prepacked_with_scratch(
                &input,
                &resident,
                &bias,
                &spec,
                &mut scratch,
                chans,
                disp,
            )
            .unwrap();
            assert_eq!(res_out.as_slice(), out.as_slice(), "resident chans={chans:?}");
            assert_eq!(res_stats, stats);
            assert_eq!(stats.k_total, c * 9, "one chunk covers the whole batch");
            if disp == SparseDispatch::SparseOnly {
                assert!(stats.used_sparse);
                assert_eq!(stats.rows_skipped(), 2 * 9, "chans={chans:?}");
            }
            if disp == SparseDispatch::DenseOnly {
                assert!(!stats.used_sparse);
                assert_eq!(stats.rows_skipped(), 0);
            }
        }

        // a bitmap of the wrong length is a geometry error
        let short = vec![true; c - 1];
        let err = conv2d_sparse_with_scratch(
            &input,
            &weight,
            &bias,
            &spec,
            &mut scratch,
            Some(&short),
            SparseDispatch::Auto,
        );
        assert!(matches!(err, Err(TensorError::InvalidGeometry(_))));
        // a resident weight packed for other channels is a shape error
        let other = PrepackedA::from_weight(&Tensor::zeros(&[4, c - 1, 3, 3])).unwrap();
        let err = conv2d_sparse_prepacked_with_scratch(
            &input,
            &other,
            &bias,
            &spec,
            &mut scratch,
            None,
            SparseDispatch::Auto,
        );
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
    }

    /// A deterministic `[n, c, h, w]` input with exact zeros, `-0.0` and
    /// one all-zero channel, as thresholded activations look.
    fn activations(dims: &[usize]) -> Tensor {
        let plane = dims[2] * dims[3];
        Tensor::from_fn(dims, |i| match (i / plane) % dims[1] {
            1 => 0.0,
            _ => match (i * 37) % 11 {
                0..=2 => 0.0,
                3 => -0.0,
                v => v as f32 * 0.25 - 1.0,
            },
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv_source_panels_equal_panels_of_the_materialized_im2col() {
        use crate::matmul::{pack_b_chunk, pack_b_chunk_gather};
        // (n, c, h, w, kernel, stride, pad): stride 1 and 2, pad 0 and 1,
        // kernel 1 and 3, widths that are no multiple of NR (runs cross
        // output rows and images), 2×2 maps, and one-site outputs
        let cases = [
            (2usize, 3usize, 7usize, 5usize, 3usize, 1usize, 1usize),
            (3, 2, 6, 9, 3, 2, 1),
            (2, 4, 5, 6, 1, 1, 0),
            (1, 3, 20, 20, 3, 1, 0),
            (3, 2, 4, 4, 3, 2, 0),
            (4, 5, 2, 2, 3, 1, 1),
            (2, 2, 9, 17, 3, 1, 1),
        ];
        for (n, c, h, w, kernel, stride, pad) in cases {
            let spec = ConvSpec::new(kernel, stride, pad).unwrap();
            let (ho, wo) = (spec.out_extent(h).unwrap(), spec.out_extent(w).unwrap());
            let (taps, cols) = (c * kernel * kernel, n * ho * wo);
            let x = activations(&[n, c, h, w]);
            let mut mat = vec![0.0f32; taps * cols];
            im2col_batch_into(x.as_slice(), 0, n, c, h, w, &spec, ho, wo, &mut mat);
            let g = Im2col::new((c, h, w), &spec, (ho, wo));
            let implicit = BLayout::Im2col(g);
            let what = format!("n={n} c={c} {h}x{w} k={kernel} s={stride} p={pad}");
            // the probe finds the rows of the matrix that hold a nonzero
            let nonzero: Vec<usize> = (0..taps)
                .filter(|&p| mat[p * cols..(p + 1) * cols].iter().any(|&v| v != 0.0))
                .collect();
            assert_eq!(g.probe(x.as_slice(), cols), nonzero, "{what}");
            let gathered: Vec<usize> = (0..taps).filter(|p| p % 3 != 1).collect();
            for (c0, nb) in
                [(0, cols), (NR.min(cols - 1), cols - NR.min(cols - 1)), (cols - 1, 1)]
            {
                let panels = nb.div_ceil(NR);
                for (p0, kb) in [(0, taps), (1, taps - 1)] {
                    let mut want = vec![f32::NAN; panels * kb * NR];
                    let mut got = vec![f32::NAN; panels * kb * NR];
                    let normal = BLayout::Normal;
                    pack_b_chunk(&mat, normal, taps, cols, p0, kb, c0, nb, &mut want);
                    pack_b_chunk(
                        x.as_slice(),
                        implicit,
                        taps,
                        cols,
                        p0,
                        kb,
                        c0,
                        nb,
                        &mut got,
                    );
                    assert_eq!(bits(&got), bits(&want), "{what} dense c0={c0} p0={p0}");
                    assert!(got.iter().all(|v| !v.is_nan()), "{what}");
                }
                let kb = gathered.len();
                let mut want = vec![f32::NAN; panels * kb * NR];
                let mut got = vec![f32::NAN; panels * kb * NR];
                pack_b_chunk_gather(
                    &mat,
                    BLayout::Normal,
                    taps,
                    cols,
                    &gathered,
                    c0,
                    nb,
                    &mut want,
                );
                pack_b_chunk_gather(
                    x.as_slice(),
                    implicit,
                    taps,
                    cols,
                    &gathered,
                    c0,
                    nb,
                    &mut got,
                );
                assert_eq!(bits(&got), bits(&want), "{what} gathered c0={c0}");
            }
        }
    }

    #[test]
    fn resident_conv_equals_the_per_image_gemm_bitwise_at_every_batch() {
        // per image: the materialized im2col times the weight on one
        // worker, plus bias — what the chunked lowering computed. B = 8
        // on a 12×12 map gives 1152 columns, crossing the NC block.
        let spec = ConvSpec::vgg3x3();
        let (c, kout, hw) = (5, 11, 12);
        let weight =
            Tensor::from_fn(&[kout, c, 3, 3], |i| ((i * 17) % 13) as f32 * 0.05 - 0.3);
        let bias = Tensor::from_fn(&[kout], |i| i as f32 * 0.1 - 0.4);
        let w_mat = weight.reshape(&[kout, c * 9]).unwrap();
        let resident = PrepackedA::from_weight(&weight).unwrap();
        let mut scratch = ConvScratch::new();
        for n in [1usize, 3, 8] {
            let input = activations(&[n, c, hw, hw]);
            let sites = hw * hw;
            let mut reference = Tensor::zeros(&[n, kout, hw, hw]);
            for ni in 0..n {
                let img = c * sites;
                let image = Tensor::from_vec(
                    input.as_slice()[ni * img..(ni + 1) * img].to_vec(),
                    &[c, hw, hw],
                )
                .unwrap();
                let cols = im2col(&image, &spec).unwrap();
                let mut gemm = Tensor::zeros(&[kout, sites]);
                crate::matmul_sparse_dispatch_into(
                    &w_mat,
                    &cols,
                    &mut gemm,
                    None,
                    SparseDispatch::DenseOnly,
                    1,
                )
                .unwrap();
                let dst =
                    &mut reference.as_mut_slice()[ni * kout * sites..][..kout * sites];
                for (ki, (d, g)) in dst
                    .chunks_exact_mut(sites)
                    .zip(gemm.as_slice().chunks_exact(sites))
                    .enumerate()
                {
                    for (d, &g) in d.iter_mut().zip(g) {
                        *d = g + bias.as_slice()[ki];
                    }
                }
            }
            let bitmap: Vec<bool> = (0..c).map(|ci| ci != 1).collect();
            for (chans, disp) in [
                (None, SparseDispatch::DenseOnly),
                (None, SparseDispatch::Auto),
                (Some(bitmap.as_slice()), SparseDispatch::Auto),
                (Some(bitmap.as_slice()), SparseDispatch::SparseOnly),
            ] {
                let (out, stats) = conv2d_sparse_prepacked_with_scratch(
                    &input,
                    &resident,
                    &bias,
                    &spec,
                    &mut scratch,
                    chans,
                    disp,
                )
                .unwrap();
                let what = format!("n={n} chans={} {disp:?}", chans.is_some());
                assert_eq!(bits(out.as_slice()), bits(reference.as_slice()), "{what}");
                assert_eq!(stats.k_total, c * 9, "{what}");
                if disp != SparseDispatch::DenseOnly {
                    assert_eq!(
                        stats.k_active,
                        (c - 1) * 9,
                        "{what}: channel 1 is all zero"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_matches_per_image_reference() {
        // Per-image reference backward: accumulate dW/db/dX image by image
        // with the public single-image lowering.
        let spec = ConvSpec::vgg3x3();
        let input = Tensor::from_fn(&[3, 2, 5, 5], |i| ((i * 7) % 9) as f32 * 0.1 - 0.4);
        let weight =
            Tensor::from_fn(&[4, 2, 3, 3], |i| ((i * 11) % 7) as f32 * 0.05 - 0.15);
        let gout = Tensor::from_fn(&[3, 4, 5, 5], |i| ((i * 13) % 5) as f32 * 0.2 - 0.4);
        let grads = conv2d_backward(&input, &weight, &gout, &spec).unwrap();

        let (n, c, h, w) = (3, 2, 5, 5);
        let (kout, sites) = (4, 25);
        let taps = c * 9;
        let w_mat = weight.reshape(&[kout, taps]).unwrap();
        let mut ref_gw = Tensor::zeros(&[kout, taps]);
        let mut ref_gb = vec![0.0f32; kout];
        let mut ref_gx = Tensor::zeros(&[n, c, h, w]);
        let img_len = c * h * w;
        for ni in 0..n {
            let image = Tensor::from_vec(
                input.as_slice()[ni * img_len..(ni + 1) * img_len].to_vec(),
                &[c, h, w],
            )
            .unwrap();
            let cols = im2col(&image, &spec).unwrap();
            let g = Tensor::from_vec(
                gout.as_slice()[ni * kout * sites..(ni + 1) * kout * sites].to_vec(),
                &[kout, sites],
            )
            .unwrap();
            let gw = crate::matmul_nt(&g, &cols).unwrap();
            ref_gw.add_assign(&gw).unwrap();
            for (ki, gb) in ref_gb.iter_mut().enumerate() {
                *gb += g.as_slice()[ki * sites..(ki + 1) * sites].iter().sum::<f32>();
            }
            let dcols = matmul_tn(&w_mat, &g).unwrap();
            let gimg = col2im(&dcols, c, h, w, &spec).unwrap();
            ref_gx.as_mut_slice()[ni * img_len..(ni + 1) * img_len]
                .copy_from_slice(gimg.as_slice());
        }
        for (x, y) in grads
            .grad_weight
            .as_slice()
            .iter()
            .zip(ref_gw.reshape(weight.dims()).unwrap().as_slice())
        {
            assert!((x - y).abs() < 1e-3, "dW {x} vs {y}");
        }
        for (x, y) in grads.grad_bias.as_slice().iter().zip(&ref_gb) {
            assert!((x - y).abs() < 1e-3, "db {x} vs {y}");
        }
        for (x, y) in grads.grad_input.as_slice().iter().zip(ref_gx.as_slice()) {
            assert!((x - y).abs() < 1e-3, "dX {x} vs {y}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y (adjointness), which
        // is exactly the property backprop relies on.
        let spec = ConvSpec::vgg3x3();
        let x = Tensor::from_fn(&[2, 5, 5], |i| ((i * 31) % 17) as f32 - 8.0);
        let cols_shape = [2 * 9, 25];
        let y = Tensor::from_fn(&cols_shape, |i| ((i * 13) % 7) as f32 - 3.0);
        let ix = im2col(&x, &spec).unwrap();
        let cy = col2im(&y, 2, 5, 5, &spec).unwrap();
        let lhs: f32 = ix.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(cy.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = ConvSpec::vgg3x3();
        let input = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 7) % 5) as f32 * 0.1 - 0.2);
        let weight = Tensor::from_fn(&[3, 2, 3, 3], |i| ((i * 11) % 9) as f32 * 0.05 - 0.2);
        let bias = Tensor::from_slice(&[0.1, -0.1, 0.0]);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        // loss = sum(out); grad_output = ones
        let gout = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &gout, &spec).unwrap();

        let eps = 1e-2f32;
        let loss = |inp: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(inp, w, b, &spec).unwrap().as_slice().iter().sum()
        };
        // spot-check a few weight coordinates
        for &idx in &[0usize, 10, 25, 53] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = grads.grad_weight.as_slice()[idx];
            assert!((num - ana).abs() < 0.05, "dW[{idx}]: {num} vs {ana}");
        }
        // spot-check input gradient
        for &idx in &[0usize, 7, 20, 31] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = grads.grad_input.as_slice()[idx];
            assert!((num - ana).abs() < 0.05, "dX[{idx}]: {num} vs {ana}");
        }
        // bias gradient of sum-loss is the number of output sites
        let sites = (out.len() / 3) as f32;
        for &g in grads.grad_bias.as_slice() {
            assert!((g - sites).abs() < 1e-2);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let spec = ConvSpec::vgg3x3();
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        let w_bad_cin = Tensor::zeros(&[4, 2, 3, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(conv2d(&x, &w_bad_cin, &b, &spec).is_err());
        let w = Tensor::zeros(&[4, 3, 3, 3]);
        let b_bad = Tensor::zeros(&[5]);
        assert!(conv2d(&x, &w, &b_bad, &spec).is_err());
        assert!(conv2d(&Tensor::zeros(&[3, 8, 8]), &w, &b, &spec).is_err());
    }
}
