//! Kernel-level benchmark with a tracked baseline: GEMM, batched conv
//! lowering, the sparse dispatcher, the batched fused FC kernel and
//! resident conv weights at paper VGG16 geometries.
//!
//! Writes `BENCH_kernels.json` (median-of-k wall times + GFLOP/s) so
//! perf regressions show up in review; `scripts/bench.sh` runs it under
//! the repo's build flags. The scalar reference kernel
//! (`matmul_scalar_ref`) is timed as `scalar_native_ms` next to the
//! blocked/threaded kernels.
//!
//! Modes: default full; `--quick` fewer reps; `--smoke` tiny shapes for
//! CI gating (writes under `target/` so the tracked report is never
//! clobbered by a smoke run).
//!
//! Every median is also recorded as a `mime_bench_*_ms` gauge in the
//! `mime-obs` metrics registry, and the report embeds the registry
//! snapshot under a `"metrics"` key — the same series names a live
//! `--metrics-out` scrape would show, so dashboards and the JSON report
//! agree on naming. The instrumentation *hooks* stay disabled while
//! timing, so measured kernels run the one-atomic-load disabled path.

use mime_systolic::{vgg16_geometry_with, LayerGeometry};
use mime_tensor::{
    conv2d, matmul_fused_batch_into, matmul_fused_row_into, matmul_prepacked_a_into,
    matmul_scalar_ref, matmul_sparse_dispatch_into, threads, ConvSpec, FusedMask,
    PrepackedA, PrepackedB, SparseDispatch, Tensor,
};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Full,
    Quick,
    Smoke,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::Smoke => "smoke",
        }
    }

    fn reps(self) -> usize {
        match self {
            Mode::Full => 7,
            Mode::Quick => 5,
            Mode::Smoke => 3,
        }
    }
}

struct Args {
    mode: Mode,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { mode: Mode::Full, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.mode = Mode::Full,
            "--quick" => args.mode = Mode::Quick,
            "--smoke" => args.mode = Mode::Smoke,
            "--out" => args.out = it.next(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_kernels [--full|--quick|--smoke] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Median wall time of `reps` timed runs (after one warmup), in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Median of `reps` runs (after one warmup) of a call that times itself
/// and returns its ms — for calls that must do untimed work first.
fn median_of(reps: usize, f: &mut impl FnMut() -> f64) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..reps).map(|_| f()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The dense packed GEMM (both operands packed inside the call) at an
/// explicit worker count.
fn dense_into(a: &Tensor, b: &Tensor, c: &mut Tensor, threads: usize) {
    matmul_sparse_dispatch_into(a, b, c, None, SparseDispatch::DenseOnly, threads).unwrap();
}

fn fill(dims: &[usize], salt: usize) -> Tensor {
    Tensor::from_fn(dims, |i| (((i * 31 + salt * 7) % 23) as f32 - 11.0) * 0.043)
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

/// Per-element relative error `|a-b| / (1 + |ref|)` — the meaningful
/// tolerance for long fp32 dot products, whose absolute rounding scales
/// with the sum's magnitude (at `k` = 25088 the reference elements reach
/// the hundreds).
fn max_rel_diff(a: &Tensor, reference: &Tensor) -> f64 {
    a.as_slice()
        .iter()
        .zip(reference.as_slice())
        .map(|(x, y)| ((x - y).abs() / (1.0 + y.abs())) as f64)
        .fold(0.0, f64::max)
}

/// GEMM geometries: conv layers lower to `[K, C·R·S] × [C·R·S, Ho·Wo]`,
/// FC layers to `[K, C] × [C, 1]`.
fn gemm_cases(mode: Mode) -> Vec<(String, usize, usize, usize)> {
    if mode == Mode::Smoke {
        return vec![("tiny".into(), 8, 27, 16), ("tiny_edge".into(), 5, 13, 9)];
    }
    let picks: &[&str] = match mode {
        Mode::Full => &["conv2", "conv5", "conv8", "conv10", "conv13", "conv14"],
        _ => &["conv5", "conv10", "conv14"],
    };
    // the paper's full VGG16 geometry: 224×224 inputs
    vgg16_geometry_with(224, 4096, 1000)
        .into_iter()
        .filter(|g| picks.contains(&g.name.as_str()))
        .map(|g: LayerGeometry| (g.name.clone(), g.k, g.taps(), g.sites()))
        .collect()
}

struct GemmRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    macs: u64,
    scalar_native_ms: f64,
    dense_1t_ms: f64,
    dense_mt_ms: f64,
    pack_ms: f64,
    prepacked_1t_ms: f64,
    prepacked_max_abs_diff: f64,
    max_abs_diff: f64,
    max_rel_diff: f64,
}

fn bench_gemm(mode: Mode, threads_mt: usize) -> Vec<GemmRow> {
    let reps = mode.reps();
    gemm_cases(mode)
        .into_iter()
        .map(|(name, m, k, n)| {
            let a = fill(&[m, k], 1);
            let b = fill(&[k, n], 2);
            let reference = matmul_scalar_ref(&a, &b).unwrap();
            let scalar_native_ms = median_ms(reps, || {
                std::hint::black_box(matmul_scalar_ref(&a, &b).unwrap());
            });
            let mut c = Tensor::zeros(&[m, n]);
            let dense_1t_ms = median_ms(reps, || dense_into(&a, &b, &mut c, 1));
            let diff_1t = max_abs_diff(&c, &reference);
            let rel_1t = max_rel_diff(&c, &reference);
            // threads_mt == 1 (single-core host): the "mt" configuration
            // is the serial kernel; a second noisy sample of the same
            // code adds no information, so record the same measurement
            let dense_mt_ms = if threads_mt == 1 {
                dense_1t_ms
            } else {
                median_ms(reps, || dense_into(&a, &b, &mut c, threads_mt))
            };
            let diff = max_abs_diff(&c, &reference).max(diff_1t);
            let rel = max_rel_diff(&c, &reference).max(rel_1t);
            // prepacked suite: the weight operand the runtime keeps
            // resident is packed once per layer (timed separately as
            // pack_ms), and compute then reuses it. Conv rows pack the
            // A strips (`PrepackedA`). n == 1 rows are FC geometries: a
            // [k,1] B operand fills 1/NR of every microkernel tile, so
            // the resident path is the runtime's flipped fused-row
            // kernel (x_row · Wᵀ over panels packed from the weight),
            // bit-identical by FMA commutativity.
            let (pack_ms, prepacked_1t_ms, prepacked_diff) = if n == 1 {
                let pack_ms = median_ms(reps, || {
                    std::hint::black_box(
                        PrepackedB::from_weight_transposed(&a, k, m).unwrap(),
                    );
                });
                let pb = PrepackedB::from_weight_transposed(&a, k, m).unwrap();
                let bias = Tensor::zeros(&[m]);
                let mut cp = Tensor::zeros(&[m, n]);
                let mut activity = Vec::new();
                let prepacked_1t_ms = median_ms(reps, || {
                    matmul_fused_row_into(
                        &b,
                        &pb,
                        &bias,
                        FusedMask::None,
                        None,
                        SparseDispatch::DenseOnly,
                        &mut cp,
                        &mut activity,
                        1,
                    )
                    .unwrap();
                });
                // gate vs the blocked dense kernel's output (rerun at 1t
                // so c holds the single-thread result, not the mt one)
                dense_into(&a, &b, &mut c, 1);
                (pack_ms, prepacked_1t_ms, max_abs_diff(&cp, &c))
            } else {
                let pack_ms = median_ms(reps, || {
                    std::hint::black_box(PrepackedA::from_weight(&a).unwrap());
                });
                let pa = PrepackedA::from_weight(&a).unwrap();
                let mut cp = Tensor::zeros(&[m, n]);
                let prepacked_1t_ms = median_ms(reps, || {
                    matmul_prepacked_a_into(&pa, &b, &mut cp, None, SparseDispatch::DenseOnly, 1)
                        .unwrap();
                });
                dense_into(&a, &b, &mut c, 1);
                (pack_ms, prepacked_1t_ms, max_abs_diff(&cp, &c))
            };
            let macs = (m * k * n) as u64;
            println!(
                "gemm {name:>9} m={m:<5} k={k:<5} n={n:<5} scalar {scalar_native_ms:8.2} ms  \
                 1t {dense_1t_ms:8.2} ms  {threads_mt}t {dense_mt_ms:8.2} ms  \
                 pack {pack_ms:7.2} ms  prepacked 1t {prepacked_1t_ms:8.2} ms  \
                 rel {rel:.2e}"
            );
            let reg = mime_obs::metrics::global();
            for (kernel, ms) in [
                ("scalar_native", scalar_native_ms),
                ("dense_1t", dense_1t_ms),
                ("dense_mt", dense_mt_ms),
                ("pack", pack_ms),
                ("prepacked_1t", prepacked_1t_ms),
            ] {
                reg.gauge_with("mime_bench_gemm_ms", &[("case", &name), ("kernel", kernel)])
                    .set(ms);
            }
            GemmRow {
                name,
                m,
                k,
                n,
                macs,
                scalar_native_ms,
                dense_1t_ms,
                dense_mt_ms,
                pack_ms,
                prepacked_1t_ms,
                prepacked_max_abs_diff: prepacked_diff,
                max_abs_diff: diff,
                max_rel_diff: rel,
            }
        })
        .collect()
}

struct ConvRow {
    name: String,
    images: usize,
    c: usize,
    k: usize,
    hw: usize,
    per_image_ms: f64,
    batched_ms: f64,
    max_abs_diff: f64,
}

fn conv_cases(mode: Mode) -> Vec<(String, usize, usize, usize, usize)> {
    match mode {
        Mode::Full => vec![
            ("conv_64c_32hw".into(), 8, 64, 64, 32),
            ("conv_128c_16hw".into(), 8, 128, 128, 16),
            ("conv_256c_8hw".into(), 8, 256, 256, 8),
        ],
        Mode::Quick => vec![("conv_256c_8hw".into(), 4, 256, 256, 8)],
        Mode::Smoke => vec![("conv_tiny".into(), 2, 3, 4, 8)],
    }
}

fn bench_conv(mode: Mode) -> Vec<ConvRow> {
    let reps = mode.reps();
    conv_cases(mode)
        .into_iter()
        .map(|(name, images, c, k, hw)| {
            let spec = ConvSpec::vgg3x3();
            let x = fill(&[images, c, hw, hw], 3);
            let w = fill(&[k, c, 3, 3], 4);
            let bias = fill(&[k], 5);
            let singles: Vec<Tensor> = (0..images)
                .map(|i| {
                    let lo = i * c * hw * hw;
                    Tensor::from_vec(
                        x.as_slice()[lo..lo + c * hw * hw].to_vec(),
                        &[1, c, hw, hw],
                    )
                    .unwrap()
                })
                .collect();
            let per_image_ms = median_ms(reps, || {
                for s in &singles {
                    std::hint::black_box(conv2d(s, &w, &bias, &spec).unwrap());
                }
            });
            let batched_ms = median_ms(reps, || {
                std::hint::black_box(conv2d(&x, &w, &bias, &spec).unwrap());
            });
            // equality: batched output vs per-image outputs concatenated
            let batched = conv2d(&x, &w, &bias, &spec).unwrap();
            let mut concat = Vec::with_capacity(batched.len());
            for s in &singles {
                concat.extend_from_slice(conv2d(s, &w, &bias, &spec).unwrap().as_slice());
            }
            let reference = Tensor::from_vec(concat, batched.dims()).unwrap();
            let diff = max_abs_diff(&batched, &reference);
            println!(
                "conv {name:>14} n={images} c={c:<4} k={k:<4} hw={hw:<3} \
                 per-image {per_image_ms:8.2} ms  batched {batched_ms:8.2} ms  |Δ|max {diff:.2e}"
            );
            let reg = mime_obs::metrics::global();
            for (kernel, ms) in [("per_image", per_image_ms), ("batched", batched_ms)] {
                reg.gauge_with("mime_bench_conv_ms", &[("case", &name), ("kernel", kernel)])
                    .set(ms);
            }
            ConvRow { name, images, c, k, hw, per_image_ms, batched_ms, max_abs_diff: diff }
        })
        .collect()
}

struct SparseRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    sparsity_pct: usize,
    rows_skipped: usize,
    used_sparse: bool,
    dense_1t_ms: f64,
    sparse_1t_ms: f64,
    max_abs_diff: f64,
}

/// Shapes for the sparse suite: VGG16-224 conv lowerings, same mapping
/// as [`gemm_cases`]. A smaller pick list — each shape runs at four
/// sparsity levels.
fn sparse_cases(mode: Mode) -> Vec<(String, usize, usize, usize)> {
    if mode == Mode::Smoke {
        return vec![("tiny".into(), 8, 40, 16)];
    }
    let picks: &[&str] = match mode {
        Mode::Full => &["conv2", "conv8", "conv13"],
        _ => &["conv8"],
    };
    vgg16_geometry_with(224, 4096, 1000)
        .into_iter()
        .filter(|g| picks.contains(&g.name.as_str()))
        .map(|g: LayerGeometry| (g.name.clone(), g.k, g.taps(), g.sites()))
        .collect()
}

/// Sparse GEMM dispatch vs the dense packed kernel at MIME-like
/// activation sparsity: an exact fraction of B's k-rows is zeroed (the
/// axis the dispatcher compacts), both kernels run single-threaded, and
/// `main` gates the diff at exactly zero — row compaction reorders no
/// arithmetic, so any nonzero diff is a dispatch bug, not rounding.
fn bench_sparse(mode: Mode) -> Vec<SparseRow> {
    let reps = mode.reps();
    let mut rows = Vec::new();
    for (name, m, k, n) in sparse_cases(mode) {
        let a = fill(&[m, k], 6);
        for pct in [25usize, 50, 75, 90] {
            // exact-proportion mask: pct/5 of every 20 k-rows zeroed
            let mut b = fill(&[k, n], 7);
            for i in 0..k {
                if (i % 20) < pct / 5 {
                    b.as_mut_slice()[i * n..(i + 1) * n].fill(0.0);
                }
            }
            let mut c = Tensor::zeros(&[m, n]);
            let dense_1t_ms = median_ms(reps, || dense_into(&a, &b, &mut c, 1));
            let mut c2 = Tensor::zeros(&[m, n]);
            let mut stats = None;
            let sparse_1t_ms = median_ms(reps, || {
                stats = Some(
                    matmul_sparse_dispatch_into(
                        &a,
                        &b,
                        &mut c2,
                        None,
                        SparseDispatch::Auto,
                        1,
                    )
                    .unwrap(),
                );
            });
            let stats = stats.unwrap();
            let diff = max_abs_diff(&c2, &c);
            println!(
                "sparse {name:>7}@{pct:<2}% m={m:<5} k={k:<5} n={n:<5} \
                 dense 1t {dense_1t_ms:8.2} ms  sparse 1t {sparse_1t_ms:8.2} ms  \
                 x{:.2}  skipped {}/{}  |Δ|max {diff:.1e}",
                dense_1t_ms / sparse_1t_ms,
                stats.rows_skipped(),
                stats.k_total,
            );
            let reg = mime_obs::metrics::global();
            let pct_s = pct.to_string();
            for (kernel, ms) in [("dense_1t", dense_1t_ms), ("sparse_1t", sparse_1t_ms)] {
                reg.gauge_with(
                    "mime_bench_sparse_ms",
                    &[
                        ("case", name.as_str()),
                        ("kernel", kernel),
                        ("sparsity_pct", &pct_s),
                    ],
                )
                .set(ms);
            }
            rows.push(SparseRow {
                name: name.clone(),
                m,
                k,
                n,
                sparsity_pct: pct,
                rows_skipped: stats.rows_skipped(),
                used_sparse: stats.used_sparse,
                dense_1t_ms,
                sparse_1t_ms,
                max_abs_diff: diff,
            });
        }
    }
    rows
}

struct FusedBatchRow {
    name: String,
    k: usize,
    n: usize,
    batch: usize,
    threads: usize,
    active_pct: f64,
    batch_ms: f64,
    single_ms: f64,
    bits_equal: bool,
    bitmaps_equal: bool,
    max_abs_diff: f64,
}

/// CIFAR VGG16 FC layers `(name, k, n, B)` for the fused-batch suite: the
/// shapes the perfbench ledger names, at the Pipelined batch of 8 and, for
/// fc15, at batch 1.
fn fused_batch_cases(mode: Mode) -> Vec<(String, usize, usize, usize)> {
    if mode == Mode::Smoke {
        // a full tile plus a lone sample, three KC windows, a ragged panel
        return vec![("tiny_batch".into(), 900, 75, 9)];
    }
    vec![
        ("fc15_b1".into(), 4096, 4096, 1),
        ("fc15_b8".into(), 4096, 4096, 8),
        ("fc14_b8".into(), 512, 4096, 8),
        ("fc16_b8".into(), 4096, 10, 8),
    ]
}

/// A buffer larger than the host's last-level cache, read in full before
/// every timed call of the fused-batch suite, so each call streams its
/// weight panels from DRAM as it does between the other layers of a
/// forward pass (fc15's 64 MB of panels would otherwise stay cached).
struct Sweep(Vec<u64>);

impl Sweep {
    fn new(mode: Mode) -> Self {
        let bytes = if mode == Mode::Smoke { 1 << 16 } else { 192 << 20 };
        Sweep(vec![1; bytes / 8])
    }

    fn run(&self) {
        std::hint::black_box(self.0.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    }
}

/// The Pipelined FC step as the executor runs it: one
/// `matmul_fused_batch_into` call over `B` samples, with two tasks'
/// threshold banks in turn and a given activity list per sample (~37 %
/// of rows, drawn per sample), against the same samples as `B` separate
/// `matmul_fused_row_into` calls, at the runtime worker count, with the
/// caches swept before every call. `single_ms` is the mean single call,
/// so `batch_ms / single_ms` is ~1 when the panels stream once per batch
/// and ~`B` when every sample streams them again. `main` gates the batch
/// outputs and bitmaps bit-identical to the single calls'.
fn bench_fused_batch(mode: Mode) -> Vec<FusedBatchRow> {
    let reps = mode.reps();
    let threads = threads::worker_count();
    let sweep = Sweep::new(mode);
    fused_batch_cases(mode)
        .into_iter()
        .map(|(name, k, n, b)| {
            let w = fill(&[n, k], 13);
            let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
            let bias = fill(&[n], 14);
            let banks: Vec<Tensor> = (0..2)
                .map(|t| Tensor::from_fn(&[n], |j| ((j * 7 + t * 5) % 17) as f32 * 0.05 - 0.2))
                .collect();
            let masks: Vec<FusedMask> =
                (0..b).map(|s| FusedMask::Thresholds(banks[s % 2].as_slice())).collect();
            let lists: Vec<Vec<bool>> = (0..b)
                .map(|s| (0..k).map(|p| (p * 2654435761 + s * 40503) % 1000 < 370).collect())
                .collect();
            let mut xs = fill(&[b, k], 15);
            for (x, list) in xs.as_mut_slice().chunks_exact_mut(k).zip(&lists) {
                for (v, &on) in x.iter_mut().zip(list) {
                    if !on {
                        *v = 0.0;
                    }
                }
            }
            let actives: Vec<Option<&[bool]>> = lists.iter().map(|l| Some(&l[..])).collect();
            let active_pct = 100.0 * lists.iter().flatten().filter(|&&a| a).count() as f64
                / (b * k) as f64;
            let mut y = Tensor::zeros(&[b, n]);
            let mut activity = Vec::new();
            let mut batch_call = || {
                sweep.run();
                let t = Instant::now();
                matmul_fused_batch_into(
                    &xs,
                    &pb,
                    &bias,
                    &masks,
                    &actives,
                    SparseDispatch::Auto,
                    &mut y,
                    &mut activity,
                    threads,
                )
                .unwrap();
                t.elapsed().as_secs_f64() * 1e3
            };
            let batch_ms = median_of(reps, &mut batch_call);
            let singles: Vec<Tensor> = (0..b)
                .map(|s| Tensor::from_vec(xs.as_slice()[s * k..][..k].to_vec(), &[k]).unwrap())
                .collect();
            let mut y1 = Tensor::zeros(&[b, n]);
            let mut activity1 = vec![false; b * n];
            let mut single_calls = || {
                let mut ms = 0.0;
                for (s, x) in singles.iter().enumerate() {
                    let mut out = Tensor::zeros(&[n]);
                    let mut act = Vec::new();
                    sweep.run();
                    let t = Instant::now();
                    matmul_fused_row_into(
                        x,
                        &pb,
                        &bias,
                        masks[s],
                        actives[s],
                        SparseDispatch::Auto,
                        &mut out,
                        &mut act,
                        threads,
                    )
                    .unwrap();
                    ms += t.elapsed().as_secs_f64() * 1e3;
                    y1.as_mut_slice()[s * n..][..n].copy_from_slice(out.as_slice());
                    activity1[s * n..][..n].copy_from_slice(&act);
                }
                ms / b as f64
            };
            let single_ms = median_of(reps, &mut single_calls);
            let max_abs_diff = max_abs_diff(&y, &y1);
            let bits_equal =
                y.as_slice().iter().zip(y1.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
            let bitmaps_equal = activity == activity1;
            println!(
                "fused_batch {name:>8} k={k:<5} n={n:<5} B={b} threads={threads} \
                 active {active_pct:4.1}%  batch {batch_ms:8.3} ms  single {single_ms:8.3} ms  \
                 batch/single {:.2}  |Δ|max {max_abs_diff:.1e}  bits_equal={bits_equal}  \
                 bitmaps_equal={bitmaps_equal}",
                batch_ms / single_ms,
            );
            let reg = mime_obs::metrics::global();
            for (kernel, ms) in [("batch", batch_ms), ("single", single_ms)] {
                reg.gauge_with("mime_bench_fused_batch_ms", &[("case", &name), ("kernel", kernel)])
                    .set(ms);
            }
            FusedBatchRow {
                name,
                k,
                n,
                batch: b,
                threads,
                active_pct,
                batch_ms,
                single_ms,
                bits_equal,
                bitmaps_equal,
                max_abs_diff,
            }
        })
        .collect()
}

struct ResidentRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    active_rows: usize,
    raw_dense_ms: f64,
    resident_dense_ms: f64,
    raw_sparse_ms: f64,
    resident_sparse_ms: f64,
    max_abs_diff: f64,
}

/// CIFAR VGG16 conv GEMMs `[K, C·9] × [C·9, n]` for the resident-weight
/// suite, `n` being the layer's sites at batch 1 (`_b1`) and at a
/// pipelined batch of 8 (`_b8`). conv4 is the control: its 256 columns
/// give the per-call strip gather the most work to amortize over, so it
/// was expected not to move. It still gains, because it runs the column
/// split, where every worker gathers the strips of all 128 rows.
fn resident_cases(mode: Mode) -> Vec<(String, usize, usize, usize)> {
    if mode == Mode::Smoke {
        return vec![
            ("tiny_resident".into(), 13, 900, 4),
            ("tiny_resident_wide".into(), 9, 400, 40),
        ];
    }
    vec![
        ("conv4_b1".into(), 128, 1152, 256),
        ("conv9_b1".into(), 512, 4608, 16),
        ("conv9_b8".into(), 512, 4608, 128),
        ("conv11_b1".into(), 512, 4608, 4),
        ("conv11_b8".into(), 512, 4608, 32),
    ]
}

/// Conv weights as the runtime runs them: the raw `[K, C·9]` matrix,
/// re-gathered into `MR`-row strips inside every call, vs the same strips
/// packed once (`PrepackedA`). Both run at the runtime's worker count,
/// dense and with a caller-given activity list (every fourth 9-row channel
/// group zeroed: 75 % active, under the `SPARSE_ACTIVE_MAX` crossover, so
/// the compacting path runs). `main` gates the resident outputs
/// bit-identical to the raw ones (`max_abs_diff == 0`).
fn bench_resident(mode: Mode) -> Vec<ResidentRow> {
    let reps = mode.reps();
    let threads = threads::worker_count();
    resident_cases(mode)
        .into_iter()
        .map(|(name, m, k, n)| {
            let a = fill(&[m, k], 11);
            let pa = PrepackedA::from_weight(&a).unwrap();
            let mut b = fill(&[k, n], 12);
            let mut rows = Vec::new();
            for p in 0..k {
                if (p / 9) % 4 == 3 {
                    b.as_mut_slice()[p * n..(p + 1) * n].fill(0.0);
                } else {
                    rows.push(p);
                }
            }
            let mut raw = Tensor::zeros(&[m, n]);
            let mut res = Tensor::zeros(&[m, n]);
            let raw_dense_ms = median_ms(reps, || dense_into(&a, &b, &mut raw, threads));
            let resident_dense_ms = median_ms(reps, || {
                matmul_prepacked_a_into(&pa, &b, &mut res, None, SparseDispatch::DenseOnly, threads)
                    .unwrap();
            });
            let mut diff = max_abs_diff(&res, &raw);
            let raw_sparse_ms = median_ms(reps, || {
                matmul_sparse_dispatch_into(
                    &a,
                    &b,
                    &mut raw,
                    Some(&rows),
                    SparseDispatch::Auto,
                    threads,
                )
                .unwrap();
            });
            let resident_sparse_ms = median_ms(reps, || {
                matmul_prepacked_a_into(
                    &pa,
                    &b,
                    &mut res,
                    Some(&rows),
                    SparseDispatch::Auto,
                    threads,
                )
                .unwrap();
            });
            diff = diff.max(max_abs_diff(&res, &raw));
            println!(
                "resident {name:>18} m={m:<4} k={k:<5} n={n:<4} dense raw {raw_dense_ms:7.3} ms  \
                 resident {resident_dense_ms:7.3} ms  x{:.2}  sparse raw {raw_sparse_ms:7.3} ms  \
                 resident {resident_sparse_ms:7.3} ms  x{:.2}  |Δ|max {diff:.1e}",
                raw_dense_ms / resident_dense_ms,
                raw_sparse_ms / resident_sparse_ms,
            );
            let reg = mime_obs::metrics::global();
            for (kernel, ms) in [
                ("raw_dense", raw_dense_ms),
                ("resident_dense", resident_dense_ms),
                ("raw_sparse", raw_sparse_ms),
                ("resident_sparse", resident_sparse_ms),
            ] {
                reg.gauge_with("mime_bench_resident_ms", &[("case", &name), ("kernel", kernel)])
                    .set(ms);
            }
            ResidentRow {
                name,
                m,
                k,
                n,
                threads,
                active_rows: rows.len(),
                raw_dense_ms,
                resident_dense_ms,
                raw_sparse_ms,
                resident_sparse_ms,
                max_abs_diff: diff,
            }
        })
        .collect()
}

fn gflops(macs: u64, ms: f64) -> f64 {
    // 2 FLOPs per MAC
    (2 * macs) as f64 / (ms * 1e-3) / 1e9
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

#[allow(clippy::too_many_arguments)] // one row-set per report section
fn write_report(
    out: &str,
    mode: Mode,
    threads_mt: usize,
    gemm: &[GemmRow],
    conv: &[ConvRow],
    sparse: &[SparseRow],
    fused_batch: &[FusedBatchRow],
    resident: &[ResidentRow],
) {
    let mut s = String::new();
    s.push_str("{\n");
    // v5 = v4 minus the pre-PR scalar baseline (scalar_prepr_ms,
    // speedup_mt_vs_prepr_scalar), with b_pack_ms renamed pack_ms and
    // the conv rows' prepacked columns timing the resident A strips;
    // v6 = v5 plus the fused_batch section; v7 = v6 minus the fused
    // section (its fused leg is the kernel fused_batch's single rows time)
    s.push_str("  \"schema\": \"mime-bench-kernels/v7\",\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", mode.name()));
    s.push_str(&format!("  \"threads_mt\": {threads_mt},\n"));
    s.push_str(
        "  \"notes\": \"scalar_native_ms: the scalar reference kernel (matmul_scalar_ref) \
         under this repo's native flags; the pre-PR scalar baseline at its shipped codegen \
         (scalar_prepr_ms, a second RUSTFLAGS= build) is retired, its last measured values \
         (v4 quick run) being conv5 193.41 ms, conv10 385.09 ms, conv14 428.89 ms; times \
         are median-of-k wall clock; threads_mt is clamped to the host's available \
         parallelism (when it clamps to 1 the mt configuration is the serial kernel and \
         dense_mt_ms records the dense_1t_ms measurement); dense_1t_ms/dense_mt_ms pack \
         both operands inside every call (the raw-weight form); pack_ms is the one-time \
         cost of packing the weight operand the runtime keeps resident and \
         prepacked_1t_ms the single-thread compute over it, gated bit-identical: conv \
         rows pack the A strips (PrepackedA::from_weight) and run matmul_prepacked_a_into \
         dense, n==1 rows pack FC panels (PrepackedB::from_weight_transposed) and run the \
         runtime's flipped fused-row kernel (x_row x W^T); up to v4 the conv rows' \
         b_pack_ms/prepacked_1t_ms packed the im2col B side, which the runtime never \
         keeps resident, so those conv-row columns do not compare across v4 and v5; \
         sparse: dispatcher vs dense packed kernel, single-threaded, gated \
         bit-identical; fused_batch: CIFAR VGG16 \
         FC layers, one matmul_fused_batch_into call over B samples (two tasks' threshold \
         banks in turn, a given ~37% activity list per sample) vs the same samples as B \
         matmul_fused_row_into calls, at the runtime worker count, with a 192 MiB buffer \
         read before every call so the panels stream from DRAM; single_ms is the mean \
         single call, so batch_per_single is ~1 when the panels stream once per batch and \
         ~B when every sample streams them again; gated bitwise equal with equal \
         bitmaps; resident: CIFAR VGG16 \
         conv GEMMs with the raw weight (A strips re-gathered every call) vs A strips \
         packed once (PrepackedA), both at the runtime worker count, dense and with a \
         given 75%-active row list, gated bit-identical; host drift: each report is one \
         run on a shared 2-vCPU host whose speed moves by up to 1.5x between runs, so \
         compare rows across reports only through back-to-back runs; v4 to v5: the \
         rows that moved by more than 10% with unchanged code — all eight sparse rows \
         (1.3-1.6x slower), fused conv14 unfused_1t (1.30x), gemm conv5 and conv10 \
         dense_1t, dense_mt and conv10 scalar_native (0.60-1.20x), gemm conv14 \
         prepacked_1t (1.17x) and nine resident rows (0.70-1.12x) — moved by host drift \
         alone: three alternating pairs of the v4 and v5 binaries on one host gave \
         medians (v4 vs v5) of conv8 sparse_1t 12.53 vs 12.59 ms at 50% and 4.39 vs \
         4.70 ms at 90%, conv8 dense_1t 22.41 vs 24.33 ms at 50%, conv14 prepacked_1t \
         41.5 vs 45.4 ms, conv9_b8 resident_dense 5.76 vs 4.69 ms, with both binaries \
         spreading as widely between their own runs (conv14 scalar_native 296-518 ms)\",\n",
    );
    s.push_str("  \"gemm\": [\n");
    for (i, r) in gemm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"macs\": {},\n",
            r.name, r.m, r.k, r.n, r.macs
        ));
        s.push_str(&format!(
            "     \"scalar_native_ms\": {}, \"dense_1t_ms\": {}, \"dense_mt_ms\": {},\n",
            json_f(r.scalar_native_ms),
            json_f(r.dense_1t_ms),
            json_f(r.dense_mt_ms)
        ));
        s.push_str(&format!(
            "     \"dense_1t_gflops\": {}, \"dense_mt_gflops\": {},\n",
            json_f(gflops(r.macs, r.dense_1t_ms)),
            json_f(gflops(r.macs, r.dense_mt_ms))
        ));
        s.push_str(&format!(
            "     \"pack_ms\": {}, \"prepacked_1t_ms\": {}, \"prepacked_1t_gflops\": {},\n",
            json_f(r.pack_ms),
            json_f(r.prepacked_1t_ms),
            json_f(gflops(r.macs, r.prepacked_1t_ms))
        ));
        s.push_str(&format!(
            "     \"speedup_prepacked_vs_dense_1t\": {}, \"prepacked_max_abs_diff\": {:.3e},\n",
            json_f(r.dense_1t_ms / r.prepacked_1t_ms),
            r.prepacked_max_abs_diff
        ));
        s.push_str(&format!(
            "     \"speedup_mt_vs_native_scalar\": {}, \
             \"max_abs_diff\": {:.3e}, \"max_rel_diff\": {:.3e}}}{}\n",
            json_f(r.scalar_native_ms / r.dense_mt_ms),
            r.max_abs_diff,
            r.max_rel_diff,
            if i + 1 < gemm.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"conv\": [\n");
    for (i, r) in conv.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"images\": {}, \"c\": {}, \"k\": {}, \"hw\": {}, \
             \"per_image_ms\": {}, \"batched_ms\": {}, \"speedup_batched\": {}, \
             \"max_abs_diff\": {:.3e}}}{}\n",
            r.name,
            r.images,
            r.c,
            r.k,
            r.hw,
            json_f(r.per_image_ms),
            json_f(r.batched_ms),
            json_f(r.per_image_ms / r.batched_ms),
            r.max_abs_diff,
            if i + 1 < conv.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sparse\": [\n");
    for (i, r) in sparse.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"sparsity_pct\": {}, \"rows_skipped\": {}, \"used_sparse\": {},\n",
            r.name, r.m, r.k, r.n, r.sparsity_pct, r.rows_skipped, r.used_sparse
        ));
        s.push_str(&format!(
            "     \"dense_1t_ms\": {}, \"sparse_1t_ms\": {}, \"speedup_sparse\": {}, \
             \"max_abs_diff\": {:.3e}}}{}\n",
            json_f(r.dense_1t_ms),
            json_f(r.sparse_1t_ms),
            json_f(r.dense_1t_ms / r.sparse_1t_ms),
            r.max_abs_diff,
            if i + 1 < sparse.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"fused_batch\": [\n");
    for (i, r) in fused_batch.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"k\": {}, \"n\": {}, \"batch\": {}, \"threads\": {}, \
             \"active_pct\": {},\n",
            r.name,
            r.k,
            r.n,
            r.batch,
            r.threads,
            json_f(r.active_pct)
        ));
        s.push_str(&format!(
            "     \"batch_ms\": {}, \"single_ms\": {}, \"batch_per_single\": {}, \
             \"bits_equal\": {}, \"bitmaps_equal\": {}, \"max_abs_diff\": {:.3e}}}{}\n",
            json_f(r.batch_ms),
            json_f(r.single_ms),
            json_f(r.batch_ms / r.single_ms),
            r.bits_equal,
            r.bitmaps_equal,
            r.max_abs_diff,
            if i + 1 < fused_batch.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"resident\": [\n");
    for (i, r) in resident.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"threads\": {}, \
             \"active_rows\": {},\n",
            r.name, r.m, r.k, r.n, r.threads, r.active_rows
        ));
        s.push_str(&format!(
            "     \"raw_dense_ms\": {}, \"resident_dense_ms\": {}, \"speedup_dense\": {},\n",
            json_f(r.raw_dense_ms),
            json_f(r.resident_dense_ms),
            json_f(r.raw_dense_ms / r.resident_dense_ms)
        ));
        s.push_str(&format!(
            "     \"raw_sparse_ms\": {}, \"resident_sparse_ms\": {}, \"speedup_sparse\": {}, \
             \"max_abs_diff\": {:.3e}}}{}\n",
            json_f(r.raw_sparse_ms),
            json_f(r.resident_sparse_ms),
            json_f(r.raw_sparse_ms / r.resident_sparse_ms),
            r.max_abs_diff,
            if i + 1 < resident.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    // The same series a live `--metrics-out` scrape would expose,
    // snapshotted from the mime-obs registry the benches record into.
    s.push_str("  \"metrics\": ");
    s.push_str(mime_obs::metrics::global().render_json().trim_end());
    s.push_str("\n}\n");
    std::fs::write(out, s).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

fn main() {
    let args = parse_args();
    // a smoke run must never clobber the tracked report
    let default_out = if args.mode == Mode::Smoke {
        "target/BENCH_kernels_smoke.json"
    } else {
        "BENCH_kernels.json"
    };
    let out = args.out.as_deref().unwrap_or(default_out);
    // at least 4 workers when the hardware can run them, but never more
    // workers than cores — oversubscribed threads only time-slice and
    // thrash cache, which would measure the scheduler, not the kernels
    let threads_mt = threads::worker_count().max(4).min(threads::hardware_cap());
    let gemm = bench_gemm(args.mode, threads_mt);
    let conv = bench_conv(args.mode);
    let sparse = bench_sparse(args.mode);
    let fused_batch = bench_fused_batch(args.mode);
    let resident = bench_resident(args.mode);
    write_report(
        out,
        args.mode,
        threads_mt,
        &gemm,
        &conv,
        &sparse,
        &fused_batch,
        &resident,
    );
    for r in &gemm {
        if r.max_rel_diff > 1e-3 {
            eprintln!(
                "FAIL: gemm {} drifted {:.3e} (relative) from scalar reference",
                r.name, r.max_rel_diff
            );
            std::process::exit(1);
        }
    }
    for r in &sparse {
        if r.max_abs_diff != 0.0 {
            eprintln!(
                "FAIL: sparse gemm {}@{}% differs from dense by {:.3e} (must be bit-identical)",
                r.name, r.sparsity_pct, r.max_abs_diff
            );
            std::process::exit(1);
        }
    }
    for r in &gemm {
        if r.prepacked_max_abs_diff != 0.0 {
            eprintln!(
                "FAIL: prepacked gemm {} differs from dense by {:.3e} (must be bit-identical)",
                r.name, r.prepacked_max_abs_diff
            );
            std::process::exit(1);
        }
    }
    for r in &resident {
        if r.max_abs_diff != 0.0 {
            eprintln!(
                "FAIL: resident-weight gemm {} differs from the raw-weight call by {:.3e} \
                 (must be bit-identical)",
                r.name, r.max_abs_diff
            );
            std::process::exit(1);
        }
    }
    for r in &fused_batch {
        if r.max_abs_diff != 0.0 || !r.bits_equal || !r.bitmaps_equal {
            eprintln!(
                "FAIL: fused batch {} diverges from its per-sample single calls \
                 (|Δ|max {:.3e}, bits_equal={}, bitmaps_equal={})",
                r.name, r.max_abs_diff, r.bits_equal, r.bitmaps_equal
            );
            std::process::exit(1);
        }
    }
}
