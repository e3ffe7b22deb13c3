//! Brownout threshold ladders: graduated, pre-validated variants of a
//! task's threshold bank for overload control.
//!
//! MIME's premise — one resident weight set, tiny per-task threshold
//! banks — makes trading inference *effort* for quality nearly free:
//! scaling the eq.(2) thresholds up makes the `y - t >= 0` compare fail
//! for more neurons, so more channels zero out and the §9 sparse fast
//! path skips more GEMM rows. A [`BrownoutLadder`] freezes K such
//! variants per task at image-load time, each sharing the frozen
//! weights and prepacked panels with the original plan (rung 0, which
//! stays bit-identical to the unbrowned path), and validates every
//! higher rung once against the executor so its logit-rank degradation
//! is known and bounded before the serving fleet is allowed to use it.

use crate::{BoundNetwork, ComputePath, HardwareExecutor};
use mime_systolic::ArrayConfig;
use mime_tensor::{SparseDispatch, Tensor};

/// Knobs for [`BrownoutLadder::derive`].
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Total rung count *including* rung 0 (so `rungs = 4` yields the
    /// original plan plus three browned variants). Values below 1 are
    /// treated as 1.
    pub rungs: usize,
    /// Geometric threshold-scale base: rung `r > 0` scales thresholds
    /// by `base_factor^r` (defaults to 4.0 → factors 4, 16, 64, …).
    /// Doubling barely moves channel sparsity on the reference VGG
    /// fleets, so the default climbs steeply enough that the top rungs
    /// buy real latency; validation still truncates whatever the logit
    /// ranking cannot absorb.
    pub base_factor: f32,
    /// Validation bound: a rung is kept only if, across every probe
    /// input, rung 0's top-1 class stays within the first
    /// `max_rank_degradation + 1` entries of the rung's logit ranking
    /// (0 = the rung must preserve the top-1 class exactly). The ladder
    /// is truncated at the first rung that exceeds the bound.
    pub max_rank_degradation: usize,
    /// Number of deterministic probe inputs used for validation.
    pub probes: usize,
    /// Zero-gating flag forwarded to the validation executor (must
    /// match serving so validation sees the serving path).
    pub zero_skip: bool,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            rungs: 4,
            base_factor: 4.0,
            // Half the move to "bottom of the ranking": a browned rung
            // may demote the true class a little, never bury it.
            max_rank_degradation: 1,
            probes: 3,
            zero_skip: true,
        }
    }
}

/// Validation record for one ladder rung.
#[derive(Debug, Clone, Copy)]
pub struct RungInfo {
    /// Threshold scale factor applied to rung 0's banks.
    pub factor: f32,
    /// Worst observed rank (0 = still top-1) of rung 0's top-1 class in
    /// this rung's logits across the validation probes.
    pub worst_rank: usize,
}

/// K graduated threshold-set variants of one task plan, rung 0 first.
///
/// Rung 0 is a clone of the original plan — same tensors, same shared
/// [`Arc`](std::sync::Arc)-packed panels — so serving it is
/// bit-identical to serving the plan the ladder was derived from.
pub struct BrownoutLadder {
    rungs: Vec<BoundNetwork>,
    info: Vec<RungInfo>,
}

impl BrownoutLadder {
    /// Derives and validates a ladder for `plan`.
    ///
    /// Rungs whose probe validation exceeds
    /// [`LadderConfig::max_rank_degradation`] are dropped, along with
    /// every steeper rung after them (threshold scaling is monotone, so
    /// a failed rung can only get worse further up). A plan with no
    /// threshold banks at all yields a single-rung ladder — there is
    /// nothing to brown out.
    ///
    /// # Errors
    ///
    /// Propagates executor failures from the validation runs (e.g. a
    /// plan whose banks fail validation) — a ladder must never be
    /// derived from a plan that cannot serve.
    pub fn derive(
        plan: &BoundNetwork,
        hw: ArrayConfig,
        path: ComputePath,
        dispatch: SparseDispatch,
        cfg: &LadderConfig,
    ) -> crate::Result<BrownoutLadder> {
        let mut rungs = vec![plan.brownout_rung(1.0)];
        let mut info = vec![RungInfo { factor: 1.0, worst_rank: 0 }];
        let has_thresholds = plan
            .steps()
            .iter()
            .any(|s| matches!(s, crate::BoundLayer::Array { thresholds: Some(_), .. }));
        if !has_thresholds || cfg.rungs <= 1 {
            return Ok(BrownoutLadder { rungs, info });
        }

        let mut exec = HardwareExecutor::with_options(hw, path, dispatch);
        let probes: Vec<Tensor> = (0..cfg.probes.max(1))
            .map(|i| probe_input(plan.in_channels(), plan.input_hw(), i))
            .collect();
        let baseline_top1: Vec<usize> = probes
            .iter()
            .map(|img| {
                exec.run_image(plan, img, cfg.zero_skip).map(|logits| argmax(&logits))
            })
            .collect::<crate::Result<_>>()?;

        for r in 1..cfg.rungs {
            let factor = cfg.base_factor.powi(r as i32);
            let rung = plan.brownout_rung(factor);
            let mut worst_rank = 0usize;
            for (img, &want) in probes.iter().zip(&baseline_top1) {
                let logits = exec.run_image(&rung, img, cfg.zero_skip)?;
                worst_rank = worst_rank.max(rank_of(&logits, want));
            }
            if worst_rank > cfg.max_rank_degradation {
                mime_obs::info!(
                    "runtime.brownout",
                    "ladder truncated: rung exceeds rank bound",
                    rung = r,
                    factor = factor,
                    worst_rank = worst_rank,
                    bound = cfg.max_rank_degradation
                );
                break;
            }
            rungs.push(rung);
            info.push(RungInfo { factor, worst_rank });
        }
        Ok(BrownoutLadder { rungs, info })
    }

    /// Number of validated rungs (always ≥ 1; rung 0 always exists).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder has only rung 0 (nothing to brown out).
    pub fn is_empty(&self) -> bool {
        self.rungs.len() <= 1
    }

    /// The plan for `rung`, clamped to the deepest validated rung —
    /// a controller asking for a steeper rung than exists gets the
    /// steepest one, never a panic.
    pub fn plan(&self, rung: usize) -> &BoundNetwork {
        &self.rungs[rung.min(self.rungs.len() - 1)]
    }

    /// The effective (clamped) rung index [`Self::plan`] would serve.
    pub fn clamp(&self, rung: usize) -> usize {
        rung.min(self.rungs.len() - 1)
    }

    /// Per-rung validation records, rung 0 first.
    pub fn info(&self) -> &[RungInfo] {
        &self.info
    }
}

/// Derives one ladder per task plan (see [`BrownoutLadder::derive`]),
/// logging the validated depth per task.
///
/// # Errors
///
/// Fails on the first plan whose validation runs fail.
pub fn derive_ladders(
    plans: &[BoundNetwork],
    hw: ArrayConfig,
    path: ComputePath,
    dispatch: SparseDispatch,
    cfg: &LadderConfig,
) -> crate::Result<Vec<BrownoutLadder>> {
    let started = std::time::Instant::now();
    let ladders: Vec<BrownoutLadder> = plans
        .iter()
        .map(|p| BrownoutLadder::derive(p, hw, path, dispatch, cfg))
        .collect::<crate::Result<_>>()?;
    let reg = mime_obs::metrics::global();
    for (task, ladder) in ladders.iter().enumerate() {
        reg.gauge_with("mime_brownout_rungs", &[("task", &task.to_string())])
            .set(ladder.len() as f64);
        mime_obs::info!(
            "runtime.brownout",
            "brownout ladder derived",
            task = task,
            rungs = ladder.len()
        );
    }
    reg.gauge("mime_brownout_derive_ms").set(started.elapsed().as_secs_f64() * 1e3);
    Ok(ladders)
}

/// Deterministic validation probe shaped for the plan's input geometry.
/// Matches the serving probe generator when the plan takes `[3,32,32]`
/// inputs (the formula is shared by value, not by crate, to keep
/// `mime-runtime` independent of `mime-serve`).
fn probe_input(channels: usize, hw: usize, i: usize) -> Tensor {
    Tensor::from_fn(&[channels, hw, hw], move |j| (((j + i * 97) % 17) as f32 - 8.0) * 0.09)
}

fn argmax(logits: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

/// 0-based rank of `class` in `logits` sorted descending: the number of
/// classes with a strictly larger logit.
fn rank_of(logits: &[f32], class: usize) -> usize {
    let target = logits[class];
    logits.iter().filter(|&&v| v > target).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::MimeNetwork;
    use mime_nn::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_plan(threshold: f32) -> BoundNetwork {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let parent = build_network(&arch, &mut rng);
        let net = MimeNetwork::from_trained(&arch, &parent, threshold).unwrap();
        let mut plan = BoundNetwork::from_mime(&net).unwrap();
        crate::prepack_plans(std::slice::from_mut(&mut plan)).unwrap();
        plan
    }

    #[test]
    fn rung_zero_is_bit_identical_and_factors_monotone() {
        let plan = tiny_plan(0.02);
        let hw = ArrayConfig::default();
        let cfg = LadderConfig { max_rank_degradation: usize::MAX, ..Default::default() };
        let ladder = BrownoutLadder::derive(
            &plan,
            hw,
            ComputePath::Software,
            SparseDispatch::Auto,
            &cfg,
        )
        .unwrap();
        assert_eq!(ladder.len(), cfg.rungs, "rank bound disabled keeps every rung");

        let mut exec =
            HardwareExecutor::with_options(hw, ComputePath::Software, SparseDispatch::Auto);
        let img = probe_input(3, 32, 0);
        let want = exec.run_image(&plan, &img, true).unwrap();
        let got = exec.run_image(ladder.plan(0), &img, true).unwrap();
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "rung 0 must be bit-identical to the source plan"
        );

        for w in ladder.info().windows(2) {
            assert!(w[1].factor > w[0].factor, "factors strictly increase: {:?}", w);
        }
    }

    #[test]
    fn rank_bound_truncates_and_clamp_never_panics() {
        let plan = tiny_plan(0.02);
        let cfg = LadderConfig { rungs: 6, base_factor: 64.0, ..Default::default() };
        let ladder = BrownoutLadder::derive(
            &plan,
            ArrayConfig::default(),
            ComputePath::Software,
            SparseDispatch::Auto,
            &cfg,
        )
        .unwrap();
        // factor 64 on a bank that already zeroes channels at 1.0 wipes
        // nearly everything; every rung the validator kept must honor
        // the rank bound, however deep the ladder ends up.
        for (r, info) in ladder.info().iter().enumerate() {
            assert!(
                info.worst_rank <= cfg.max_rank_degradation || r == 0,
                "kept rung {r} violates the bound: {info:?}"
            );
        }
        // clamped access far beyond the ladder depth
        let deep = ladder.plan(200);
        assert_eq!(deep.classes(), plan.classes());
        assert_eq!(ladder.clamp(200), ladder.len() - 1);
    }

    #[test]
    fn stripped_plan_yields_single_rung_ladder() {
        let plan = tiny_plan(0.02).strip_thresholds();
        let ladder = BrownoutLadder::derive(
            &plan,
            ArrayConfig::default(),
            ComputePath::Software,
            SparseDispatch::Auto,
            &LadderConfig::default(),
        )
        .unwrap();
        assert!(ladder.is_empty(), "no thresholds → nothing to brown out");
        assert_eq!(ladder.len(), 1);
    }
}
