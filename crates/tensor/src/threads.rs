//! Worker-count policy for the threaded kernels.
//!
//! Every threaded kernel in this crate (and the parallel batch executor
//! in `mime-runtime`) sizes its worker pool through [`worker_count`]:
//! the `MIME_THREADS` environment variable when set to a positive
//! integer, otherwise the machine's available parallelism. The inference
//! GEMM entry points also take an explicit `threads` argument, so
//! callers, tests and benchmarks can pin a worker count without
//! touching the process environment.

/// Upper bound on workers a kernel will spawn, regardless of
/// `MIME_THREADS`. Guards against pathological env values; far above
/// any useful count for the row-range splits used here.
pub const MAX_THREADS: usize = 256;

/// The number of kernel workers to use by default: `MIME_THREADS` if it
/// parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when unknown). Clamped to
/// [`MAX_THREADS`].
pub fn worker_count() -> usize {
    worker_count_from(std::env::var("MIME_THREADS").ok().as_deref())
}

/// [`worker_count`] with the environment value passed explicitly
/// (pure; used directly by tests to avoid mutating the process env).
pub fn worker_count_from(env: Option<&str>) -> usize {
    let parsed = env.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&t| t > 0);
    parsed.unwrap_or_else(available_parallelism).min(MAX_THREADS)
}

/// The machine's available parallelism, ignoring `MIME_THREADS`: the
/// worker count past which additional threads can only time-slice a
/// core and thrash its cache. Benchmarks use this to avoid measuring
/// oversubscription instead of the kernels.
pub fn hardware_cap() -> usize {
    available_parallelism()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_value_wins() {
        assert_eq!(worker_count_from(Some("4")), 4);
        assert_eq!(worker_count_from(Some(" 64 ")), 64);
    }

    #[test]
    fn invalid_values_fall_back_to_hardware() {
        let hw = available_parallelism();
        assert_eq!(worker_count_from(None), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("0")), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("auto")), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("")), hw.min(MAX_THREADS));
    }

    #[test]
    fn absurd_values_are_clamped() {
        assert_eq!(worker_count_from(Some("1000000")), MAX_THREADS);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn hardware_cap_is_positive_and_env_independent() {
        assert!(hardware_cap() >= 1);
        assert_eq!(hardware_cap(), available_parallelism());
    }
}
