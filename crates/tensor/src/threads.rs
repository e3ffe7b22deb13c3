//! Worker-count policy and the persistent worker pool of the threaded
//! kernels.
//!
//! Every threaded kernel in this crate (and the parallel batch executor
//! in `mime-runtime`) sizes its split through [`worker_count`]: the
//! `MIME_THREADS` environment variable when set to a positive integer,
//! otherwise the machine's available parallelism. The inference GEMM
//! entry points also take an explicit `threads` argument, so callers,
//! tests and benchmarks can pin a worker count without touching the
//! process environment.
//!
//! That count is the number of *parts* a kernel splits its output into;
//! it fixes which elements each part computes, and so every result bit.
//! The parts run on a process-wide pool of [`hardware_cap`]` - 1` parked
//! OS threads, started on first use, plus the calling thread, so a
//! threaded call costs a condition-variable wake instead of a thread
//! spawn, and the OS thread count never follows `MIME_THREADS`. Workers
//! sleep on a condition variable and never spin. The caller claims parts
//! from the same counter as the workers, so a call finishes even when
//! every worker is busy with another caller's parts; a part that calls a
//! threaded kernel runs it inline on its own thread; and a panic in any
//! part resumes on the caller once every part has finished.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Upper bound on parts a kernel splits into, regardless of
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
/// oversubscription instead of the kernels, and the pool holds one
/// thread fewer (the caller is the last one).
pub fn hardware_cap() -> usize {
    available_parallelism()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Locks a mutex whose data stays consistent across a panic: every
/// critical section here is a counter update or a queue push/pop.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One call's parts, shared by the caller and the workers that pick it
/// up. `ctx` points at the caller's items and closure, which outlive the
/// job's use of them: a part is dereferenced only after it was claimed
/// below `parts`, and the caller waits until every claimed part is done.
struct Job {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    parts: usize,
    next: AtomicUsize,
    left: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `ctx` is only dereferenced through `run`, on parts claimed
// exactly once, while the caller blocks in `for_each_part`; the items it
// reaches are `Send` and the closure `Sync` (checked there).
unsafe impl Send for Job {}
// SAFETY: as above; every other field is a sync primitive.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs parts until none is left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.parts {
                return;
            }
            // SAFETY: part `i < parts` was claimed by this thread alone.
            let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, i) }));
            if let Err(payload) = ran {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut left = lock(&self.left);
            *left -= 1;
            if *left == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// The parked workers' shared queue of jobs with parts left to claim.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

/// OS threads the pool has started in this process (at most
/// [`hardware_cap`]` - 1`, however many parts any call asked for).
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// The pool's worker threads started so far.
#[cfg(test)]
pub(crate) fn started_workers() -> usize {
    STARTED.load(Ordering::Relaxed)
}

thread_local! {
    /// Set on pool workers for life and on a caller while it runs parts:
    /// a kernel called from inside a part runs its parts inline.
    static IN_PART: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }));
        for i in 0..hardware_cap().saturating_sub(1) {
            let spawned = std::thread::Builder::new()
                .name(format!("mime-kernel-{i}"))
                .spawn(move || worker(pool));
            if spawned.is_ok() {
                STARTED.fetch_add(1, Ordering::Relaxed);
            }
        }
        pool
    })
}

fn worker(pool: &'static Pool) {
    IN_PART.with(|p| p.set(true));
    loop {
        let job = {
            let mut queue = lock(&pool.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = pool.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work();
    }
}

/// Runs `f(i, &mut items[i])` for every `i`, each exactly once, on the
/// calling thread and the pool's workers; returns when all have run. A
/// panic in any part resumes here after the rest have finished. Inside
/// a part (or with one item, or no workers) everything runs inline.
pub(crate) fn for_each_part<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let pool = (items.len() > 1 && !IN_PART.with(Cell::get)).then(pool);
    let workers = STARTED.load(Ordering::Relaxed);
    let Some(pool) = pool.filter(|_| workers > 0) else {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    };
    struct Ctx<T, F> {
        items: *mut T,
        f: *const F,
    }
    /// # Safety
    ///
    /// `ctx` must point at a live `Ctx<T, F>` and `i` be a part claimed
    /// by this call alone, below the item count.
    unsafe fn run<T, F: Fn(usize, &mut T)>(ctx: *const (), i: usize) {
        let ctx = &*ctx.cast::<Ctx<T, F>>();
        (*ctx.f)(i, &mut *ctx.items.add(i));
    }
    let parts = items.len();
    let ctx = Ctx { items: items.as_mut_ptr(), f: &f };
    let job = Arc::new(Job {
        run: run::<T, F>,
        ctx: std::ptr::from_ref(&ctx).cast(),
        parts,
        next: AtomicUsize::new(0),
        left: Mutex::new(parts),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let helpers = workers.min(parts - 1);
    {
        let mut queue = lock(&pool.queue);
        for _ in 0..helpers {
            queue.push_back(Arc::clone(&job));
        }
    }
    for _ in 0..helpers {
        pool.wake.notify_one();
    }
    IN_PART.with(|p| p.set(true));
    job.work();
    IN_PART.with(|p| p.set(false));
    let mut left = lock(&job.left);
    while *left > 0 {
        left = job.done.wait(left).unwrap_or_else(PoisonError::into_inner);
    }
    drop(left);
    let panicked = lock(&job.panic).take();
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
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

    #[test]
    fn every_part_runs_once() {
        let mut items = vec![0usize; 37];
        for_each_part(&mut items, |i, v| *v += i + 1);
        assert_eq!(items, (1..=37).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_part_resumes_on_the_caller_and_the_pool_survives() {
        let mut items = vec![0u32; 8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_part(&mut items, |i, v| {
                if i == 5 {
                    panic!("part {i} failed");
                }
                *v = 1;
            });
        }));
        let payload = caught.expect_err("the part's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("part 5 failed")
        );
        // every other part still ran, and the caller is no longer a part
        assert_eq!(items.iter().filter(|&&v| v == 1).count(), 7);
        assert!(!IN_PART.with(Cell::get));
        let mut next = vec![0u32; 8];
        for_each_part(&mut next, |i, v| *v = i as u32);
        assert_eq!(next, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_nested_call_completes_inline() {
        let mut outer = vec![0usize; 4];
        for_each_part(&mut outer, |i, v| {
            let mut inner = vec![0usize; 4];
            for_each_part(&mut inner, |j, w| *w = i * 10 + j);
            *v = inner.iter().sum();
        });
        assert_eq!(outer, vec![6, 46, 86, 126]);
    }

    #[test]
    fn many_parts_start_at_most_the_hardware_cap_less_one() {
        let mut items = vec![0u8; 64];
        for_each_part(&mut items, |_, v| *v = 1);
        assert!(items.iter().all(|&v| v == 1));
        assert!(started_workers() < hardware_cap());
    }
}
