//! Parallel point-evaluation pool.
//!
//! Callers (the bench binaries, the DSE search engine) evaluate a list
//! of *independent* design points (workload × parallelization × chip),
//! each a full compile → PnR → simulate run. [`run_points`] fans those
//! points out across a scoped-thread work pool (std only:
//! `std::thread::scope` + channels) and returns results **in input
//! order**, so tables and speedup baselines ("first point in the
//! series") are unaffected by scheduling.
//!
//! Guarantees:
//!
//! * **Deterministic ordering** — `results[i]` corresponds to `points[i]`.
//! * **Panic isolation** — a panicking point becomes an `Err` for that
//!   point only; the rest of the sweep completes.
//! * **Thread-count control** — `SARA_BENCH_THREADS=N` overrides the
//!   default of `std::thread::available_parallelism()`, clamped to
//!   `[1, points.len()]`. `SARA_BENCH_THREADS=1` reproduces the exact
//!   sequential behaviour (useful when a binary also measures wall-clock
//!   per point, e.g. `fig11`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SARA_BENCH_THREADS";

/// Parse a `SARA_BENCH_THREADS` value into a positive worker count.
///
/// # Errors
///
/// A one-line diagnostic when the value is not a positive integer.
pub fn parse_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{THREADS_ENV}={v:?} is not a positive integer")),
    }
}

/// Worker count for a sweep over `n_points` points: the `SARA_BENCH_THREADS`
/// override if set, else available parallelism, clamped to `[1, n_points]`
/// (and to 1 when `n_points` is 0). An unparsable override is a usage
/// error: one-line diagnostic on stderr and exit code 2, never a silent
/// fallback to a different thread count.
pub fn threads_for(n_points: usize) -> usize {
    let requested = match std::env::var(THREADS_ENV) {
        Ok(v) => parse_threads(&v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    requested.clamp(1, n_points.max(1))
}

/// Evaluate `f` over every point concurrently, returning results in input
/// order. A panic inside `f` is caught and surfaced as that point's `Err`.
pub fn run_points<P, T, F>(points: &[P], f: F) -> Vec<Result<T, String>>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> Result<T, String> + Sync,
{
    run_points_on(threads_for(points.len()), points, f)
}

/// [`run_points`] with an explicit worker count (still clamped to
/// `[1, points.len()]`).
pub fn run_points_on<P, T, F>(threads: usize, points: &[P], f: F) -> Vec<Result<T, String>>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> Result<T, String> + Sync,
{
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        // Sequential fast path: no pool, no catch_unwind overhead in the
        // common single-core / SARA_BENCH_THREADS=1 case, but keep the
        // panic→Err contract identical to the parallel path.
        return points.iter().map(|p| eval_point(&f, p)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let result = eval_point(f, &points[idx]);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut results: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
        for (idx, result) in rx {
            results[idx] = Some(result);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("worker delivered every claimed point"))
            .collect()
    })
}

fn eval_point<P, T, F>(f: &F, point: &P) -> Result<T, String>
where
    F: Fn(&P) -> Result<T, String>,
{
    match catch_unwind(AssertUnwindSafe(|| f(point))) {
        Ok(result) => result,
        Err(payload) => Err(format!("panic: {}", panic_message(&*payload))),
    }
}

/// Why a [`JobQueue::try_push`] was refused. The typed rejection is the
/// backpressure signal long-lived services surface to their clients
/// instead of blocking or silently dropping work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later or shed the request.
    Full { capacity: usize },
    /// The queue was closed; no further work is accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full { capacity } => {
                write!(f, "queue full ({capacity} jobs pending)")
            }
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer job queue (std only:
/// `Mutex` + `Condvar`).
///
/// This is the admission-control half of a long-lived service:
/// [`JobQueue::try_push`] never blocks — when the queue is at capacity it
/// returns a typed [`PushError::Full`] so the caller can reject the
/// request upstream (bounded-queue backpressure) instead of letting an
/// unbounded backlog build. Worker threads loop on [`JobQueue::pop`],
/// which blocks until a job arrives or the queue is closed.
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending jobs (minimum 1).
    pub fn bounded(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a job without blocking.
    ///
    /// # Errors
    ///
    /// The job is handed back with [`PushError::Full`] when the queue is
    /// at capacity (so the caller can send a typed rejection to whoever
    /// submitted it), or with [`PushError::Closed`] after
    /// [`JobQueue::close`].
    pub fn try_push(&self, job: T) -> Result<(), (T, PushError)> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        if st.closed {
            return Err((job, PushError::Closed));
        }
        if st.items.len() >= self.capacity {
            return Err((job, PushError::Full { capacity: self.capacity }));
        }
        st.items.push_back(job);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next job, blocking until one arrives. Returns `None`
    /// once the queue is closed *and* drained — the worker-shutdown
    /// signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = st.items.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("queue lock poisoned");
        }
    }

    /// Jobs currently pending.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether no jobs are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: further pushes fail with [`PushError::Closed`];
    /// blocked and future [`JobQueue::pop`] calls drain the backlog and
    /// then return `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// The printable message of a caught panic payload (a `&str` or `String`
/// from `panic!`), for harnesses that isolate work behind `catch_unwind`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_input_order() {
        // Make later points finish first so out-of-order delivery would
        // show up if ordering weren't restored.
        let points: Vec<u64> = (0..32).collect();
        let results = run_points_on(8, &points, |&p| {
            std::thread::sleep(std::time::Duration::from_micros((32 - p) * 50));
            Ok(p * 10)
        });
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..32).map(|p| p * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panic_becomes_per_point_error() {
        let results = run_points_on(4, &[1, 2, 3, 4, 5], |&p| {
            if p == 3 {
                panic!("boom at {p}");
            }
            Ok(p)
        });
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                let err = r.as_ref().unwrap_err();
                assert!(err.contains("panic"), "got: {err}");
                assert!(err.contains("boom at 3"), "got: {err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn sequential_path_catches_panics_too() {
        let results = run_points_on(1, &[0, 1], |&p| {
            if p == 0 {
                panic!("seq boom");
            }
            Ok(p)
        });
        assert!(results[0].as_ref().unwrap_err().contains("seq boom"));
        assert_eq!(*results[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn every_point_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let results = run_points_on(6, &(0..100).collect::<Vec<usize>>(), |&p: &usize| {
            seen.lock().unwrap().push(p);
            Ok(p)
        });
        assert_eq!(results.len(), 100);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("3"), Ok(3));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("many").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("").is_err());
    }

    #[test]
    fn errors_pass_through_unchanged() {
        let results = run_points_on(3, &["a", "b"], |p| {
            if *p == "a" {
                Err("no placement".to_string())
            } else {
                Ok(p.len())
            }
        });
        assert_eq!(results[0].as_ref().unwrap_err(), "no placement");
        assert_eq!(*results[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn empty_point_list_is_fine() {
        let results: Vec<Result<u32, String>> = run_points(&Vec::<u32>::new(), |&p| Ok(p));
        assert!(results.is_empty());
    }

    #[test]
    fn job_queue_rejects_when_full_and_drains_in_order() {
        let q: JobQueue<u32> = JobQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // The rejected job comes back with the typed reason.
        assert_eq!(q.try_push(3), Err((3, PushError::Full { capacity: 2 })));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn job_queue_close_unblocks_workers_after_drain() {
        let q: JobQueue<u32> = JobQueue::bounded(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
        // The backlog still drains, then pop signals shutdown.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn job_queue_feeds_concurrent_workers_exactly_once() {
        let q: JobQueue<usize> = JobQueue::bounded(128);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(j) = q.pop() {
                        seen.lock().unwrap().push(j);
                    }
                });
            }
            for j in 0..100 {
                while q.try_push(j).is_err() {
                    std::thread::yield_now();
                }
            }
            q.close();
        });
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().collect::<HashSet<_>>().len(), 100);
    }
}
