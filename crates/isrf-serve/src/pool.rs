//! A small work-stealing worker pool.
//!
//! Jobs enter through a global injector queue; each worker also owns a
//! local deque it can push follow-on work onto (a sweep job expands its
//! points locally). Workers prefer their own deque (LIFO end, for
//! locality), then the injector (FIFO, for fairness), then steal from
//! the FIFO end of a sibling's deque. Idle workers park on a condvar
//! with a timeout so shutdown and late injections are never missed.
//!
//! The pool is deliberately generic over the item type so the tests can
//! exercise the scheduling logic without dragging in the simulator.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters one worker maintains about itself.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Items this worker finished running.
    processed: AtomicU64,
    /// Of those, items it stole from a sibling's deque.
    stolen: AtomicU64,
    /// Microseconds spent inside the run function.
    busy_micros: AtomicU64,
}

/// A snapshot of one worker's counters, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker finished running.
    pub processed: u64,
    /// Of those, items stolen from a sibling.
    pub stolen: u64,
    /// Microseconds spent inside the run function since startup.
    pub busy_micros: u64,
}

struct Shared<T> {
    /// Global FIFO injector; also the condvar's guard.
    injector: Mutex<VecDeque<T>>,
    cv: Condvar,
    /// Per-worker local deques. Lock order: a worker never holds two at
    /// once, and touches the injector only when holding none.
    locals: Vec<Mutex<VecDeque<T>>>,
    counters: Vec<WorkerCounters>,
    stop: AtomicBool,
}

impl<T> Shared<T> {
    /// Grab the next item for worker `id`, or `None` if everything is
    /// empty right now. Sets `*stolen` when the item came from a sibling.
    fn next(&self, id: usize, stolen: &mut bool) -> Option<T> {
        *stolen = false;
        if let Some(item) = self.locals[id].lock().unwrap().pop_back() {
            return Some(item);
        }
        if let Some(item) = self.injector.lock().unwrap().pop_front() {
            return Some(item);
        }
        for off in 1..self.locals.len() {
            let victim = (id + off) % self.locals.len();
            if let Some(item) = self.locals[victim].lock().unwrap().pop_front() {
                *stolen = true;
                return Some(item);
            }
        }
        None
    }
}

/// Handle passed to the run function so it can push follow-on work onto
/// its own deque (stealable by siblings).
pub struct WorkerHandle<'a, T> {
    shared: &'a Shared<T>,
    id: usize,
    /// Since when the running item's time is unbooked, and whether it was
    /// stolen, until it has been counted.
    since: Cell<Instant>,
    uncounted: Cell<Option<bool>>,
}

impl<T> WorkerHandle<'_, T> {
    /// This worker's index in `0..workers`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Count the running item as processed, once, and book the time spent
    /// on it so far. The run function calls this before it publishes the
    /// item's outcome, so whoever sees the outcome also sees the counters;
    /// the worker books what remains when the function returns.
    pub(crate) fn book(&self) {
        let c = &self.shared.counters[self.id];
        if let Some(stolen) = self.uncounted.take() {
            c.processed.fetch_add(1, Ordering::Relaxed);
            c.stolen.fetch_add(u64::from(stolen), Ordering::Relaxed);
        }
        // Sanctioned wall-clock read: feeds only the worker utilization
        // metrics, never a result.
        #[allow(clippy::disallowed_methods)]
        let now = Instant::now();
        let spent = now.duration_since(self.since.replace(now));
        c.busy_micros
            .fetch_add(spent.as_micros() as u64, Ordering::Relaxed);
    }

    /// Push follow-on work onto this worker's own deque and wake a
    /// sibling to come steal it.
    pub fn push(&self, item: T) {
        self.shared.locals[self.id].lock().unwrap().push_back(item);
        self.shared.cv.notify_all();
    }
}

/// The pool itself. Dropping without [`Pool::shutdown`] detaches the
/// workers (they exit once told to stop); call `shutdown` for a clean
/// join.
pub struct Pool<T> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawn `workers` threads, each running `run(worker_id, item, handle)`
    /// for every item it obtains. `run` must not panic; wrap fallible work
    /// in `catch_unwind` at the call site.
    pub fn new<F>(workers: usize, run: F) -> Pool<T>
    where
        F: Fn(usize, T, &WorkerHandle<'_, T>) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            counters: (0..workers).map(|_| WorkerCounters::default()).collect(),
            stop: AtomicBool::new(false),
        });
        let run = Arc::new(run);
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("isrf-serve-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared, &*run))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Enqueue an item on the global injector and wake a worker.
    pub fn inject(&self, item: T) {
        self.shared.injector.lock().unwrap().push_back(item);
        self.shared.cv.notify_all();
    }

    /// Items currently waiting in the injector (not counting local deques).
    pub fn injector_depth(&self) -> usize {
        self.shared.injector.lock().unwrap().len()
    }

    /// Per-worker counter snapshots, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .counters
            .iter()
            .map(|c| WorkerStats {
                processed: c.processed.load(Ordering::Relaxed),
                stolen: c.stolen.load(Ordering::Relaxed),
                busy_micros: c.busy_micros.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Tell the workers to stop once the queues drain, then join them.
    /// Items already queued are still run; in-flight work observes the
    /// stop flag only through its own cancellation checks. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<T, F>(id: usize, shared: &Shared<T>, run: &F)
where
    F: Fn(usize, T, &WorkerHandle<'_, T>),
{
    let mut stolen = false;
    loop {
        if let Some(item) = shared.next(id, &mut stolen) {
            #[allow(clippy::disallowed_methods)] // as in `WorkerHandle::book`
            let handle = WorkerHandle {
                shared,
                id,
                since: Cell::new(Instant::now()),
                uncounted: Cell::new(Some(stolen)),
            };
            run(id, item, &handle);
            handle.book();
            continue;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Park until new work or shutdown; the timeout covers the race
        // where an inject lands between our empty check and the wait.
        let guard = shared.injector.lock().unwrap();
        if guard.is_empty() && !shared.stop.load(Ordering::SeqCst) {
            let _unused = shared
                .cv
                .wait_timeout(guard, Duration::from_millis(20))
                .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_everything_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut pool = {
            let hits = Arc::clone(&hits);
            Pool::new(4, move |_, n: usize, _| {
                hits.fetch_add(n, Ordering::SeqCst);
            })
        };
        for n in 1..=100 {
            pool.inject(n);
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn local_pushes_are_stealable_and_run() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut pool = {
            let hits = Arc::clone(&hits);
            // Each injected seed fans out into 10 local follow-ons.
            Pool::new(3, move |_, n: usize, h: &WorkerHandle<'_, usize>| {
                if n >= 1000 {
                    for k in 0..10 {
                        h.push(n - 1000 + k);
                    }
                } else {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        for seed in 0..8 {
            pool.inject(1000 + seed * 10);
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 80);
        // 8 seeds + 80 follow-ons all ran somewhere.
        let total: u64 = pool.worker_stats().iter().map(|s| s.processed).sum();
        assert_eq!(total, 88);
    }

    #[test]
    fn worker_stats_count_processed() {
        let mut pool = Pool::new(2, move |_, _n: usize, _| {});
        for n in 0..50 {
            pool.inject(n);
        }
        // Wait for drain: poll the injector, then give locals a beat.
        while pool.injector_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        let total: u64 = pool.worker_stats().iter().map(|s| s.processed).sum();
        pool.shutdown();
        assert_eq!(total, 50);
    }
}
