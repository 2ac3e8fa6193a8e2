//! The worker pool: one locked FIFO of items, each run in parts.
//!
//! An item enters the back of the queue with its number of parts. A worker
//! takes the front item's next part, and an item with parts left goes to the
//! back again. So an item queued behind a many-part one waits for one of its
//! parts per worker ahead of it, not for all of them, and a many-part item
//! still spreads over every idle worker. Idle workers wait on the queue's one
//! condvar. Every push, every worker's counters and the stop flag change
//! under the queue's one lock, so no wake-up is missed.
//!
//! The pool is deliberately generic over the item type so the tests can
//! exercise the scheduling logic without dragging in the simulator.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::lock;

/// One worker's counters, for `/metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Parts this worker finished running.
    pub processed: u64,
    /// Microseconds spent inside the run function since startup.
    pub busy_micros: u64,
}

/// Everything the pool's one lock guards.
struct Queue<T> {
    /// `(item, next part, parts)`, front first.
    items: VecDeque<(T, usize, usize)>,
    stats: Vec<WorkerStats>,
    stop: bool,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    cv: Condvar,
}

impl<T: Clone> Shared<T> {
    /// The front item's next part, waiting for one, or `None` once stopped
    /// and empty. The item goes to the back while it has parts left.
    fn next(&self) -> Option<(T, usize)> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some((item, part, parts)) = queue.items.pop_front() {
                if part + 1 < parts {
                    queue.items.push_back((item.clone(), part + 1, parts));
                }
                return Some((item, part));
            }
            if queue.stop {
                return None;
            }
            queue = self.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Handle passed to the run function so it can book its part before it
/// publishes the part's outcome.
pub struct WorkerHandle<'a, T> {
    shared: &'a Shared<T>,
    id: usize,
    /// Since when the running part's time is unbooked, and whether the part
    /// has been counted.
    since: Cell<Instant>,
    counted: Cell<bool>,
}

impl<T: Clone> WorkerHandle<'_, T> {
    /// Count the running part as processed, once, and book the time spent
    /// on it so far. The run function calls this before it publishes the
    /// part's outcome, so whoever sees the outcome also sees the counters;
    /// the worker books what remains when the function returns.
    pub(crate) fn book(&self) {
        // Sanctioned wall-clock read: feeds only the worker utilization
        // metrics, never a result.
        #[allow(clippy::disallowed_methods)]
        let now = Instant::now();
        let stats = &mut lock(&self.shared.queue).stats[self.id];
        stats.processed += u64::from(!self.counted.replace(true));
        stats.busy_micros += now.duration_since(self.since.replace(now)).as_micros() as u64;
    }
}

/// The pool itself. Dropping without [`Pool::shutdown`] detaches the
/// workers (they exit once told to stop); call `shutdown` for a clean
/// join.
pub struct Pool<T> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Clone + Send + 'static> Pool<T> {
    /// Spawn `workers` threads, each running `run(item, part, handle)` for
    /// every part it takes. `run` must not panic; wrap fallible work in
    /// `catch_unwind` at the call site.
    pub fn new<F>(workers: usize, run: F) -> Pool<T>
    where
        F: Fn(T, usize, &WorkerHandle<'_, T>) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                stats: vec![WorkerStats::default(); workers],
                stop: false,
            }),
            cv: Condvar::new(),
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

    /// Queue `item` to run as parts `0..parts`, in that order, and wake the
    /// workers.
    pub fn inject(&self, item: T, parts: usize) {
        lock(&self.shared.queue).items.push_back((item, 0, parts));
        self.shared.cv.notify_all();
    }

    /// Per-worker counter snapshots, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        lock(&self.shared.queue).stats.clone()
    }

    /// Tell the workers to stop once the queue drains, then join them.
    /// Parts already queued are still run; in-flight work observes the
    /// stop flag only through its own cancellation checks. Idempotent.
    pub fn shutdown(&mut self) {
        lock(&self.shared.queue).stop = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<T: Clone, F>(id: usize, shared: &Shared<T>, run: &F)
where
    F: Fn(T, usize, &WorkerHandle<'_, T>),
{
    while let Some((item, part)) = shared.next() {
        #[allow(clippy::disallowed_methods)] // as in `WorkerHandle::book`
        let handle = WorkerHandle {
            shared,
            id,
            since: Cell::new(Instant::now()),
            counted: Cell::new(false),
        };
        run(item, part, &handle);
        handle.book();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_everything_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut pool = {
            let hits = Arc::clone(&hits);
            Pool::new(4, move |n: usize, _, _| {
                hits.fetch_add(n, Ordering::SeqCst);
            })
        };
        for n in 1..=100 {
            pool.inject(n, 1);
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn every_part_runs_once_across_workers() {
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..80).map(|_| AtomicUsize::new(0)).collect());
        let mut pool = {
            let runs = Arc::clone(&runs);
            Pool::new(3, move |item: usize, part, _| {
                runs[item * 10 + part].fetch_add(1, Ordering::SeqCst);
            })
        };
        for item in 0..8 {
            pool.inject(item, 10);
        }
        pool.shutdown();
        for (i, n) in runs.iter().enumerate() {
            let (item, part) = (i / 10, i % 10);
            assert_eq!(n.load(Ordering::SeqCst), 1, "part {part} of item {item}");
        }
        let total: u64 = pool.worker_stats().iter().map(|s| s.processed).sum();
        assert_eq!(total, 80);
    }

    /// A part of an item queued behind a sweep runs after one sweep part,
    /// not after all of them. No thread: a stopped queue hands out what it
    /// holds, then `None`.
    #[test]
    fn parts_take_turns_in_queue_order() {
        let shared = Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::from([("sweep", 0, 4), ("single", 0, 1)]),
                stats: Vec::new(),
                stop: true,
            }),
            cv: Condvar::new(),
        };
        let order: Vec<_> = std::iter::from_fn(|| shared.next()).collect();
        assert_eq!(
            order,
            [
                ("sweep", 0),
                ("single", 0),
                ("sweep", 1),
                ("sweep", 2),
                ("sweep", 3)
            ]
        );
    }

    #[test]
    fn worker_stats_count_processed() {
        let mut pool = Pool::new(2, move |_n: usize, _, _| {});
        for n in 0..50 {
            pool.inject(n, 1);
        }
        // `shutdown` joins every worker, so each has booked its last part.
        pool.shutdown();
        let total: u64 = pool.worker_stats().iter().map(|s| s.processed).sum();
        assert_eq!(total, 50);
    }
}
