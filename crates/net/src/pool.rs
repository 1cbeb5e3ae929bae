//! A fixed-size worker thread pool fed by a bounded job queue.
//!
//! The reactor hands each fully-read request to the pool. The queue is
//! *bounded* and submission never blocks: when all workers are busy and
//! the queue is full, [`ThreadPool::try_execute`] hands the job back, so
//! the event loop parks it (or refuses the request) instead of growing
//! memory without bound. Shutdown drains the queue: already-queued jobs
//! run, then the workers exit.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for the pool. Public so callers that must not block
/// (the reactor event loop) can get a rejected job handed back from
/// [`ThreadPool::try_execute`] and retry it later.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`ThreadPool::try_execute`] rejected a job; carries the job back
/// so the caller can retry (or drop) it.
pub enum TryExecuteError {
    /// The queue is at capacity; retry when a worker frees up.
    Full(Job),
    /// The pool is shutting down; the job will never run.
    Closed(Job),
}

impl std::fmt::Debug for TryExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TryExecuteError::Full(_) => "TryExecuteError::Full(..)",
            TryExecuteError::Closed(_) => "TryExecuteError::Closed(..)",
        })
    }
}

struct QueueInner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// An MPMC queue with a hard capacity: pushes fail fast when it is full,
/// pops block while it is empty.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Fails immediately when full or closed, handing the item back.
    fn try_push(&self, item: T) -> Result<(), (T, bool)> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err((item, true));
        }
        if inner.items.len() >= inner.capacity {
            return Err((item, false));
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while the queue is empty; returns `None` once the queue is
    /// closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }
}

/// A cloneable probe of a pool's pending-job queue depth, detached from
/// the [`ThreadPool`]'s ownership (the event loops own the pool;
/// introspection endpoints keep a probe). See
/// [`ThreadPool::depth_probe`].
#[derive(Clone)]
pub struct QueueDepthProbe(Arc<BoundedQueue<Job>>);

impl QueueDepthProbe {
    /// Jobs currently waiting in the queue (accepted but not yet claimed
    /// by a worker).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

/// A fixed-size pool of worker threads consuming jobs from a bounded
/// queue.
pub struct ThreadPool {
    queue: Arc<BoundedQueue<Job>>,
    // Behind a mutex so `shutdown` works through a shared reference:
    // several reactor loops share one pool via `Arc`, and whichever
    // loop exits last gets to join the workers.
    workers: Mutex<Vec<JoinHandle<()>>>,
    count: usize,
}

impl ThreadPool {
    /// Spawns `workers` threads (min 1) behind a queue holding at most
    /// `queue_capacity` pending jobs (min 1).
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(queue_capacity));
        let handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("pclabel-net-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            queue,
            count: handles.len(),
            workers: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.count
    }

    /// A [`QueueDepthProbe`] onto this pool's queue, for queue-depth
    /// introspection (`/debug/conns`) after the pool has moved into the
    /// event loops.
    pub fn depth_probe(&self) -> QueueDepthProbe {
        QueueDepthProbe(Arc::clone(&self.queue))
    }

    /// Non-blocking enqueue for callers that must never stall (the
    /// reactor event loop). A [`TryExecuteError::Full`] hands the job
    /// back; a freed worker is guaranteed to be observable later (every
    /// running job ends), so the caller can park it and retry.
    pub fn try_execute(&self, job: Job) -> Result<(), TryExecuteError> {
        self.queue.try_push(job).map_err(|(job, closed)| {
            if closed {
                TryExecuteError::Closed(job)
            } else {
                TryExecuteError::Full(job)
            }
        })
    }

    /// Closes the queue, lets workers drain the remaining jobs, and
    /// joins them. Safe to call from several owners of a shared pool:
    /// the first caller joins, later calls find nothing left to do.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("pool workers"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Dropping without an explicit shutdown still terminates the
        // workers (close + detach; jobs in flight finish on their own).
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Submits `job`, retrying while the queue is full — the reactor's
    /// parking lot in miniature.
    fn submit(pool: &ThreadPool, job: Job) {
        let mut job = job;
        loop {
            match pool.try_execute(job) {
                Ok(()) => return,
                Err(TryExecuteError::Full(back)) => {
                    std::thread::sleep(Duration::from_millis(1));
                    job = back;
                }
                Err(TryExecuteError::Closed(_)) => panic!("pool is not closed"),
            }
        }
    }

    /// A job that blocks its worker until `gate` opens.
    fn blocker(gate: &Arc<(Mutex<bool>, Condvar)>) -> Job {
        let gate = Arc::clone(gate);
        Box::new(move || {
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn all_jobs_run_once() {
        let pool = ThreadPool::new(4, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            submit(
                &pool,
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn bounded_queue_applies_backpressure_then_drains() {
        // One deliberately slow worker and a tiny queue: the producer is
        // turned away while the queue is full, yet every job still runs
        // exactly once.
        let pool = ThreadPool::new(1, 2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            submit(
                &pool,
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn try_execute_reports_full_and_hands_the_job_back() {
        // Block the single worker so the queue (capacity 1) fills.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = ThreadPool::new(1, 1);
        submit(&pool, blocker(&gate));
        // Worker busy; one job fits in the queue, the next is rejected.
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = |ran: &Arc<AtomicUsize>| -> Job {
            let ran = Arc::clone(ran);
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        let mut queued = 0;
        let mut rejected: Option<Job> = None;
        for _ in 0..50 {
            match pool.try_execute(counted(&ran)) {
                Ok(()) => queued += 1,
                Err(TryExecuteError::Full(job)) => {
                    rejected = Some(job);
                    break;
                }
                Err(TryExecuteError::Closed(_)) => panic!("pool is not closed"),
            }
        }
        let rejected = rejected.expect("bounded queue must eventually reject");
        // Unblock the worker; retrying the same handed-back job (as the
        // reactor does) eventually succeeds.
        open(&gate);
        submit(&pool, rejected);
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), queued + 1);
    }

    #[test]
    fn depth_probe_reports_pending_jobs() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = ThreadPool::new(1, 4);
        let probe = pool.depth_probe();
        assert_eq!(probe.depth(), 0);
        submit(&pool, blocker(&gate));
        // Wait for the single worker to claim the blocker, then the next
        // jobs can only sit in the queue.
        while probe.depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        submit(&pool, Box::new(|| {}));
        submit(&pool, Box::new(|| {}));
        assert_eq!(probe.depth(), 2);
        open(&gate);
        pool.shutdown();
        assert_eq!(probe.depth(), 0);
    }

    #[test]
    fn try_execute_after_shutdown_is_closed() {
        let pool = ThreadPool::new(1, 1);
        pool.shutdown();
        assert!(matches!(
            pool.try_execute(Box::new(|| {})),
            Err(TryExecuteError::Closed(_))
        ));
    }
}
