//! A shared work-stealing executor for the offline phases (TCFI mining,
//! TC-Tree construction).
//!
//! One reusable executor for every offline fan-out, with no barrier
//! between Apriori levels:
//!
//! * **per-worker deques** — each worker owns a deque; it pushes spawned
//!   tasks to the back and pops from the back (LIFO keeps the working set
//!   hot), while thieves steal the *older half* from the front, which
//!   tends to move the largest pending subtrees of work;
//! * **dynamic spawning** — a task may [`Worker::spawn`] follow-up tasks,
//!   so dependent work (a level-`(k+1)` candidate whose parents just
//!   finished) starts without waiting for a global barrier;
//! * **scoped lifetimes** — tasks borrow from the caller's stack
//!   (`std::thread::scope`), no `'static` bounds, no `Arc` tax on the
//!   network being mined;
//! * **deterministic reduction** — every worker owns a private state
//!   value; [`Executor::run`] returns the states **in worker-index
//!   order**, so folding counters or concatenating per-worker results is
//!   reproducible run to run (the *contents* of each worker's state still
//!   depend on scheduling; callers that need a canonical order sort by a
//!   task-intrinsic key, not by arrival).
//!
//! Idle workers park on a condvar with a short timeout instead of
//! spinning: on machines with fewer cores than workers a spinning thief
//! would steal cycles from the worker actually making progress.
//!
//! The implementation is deliberately simple: the deques are small
//! mutex-guarded `VecDeque`s, not lock-free Chase-Lev buffers. The tasks
//! this executor runs (an MPTD call, a truss decomposition) cost orders
//! of magnitude more than an uncontended mutex, so queue overhead is
//! noise.
//!
//! Every primitive comes from the [`crate::sync`] facade, so under
//! `--cfg tc_check_model` the executor runs on the deterministic
//! `tc-model` scheduler and `tc-check` exhaustively verifies the
//! steal-half protocol (no task lost, none run twice) across bounded
//! interleavings.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{thread, Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// How long an idle worker parks before re-checking the queues. Bounds
/// the damage of a lost wakeup; the common path is an explicit notify.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// A work-stealing task executor with a fixed worker count.
///
/// ```
/// use tc_util::steal::Executor;
///
/// // Sum 1..=100 with dynamically spawned halves.
/// let ex = Executor::new(4);
/// let states = ex.run(
///     vec![(1u64, 100u64)],
///     |_worker| 0u64,
///     |sum, (lo, hi), worker| {
///         if hi - lo <= 9 {
///             *sum += (lo..=hi).sum::<u64>();
///         } else {
///             let mid = lo + (hi - lo) / 2;
///             worker.spawn((lo, mid));
///             worker.spawn((mid + 1, hi));
///         }
///     },
/// );
/// assert_eq!(states.iter().sum::<u64>(), 5050);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Runs `seeds` (and everything they spawn) to completion and returns
    /// the per-worker states in worker-index order.
    ///
    /// `init(w)` builds worker `w`'s private state; `task(state, t, worker)`
    /// processes one task and may spawn follow-ups through `worker`. With
    /// one worker everything runs inline on the calling thread (no spawn),
    /// which doubles as the serial reference for equivalence tests.
    pub fn run<T, S, F, I>(&self, seeds: Vec<T>, init: I, task: F) -> Vec<S>
    where
        T: Send,
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, T, &Worker<'_, T>) + Sync,
    {
        let n = self.threads.max(1);
        let shared = Shared::new(n, seeds);
        if n == 1 {
            return vec![worker_loop(&shared, 0, &init, &task)];
        }
        thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    let shared = &shared;
                    let init = &init;
                    let task = &task;
                    scope.spawn(move || worker_loop(shared, w, init, task))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        })
    }
}

/// Handle passed to every task: accepts spawned follow-up tasks onto the
/// running worker's own deque.
pub struct Worker<'a, T> {
    index: usize,
    shared: &'a Shared<T>,
}

impl<T> Worker<'_, T> {
    /// Enqueues a follow-up task on this worker's own deque (thieves will
    /// balance it if this worker is saturated).
    pub fn spawn(&self, t: T) {
        // Count before publishing: a thief may pop and finish the task
        // between the push and any later increment, which would let
        // `pending` underflow and release the workers early.
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.queues[self.index].lock().push_back(t);
        // One new task ⇒ one woken thief. Waking every sleeper here turns
        // each spawn into a stampede of fruitless steal scans, which on an
        // oversubscribed host (more workers than cores) steals real CPU
        // from the worker making progress.
        self.shared.wake_one();
    }
}

struct Shared<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Tasks created but not yet finished. 0 ⇒ no queued task exists and
    /// none is running that could spawn more ⇒ workers may exit.
    pending: AtomicUsize,
    /// Set when a task panics so the other workers drain out instead of
    /// waiting forever on a count that will never reach zero.
    poisoned: AtomicBool,
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    park_cv: Condvar,
}

impl<T> Shared<T> {
    fn new(workers: usize, seeds: Vec<T>) -> Shared<T> {
        let mut queues: Vec<VecDeque<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        let pending = AtomicUsize::new(seeds.len());
        // Round-robin the seeds so every worker starts with local work.
        for (i, seed) in seeds.into_iter().enumerate() {
            queues[i % workers].push_back(seed);
        }
        Shared {
            queues: queues.into_iter().map(Mutex::new).collect(),
            pending,
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
        }
    }

    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park_lock.lock();
            self.park_cv.notify_one();
        }
    }

    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park_lock.lock();
            self.park_cv.notify_all();
        }
    }

    /// Next task for worker `w`: own deque first (LIFO), then steal the
    /// front half of the first non-empty victim deque.
    fn next_task(&self, w: usize) -> Option<T> {
        if let Some(t) = self.queues[w].lock().pop_back() {
            return Some(t);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (w + offset) % n;
            let mut stolen = {
                let mut q = self.queues[victim].lock();
                let len = q.len();
                if len == 0 {
                    continue;
                }
                // Steal the older half (rounded up), leaving the victim
                // its hot tail.
                let take = len.div_ceil(2);
                q.drain(..take).collect::<VecDeque<T>>()
            };
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                self.queues[w].lock().append(&mut stolen);
                // The surplus we just re-queued is stealable again.
                self.wake_one();
            }
            return first;
        }
        None
    }
}

/// Decrements `pending` when a task ends — including by panic, which also
/// poisons the run so sibling workers exit instead of deadlocking.
struct TaskGuard<'a, T> {
    shared: &'a Shared<T>,
}

impl<T> Drop for TaskGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.poisoned.store(true, Ordering::SeqCst);
        }
        if self.shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last task: release every parked worker so it can observe
            // pending == 0 and exit.
            self.shared.wake_all();
        }
    }
}

fn worker_loop<T, S>(
    shared: &Shared<T>,
    w: usize,
    init: &(impl Fn(usize) -> S + Sync),
    task: &(impl Fn(&mut S, T, &Worker<'_, T>) + Sync),
) -> S {
    let mut state = init(w);
    let worker = Worker { index: w, shared };
    loop {
        if shared.poisoned.load(Ordering::SeqCst) {
            break;
        }
        if let Some(t) = shared.next_task(w) {
            let guard = TaskGuard { shared };
            task(&mut state, t, &worker);
            drop(guard);
            continue;
        }
        if shared.pending.load(Ordering::SeqCst) == 0 {
            break;
        }
        // Work exists (or is being spawned) but nothing was stealable:
        // park briefly. The timeout covers the race between the emptiness
        // check and the wait; spawns and run-completion notify eagerly.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let guard = shared.park_lock.lock();
            if shared.pending.load(Ordering::SeqCst) != 0 {
                let _ = shared.park_cv.wait_timeout(guard, PARK_TIMEOUT);
            }
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_seeds_once() {
        for threads in [1, 2, 4, 9] {
            let ex = Executor::new(threads);
            let states = ex.run(
                (0..1000u32).collect(),
                |_| Vec::new(),
                |seen: &mut Vec<u32>, t, _| seen.push(t),
            );
            assert_eq!(states.len(), threads);
            let mut all: Vec<u32> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dynamic_spawning_reaches_fixpoint() {
        // Each task (depth, value) spawns two children until depth 0;
        // leaves contribute their value. A binary tree of depth 6 over
        // each of 3 seeds ⇒ 3 · 2⁶ leaves.
        for threads in [1, 3, 8] {
            let ex = Executor::new(threads);
            let leaves: usize = ex
                .run(
                    vec![(6u32, ()); 3],
                    |_| 0usize,
                    |count, (depth, ()), worker| {
                        if depth == 0 {
                            *count += 1;
                        } else {
                            worker.spawn((depth - 1, ()));
                            worker.spawn((depth - 1, ()));
                        }
                    },
                )
                .into_iter()
                .sum();
            assert_eq!(leaves, 3 << 6, "threads = {threads}");
        }
    }

    #[test]
    fn states_returned_in_worker_order() {
        let ex = Executor::new(5);
        let states = ex.run(vec![(); 64], |w| w, |_, (), _| {});
        assert_eq!(states, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_seed_list() {
        let ex = Executor::new(4);
        let states = ex.run(Vec::<()>::new(), |w| w * 10, |_, (), _| {});
        assert_eq!(states, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let ex = Executor::new(0);
        let states = ex.run(vec![1, 2, 3], |_| 0i32, |acc, t, _| *acc += t);
        assert_eq!(states, vec![6]);
    }

    #[test]
    #[should_panic(expected = "executor worker panicked")]
    fn task_panic_propagates_without_deadlock() {
        let ex = Executor::new(4);
        ex.run(
            (0..64u32).collect(),
            |_| (),
            |(), t, _| {
                if t == 13 {
                    panic!("boom");
                }
            },
        );
    }

    #[test]
    fn heavy_recursive_load_balances() {
        // Fibonacci-style task splitting with a shared atomic check that
        // the leaf count matches the serial recursion.
        fn leaves(n: u32) -> usize {
            if n < 2 {
                1
            } else {
                leaves(n - 1) + leaves(n - 2)
            }
        }
        let ex = Executor::new(6);
        let total: usize = ex
            .run(
                vec![14u32],
                |_| 0usize,
                |count, n, worker| {
                    if n < 2 {
                        *count += 1;
                    } else {
                        worker.spawn(n - 1);
                        worker.spawn(n - 2);
                    }
                },
            )
            .into_iter()
            .sum();
        assert_eq!(total, leaves(14));
    }
}
