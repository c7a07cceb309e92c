//! The persistent worker pool behind the engine's shards.
//!
//! An earlier engine spawned `threads - 1` OS threads per *run*
//! (`std::thread::scope`), which put thread creation and teardown on the
//! critical path of every benchmark repetition and every serve-mode
//! repair. This module keeps one process-wide pool alive across rounds
//! *and* runs: a run borrows workers for one round at a time through
//! [`WorkerPool::scope`], and the workers park between jobs instead of
//! exiting.
//!
//! Two synchronization primitives live here:
//!
//! * [`WorkerPool`] — job dispatch. A job is a lifetime-erased
//!   `&(dyn Fn(usize) + Sync)` published under a generation counter;
//!   parked workers wake, run their participant index, and report
//!   completion to a per-scope latch allocated on the caller's stack.
//!   The caller itself participates as index 0, so `threads == 1` never
//!   touches the pool at all.
//! * [`EpochBarrier`] — the round barrier used *inside* a job. It
//!   replaces `std::sync::Barrier`'s mutex+condvar handshake with two
//!   atomics (an arrival counter and an epoch word) and an adaptive
//!   spin-then-yield wait, and it carries a poison flag so a panicking
//!   participant releases the others instead of deadlocking them.
//!
//! ## Safety of the lifetime erasure
//!
//! `scope` publishes a raw pointer to the caller's closure and to the
//! stack-allocated completion latch. Those pointers stay valid because
//! `scope` does not return (even on panic — the caller's half runs under
//! `catch_unwind`) until the latch counts every participating worker
//! out. Workers that were parked during the whole scope never observe
//! the generation, and workers whose index is beyond the participant
//! count read the message but never dereference the job pointer.
//!
//! ## Concurrent runs
//!
//! Dispatch is serialized by a try-lock: the first run in wins the pool,
//! any overlapping run (tests run many in parallel) falls back to a
//! plain `std::thread::scope` for that round. Correctness never depends
//! on winning the pool — only steady-state speed does.

// Lock-free job handoff needs raw-pointer lifetime erasure; the safety
// argument is in the module docs above and at each unsafe block.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

use crate::error::SimError;

/// Lock, recovering from poisoning (a panicking scope must not wedge
/// the process-wide pool or the engine that shares it).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Hardware threads available to this process (cached; at least 1).
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Iterations to spin before yielding, when the participant count fits
/// the hardware. Oversubscribed runs (more parties than cores) skip the
/// spin entirely: a spinning thread would only steal the quantum the
/// thread holding the work needs.
const SPIN: u32 = 1 << 14;

/// Yield iterations before escalating to a micro-sleep, so a long wait
/// (e.g. a worker descheduled by the OS) does not burn a core.
const YIELDS_BEFORE_SLEEP: u32 = 256;

fn wait_hint(spin: bool, tries: &mut u32, check: impl Fn() -> bool) -> bool {
    if check() {
        return true;
    }
    *tries += 1;
    if spin && *tries <= SPIN {
        std::hint::spin_loop();
    } else if *tries <= SPIN + YIELDS_BEFORE_SLEEP {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
    false
}

/// A sense-reversing barrier on two atomics with poison support.
///
/// Arrival is one `fetch_add(AcqRel)` on the counter; the last arriver
/// resets the counter and bumps the epoch with `Release`; everyone else
/// spins (adaptively) on the epoch with `Acquire`.
///
/// Memory ordering: every participant's `AcqRel` read-modify-write on
/// `arrived` joins one release sequence, so the last arriver's RMW
/// synchronizes-with all earlier arrivals, and its `Release` store to
/// `epoch` republishes them — a waiter's `Acquire` load of the new epoch
/// therefore happens-after *every* participant's pre-barrier writes.
/// That is the same visibility guarantee `std::sync::Barrier` gives,
/// without the mutex.
pub struct EpochBarrier {
    parties: usize,
    arrived: AtomicUsize,
    epoch: AtomicU64,
    poisoned: AtomicBool,
    /// Spin before yielding? False when oversubscribed.
    spin: bool,
}

impl EpochBarrier {
    /// A barrier for `parties` participants.
    pub fn new(parties: usize) -> Self {
        EpochBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            spin: parties <= hardware_threads(),
        }
    }

    /// Mark the barrier poisoned: every current and future waiter
    /// returns `false` immediately instead of blocking. Used when a
    /// participant panics mid-round; the barrier (and the engine state
    /// it guards) is not reusable afterwards.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// `true` once [`EpochBarrier::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Block until all `parties` participants have arrived. Returns
    /// `true` on a normal release, `false` if the barrier was poisoned
    /// (the caller should abandon the round).
    pub fn wait(&self) -> bool {
        if self.parties <= 1 {
            return !self.is_poisoned();
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset for the next use, then release the
            // epoch. The reset is safe to be Relaxed — no participant
            // arrives for the next barrier use before observing the new
            // epoch, and that observation is an Acquire.
            self.arrived.store(0, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Release);
            return !self.is_poisoned();
        }
        let mut tries = 0u32;
        loop {
            if self.is_poisoned() {
                return false;
            }
            if wait_hint(self.spin, &mut tries, || self.epoch.load(Ordering::Acquire) != epoch) {
                return true;
            }
        }
    }
}

/// The job message workers read: the erased closure, the scope's
/// completion latch, and how many participants this scope wants.
#[derive(Clone, Copy)]
struct JobMsg {
    f: *const (dyn Fn(usize) + Sync),
    ctl: *const ScopeCtl,
    parties: usize,
}

// The pointers are dereferenced only while the publishing `scope` call
// is still blocked in its completion wait (see module docs), and the
// pointees are `Sync`.
unsafe impl Send for JobMsg {}

/// Per-scope completion latch, allocated on the dispatching caller's
/// stack and shared with workers via a raw pointer for exactly the
/// scope's duration.
struct ScopeCtl {
    /// Participating workers that have not finished yet.
    pending: AtomicUsize,
    /// First worker panic, rethrown on the caller after the join.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct JobSlot {
    gen: u64,
    job: Option<JobMsg>,
}

/// A persistent pool of parked worker threads. See the module docs.
pub struct WorkerPool {
    slot: Mutex<JobSlot>,
    cv: Condvar,
    /// Mirrors `slot.gen` so idle workers can spin briefly without
    /// taking the mutex.
    gen_hint: AtomicU64,
    /// Worker threads spawned over the pool's lifetime (monotone; the
    /// pool never shrinks). The pool-reuse regression tests key off
    /// this.
    spawned: AtomicUsize,
    /// Scopes that could not win the dispatch lock and ran on ad-hoc
    /// scoped threads instead.
    fallback_scopes: AtomicUsize,
    dispatch: Mutex<()>,
    /// Guards worker spawning (distinct from `dispatch` so diagnostics
    /// can read counts without racing growth).
    grow: Mutex<()>,
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            slot: Mutex::new(JobSlot { gen: 0, job: None }),
            cv: Condvar::new(),
            gen_hint: AtomicU64::new(0),
            spawned: AtomicUsize::new(0),
            fallback_scopes: AtomicUsize::new(0),
            dispatch: Mutex::new(()),
            grow: Mutex::new(()),
        }
    }

    /// Worker threads spawned so far (monotone).
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Scopes that ran on fallback scoped threads because the pool was
    /// busy with another run.
    pub fn fallback_scopes(&self) -> usize {
        self.fallback_scopes.load(Ordering::Relaxed)
    }

    /// Run `f(0), f(1), …, f(parties - 1)` concurrently and wait for all
    /// of them. The caller runs `f(0)` itself; pool workers run the
    /// rest. `parties <= 1` runs inline without touching the pool. If
    /// another scope currently owns the pool (overlapping runs, or a
    /// nested call from inside a job), this scope runs on plain scoped
    /// threads instead — same result, higher cost.
    ///
    /// Fails with [`SimError::WorkerSpawn`], before any participant
    /// runs, when the pool must grow and the operating system refuses a
    /// thread. Panics in any participant are re-raised on the caller
    /// after every participant has finished. `f`'s own internal
    /// synchronization must tolerate a panicking participant (the
    /// engine's [`EpochBarrier`] does, via poisoning) — the pool only
    /// guarantees that the scope itself never leaks a blocked worker.
    pub fn scope(&self, parties: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), SimError> {
        if parties <= 1 {
            f(0);
            return Ok(());
        }
        let Some(_dispatch) = try_lock(&self.dispatch) else {
            self.fallback_scopes.fetch_add(1, Ordering::Relaxed);
            std::thread::scope(|s| {
                for t in 1..parties {
                    s.spawn(move || f(t));
                }
                f(0);
            });
            return Ok(());
        };
        self.ensure_workers(parties - 1)?;
        let ctl = ScopeCtl { pending: AtomicUsize::new(parties - 1), panic: Mutex::new(None) };
        // SAFETY: lifetime erasure — the unconditional completion wait
        // below guarantees no worker touches `f` (or `ctl`) after this
        // frame is gone; see the module docs.
        let f_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        {
            let mut slot = lock(&self.slot);
            slot.gen += 1;
            slot.job = Some(JobMsg { f: f_erased, ctl: &ctl, parties });
            self.gen_hint.store(slot.gen, Ordering::Release);
            self.cv.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        // Join: the job and latch pointers must outlive every worker's
        // use of them, so this wait is unconditional — even when f(0)
        // panicked.
        let spin = parties <= hardware_threads();
        let mut tries = 0u32;
        while !wait_hint(spin, &mut tries, || ctl.pending.load(Ordering::Acquire) == 0) {}
        if let Err(p) = caller {
            resume_unwind(p);
        }
        let worker_panic = lock(&ctl.panic).take();
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
        Ok(())
    }

    fn ensure_workers(&self, want: usize) -> Result<(), SimError> {
        if self.spawned.load(Ordering::Relaxed) >= want {
            return Ok(());
        }
        let _g = lock(&self.grow);
        let have = self.spawned.load(Ordering::Relaxed);
        for idx in have..want {
            std::thread::Builder::new()
                .name(format!("dima-pool-{idx}"))
                .spawn(move || global().worker_loop(idx))
                .map_err(|e| SimError::WorkerSpawn { error: e.to_string() })?;
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn worker_loop(&self, idx: usize) {
        let mut seen = 0u64;
        loop {
            // Fast path: the next job often arrives within a round's
            // boundary work; spin briefly on the generation hint before
            // parking (only when the hardware has room to spin).
            if hardware_threads() > 1 {
                for _ in 0..SPIN {
                    if self.gen_hint.load(Ordering::Acquire) != seen {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            let msg = {
                let mut slot = lock(&self.slot);
                while slot.gen == seen {
                    slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                seen = slot.gen;
                slot.job
            };
            let Some(m) = msg else { continue };
            if idx + 1 >= m.parties {
                continue;
            }
            // SAFETY: the publishing `scope` is blocked until we count
            // ourselves out of `ctl.pending` below, so both pointers are
            // alive for the whole dereference.
            let (f, ctl) = unsafe { (&*m.f, &*m.ctl) };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(idx + 1))) {
                lock(&ctl.panic).get_or_insert(p);
            }
            ctl.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The process-wide pool. Workers are spawned lazily on first parallel
/// use and persist for the process lifetime.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scope_runs_every_index_exactly_once() {
        let hits: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        global()
            .scope(6, &|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "tid {tid}");
        }
    }

    #[test]
    fn single_party_runs_inline_without_spawning() {
        let before = global().threads_spawned();
        let ran = AtomicU32::new(0);
        global()
            .scope(1, &|tid| {
                assert_eq!(tid, 0);
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(global().threads_spawned(), before);
    }

    #[test]
    fn consecutive_scopes_reuse_workers() {
        global().scope(3, &|_| {}).unwrap();
        let after_first = global().threads_spawned();
        for _ in 0..10 {
            global().scope(3, &|_| {}).unwrap();
        }
        assert_eq!(
            global().threads_spawned(),
            after_first,
            "repeat scopes at the same width must not spawn new threads"
        );
    }

    #[test]
    fn barrier_releases_all_parties_each_use() {
        let parties = 4;
        let barrier = EpochBarrier::new(parties);
        let laps = 50u32;
        let count = AtomicU32::new(0);
        global()
            .scope(parties, &|_tid| {
                for _ in 0..laps {
                    count.fetch_add(1, Ordering::Relaxed);
                    assert!(barrier.wait());
                }
            })
            .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), laps * parties as u32);
    }

    #[test]
    fn barrier_publishes_pre_barrier_writes() {
        // Each lap, every party writes its cell, waits, then checks it
        // can see every other party's write for that lap.
        let parties = 4usize;
        let cells: Vec<AtomicU32> = (0..parties).map(|_| AtomicU32::new(0)).collect();
        let barrier = EpochBarrier::new(parties);
        let tail = EpochBarrier::new(parties);
        global()
            .scope(parties, &|tid| {
                for lap in 1..=100u32 {
                    cells[tid].store(lap, Ordering::Relaxed);
                    assert!(barrier.wait());
                    for c in &cells {
                        assert_eq!(c.load(Ordering::Relaxed), lap);
                    }
                    assert!(tail.wait());
                }
            })
            .unwrap();
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        let parties = 3;
        let barrier = EpochBarrier::new(parties);
        let released = AtomicU32::new(0);
        global()
            .scope(parties, &|tid| {
                if tid == 0 {
                    barrier.poison();
                } else {
                    // Never enough arrivals to release normally; only the
                    // poison lets these two out.
                    if !barrier.wait() {
                        released.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .unwrap();
        assert_eq!(released.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            global()
                .scope(2, &|tid| {
                    if tid == 1 {
                        panic!("boom from worker");
                    }
                })
                .unwrap();
        }));
        assert!(err.is_err());
        // The pool is still usable afterwards.
        let ran = AtomicU32::new(0);
        global()
            .scope(2, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn nested_scope_falls_back_instead_of_deadlocking() {
        let inner_ran = AtomicU32::new(0);
        global()
            .scope(2, &|tid| {
                if tid == 0 {
                    global()
                        .scope(2, &|_| {
                            inner_ran.fetch_add(1, Ordering::Relaxed);
                        })
                        .unwrap();
                }
            })
            .unwrap();
        assert_eq!(inner_ran.load(Ordering::Relaxed), 2);
    }
}
