//! Deterministic parallel sweep executor.
//!
//! Every expensive computation in this reproduction is a grid of
//! *independent, deterministically-seeded cells*: the offline profiler
//! sweeps (division × allocation) cells, the evaluation figures sweep
//! (scenario × co-runner × scheme) cells, and the chaos/attribution
//! matrices multiply those further. Cells never communicate, so the sweep
//! is embarrassingly parallel — but the repository's determinism contract
//! (same seed ⇒ byte-identical traces and reports, `repro trace-diff`
//! self-diffs to exactly zero) must survive the parallelism.
//!
//! [`sweep`] delivers both: cells are claimed from a shared atomic cursor
//! by a small pool of scoped worker threads (work-stealing-lite — idle
//! workers simply take the next unclaimed cell, so an expensive cell never
//! stalls the queue behind it), and results are returned **in canonical
//! cell order** regardless of completion order. Because each cell derives
//! its randomness from its own index/seed and never observes its
//! neighbours, the result vector is bit-identical for every worker count.
//!
//! [`sweep_traced`] extends the guarantee to telemetry: each cell traces
//! into a private in-memory sink, and the per-cell streams are merged into
//! the parent [`Tracer`] in cell order after the sweep, one flushed segment
//! per cell — so the serialized event stream is byte-identical to a serial
//! run's (the determinism argument is: per-cell seeds ⇒ identical per-cell
//! streams; ordered merge ⇒ identical concatenation).
//!
//! The worker count is [`set_jobs`] (the `repro --jobs` flag) when set,
//! else [`std::thread::available_parallelism`]. `jobs = 1` degrades to a plain
//! in-place loop on the calling thread — no pool, no channels.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{MemorySink, TraceRecord, Tracer};

/// Process-wide worker-count override; 0 = unset (fall through to
/// `available_parallelism`).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cumulative executor statistics (see [`stats`]).
static SWEEPS: AtomicU64 = AtomicU64::new(0);
static CELLS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static WALL_NANOS: AtomicU64 = AtomicU64::new(0);
static CLAIM_NANOS: AtomicU64 = AtomicU64::new(0);
static MERGE_NANOS: AtomicU64 = AtomicU64::new(0);
static IDLE_NANOS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    /// Cell-nesting depth of the current thread. A sweep started from
    /// inside another sweep's cell (an unwarmed `ModelCache` build, say)
    /// must not add its wall time to [`WALL_NANOS`] — the outer sweep's
    /// wall already covers it, and double counting would understate every
    /// speedup ratio derived from the stats. The depth is thread-local
    /// (not a global count) so concurrent *independent* sweeps — parallel
    /// test threads — still each count their own wall.
    static CELL_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// RAII marker for "this thread is executing a sweep cell".
struct CellDepthGuard;

impl CellDepthGuard {
    fn enter() -> CellDepthGuard {
        CELL_DEPTH.with(|d| d.set(d.get() + 1));
        CellDepthGuard
    }
}

impl Drop for CellDepthGuard {
    fn drop(&mut self) {
        CELL_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Overrides the worker count for subsequent [`sweep`] calls.
///
/// `0` clears the override (reverting to auto-detection).
/// This is how `repro --jobs <N>` configures the whole harness, and how
/// the determinism tests force `--jobs 1` vs `--jobs N` comparisons.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count a sweep will use: the [`set_jobs`] override, else the
/// machine's available parallelism. Always ≥ 1.
#[must_use]
pub fn jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Cumulative executor counters since process start. Snapshot before and
/// after a study and subtract ([`ExecStats::since`]) to report that
/// study's parallel speedup (`repro` prints this per study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Cells executed across all sweeps.
    pub cells: u64,
    /// Summed per-cell execution time (what a serial run would pay).
    pub busy: Duration,
    /// Summed sweep wall-clock time (what the parallel run paid).
    pub wall: Duration,
    /// Time pool workers spent claiming cells (cursor bump + slot take).
    pub claim: Duration,
    /// Time spent re-emitting per-cell trace records into the parent
    /// tracer, and flushing it after each cell, after a [`sweep_traced`]
    /// sweep (the ordered merge).
    pub merge: Duration,
    /// Pool-worker wall time not accounted to compute or claiming —
    /// result sends plus waiting out the sweep's straggler cells.
    pub idle: Duration,
}

impl ExecStats {
    /// The counter delta `self − earlier` (saturating).
    #[must_use]
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            cells: self.cells.saturating_sub(earlier.cells),
            busy: self.busy.saturating_sub(earlier.busy),
            wall: self.wall.saturating_sub(earlier.wall),
            claim: self.claim.saturating_sub(earlier.claim),
            merge: self.merge.saturating_sub(earlier.merge),
            idle: self.idle.saturating_sub(earlier.idle),
        }
    }

    /// Observed speedup: total cell compute time over sweep wall time
    /// (≈ 1.0 serial; approaches the worker count under ideal scaling).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }
}

/// Cumulative executor statistics since process start.
#[must_use]
pub fn stats() -> ExecStats {
    ExecStats {
        sweeps: SWEEPS.load(Ordering::Relaxed),
        cells: CELLS.load(Ordering::Relaxed),
        busy: Duration::from_nanos(BUSY_NANOS.load(Ordering::Relaxed)),
        wall: Duration::from_nanos(WALL_NANOS.load(Ordering::Relaxed)),
        claim: Duration::from_nanos(CLAIM_NANOS.load(Ordering::Relaxed)),
        merge: Duration::from_nanos(MERGE_NANOS.load(Ordering::Relaxed)),
        idle: Duration::from_nanos(IDLE_NANOS.load(Ordering::Relaxed)),
    }
}

/// Runs `f` over every cell with the ambient worker count ([`jobs`]),
/// returning results in cell order. See [`sweep_jobs`].
pub fn sweep<T, R, F>(cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    sweep_jobs(jobs(), cells, f)
}

/// Runs `f(index, cell)` over every cell on up to `jobs` scoped worker
/// threads, returning the results **in canonical cell order** regardless
/// of completion order.
///
/// Workers claim cells from a shared atomic cursor (an idle worker always
/// takes the next unclaimed cell), finished results flow back over a
/// channel tagged with their cell index, and the collector slots them into
/// place — so neither OS scheduling nor cell cost imbalance can reorder
/// the output. Determinism beyond ordering is the *caller's* contract:
/// `f` must derive any randomness from `index`/its cell alone.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn sweep_jobs<T, R, F>(jobs: usize, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    /// Panic-safe wall accounting: the outermost sweep's wall
    /// contribution must land even when a cell panic unwinds through
    /// `sweep_jobs` (tests assert on the stats afterwards).
    struct WallGuard {
        outermost: bool,
        t0: Instant,
    }
    impl Drop for WallGuard {
        fn drop(&mut self) {
            if self.outermost {
                WALL_NANOS.fetch_add(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    let n = cells.len();
    let jobs = jobs.max(1).min(n.max(1));
    let wall_guard = WallGuard {
        outermost: CELL_DEPTH.with(std::cell::Cell::get) == 0,
        t0: Instant::now(),
    };
    SWEEPS.fetch_add(1, Ordering::Relaxed);
    CELLS.fetch_add(n as u64, Ordering::Relaxed);
    crate::live::sweep_started(n);

    // Self-profiling: the sweep itself is a scope on the calling thread,
    // and every cell runs re-rooted under it ([`crate::prof::with_parent`])
    // so the self-time tree has the same shape at every worker count.
    let prof_sweep = crate::prof::scope("exec.sweep");
    let prof_parent = crate::prof::current_parent();

    let out: Vec<R> = if jobs <= 1 {
        cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let t0 = Instant::now();
                let r = {
                    let _depth = CellDepthGuard::enter();
                    let _cell_scope = crate::prof::scope("exec.cell");
                    f(i, cell)
                };
                BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                crate::live::cell_finished();
                r
            })
            .collect()
    } else {
        // Each cell is claimed exactly once via the cursor; the Mutex is
        // only the safe way to move `T` out of the shared slot vector.
        let slots: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let collected: Vec<Option<R>> = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let tx = tx.clone();
                let slots = &slots;
                let cursor = &cursor;
                let f = &f;
                workers.push(scope.spawn(move || {
                    let worker_t0 = Instant::now();
                    let mut busy_w: u64 = 0;
                    let mut claim_w: u64 = 0;
                    loop {
                        let claim_t0 = Instant::now();
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let cell = slots[i]
                            .lock()
                            .expect("cell slot lock")
                            .take()
                            .expect("each cell is claimed exactly once");
                        claim_w += claim_t0.elapsed().as_nanos() as u64;
                        let t0 = Instant::now();
                        let r = crate::prof::with_parent(prof_parent, || {
                            let _depth = CellDepthGuard::enter();
                            let _cell_scope = crate::prof::scope("exec.cell");
                            f(i, cell)
                        });
                        let busy = t0.elapsed().as_nanos() as u64;
                        busy_w += busy;
                        BUSY_NANOS.fetch_add(busy, Ordering::Relaxed);
                        crate::live::cell_finished();
                        // The collector outlives every sender; a send only
                        // fails if it panicked, and then the scope propagates
                        // that panic anyway.
                        let _ = tx.send((i, r));
                    }
                    CLAIM_NANOS.fetch_add(claim_w, Ordering::Relaxed);
                    let total = worker_t0.elapsed().as_nanos() as u64;
                    IDLE_NANOS.fetch_add(
                        total.saturating_sub(busy_w).saturating_sub(claim_w),
                        Ordering::Relaxed,
                    );
                }));
            }
            drop(tx);
            let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (i, r) in rx {
                out[i] = Some(r);
            }
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            out
        });
        collected
            .into_iter()
            .map(|r| r.expect("every cell reports exactly once"))
            .collect()
    };
    drop(prof_sweep);
    drop(wall_guard);
    out
}

/// [`sweep`] with per-cell telemetry capture: each cell receives a private
/// [`Tracer`], and after the sweep every cell's records are re-emitted
/// into `parent` **in cell order**, each cell's followed by a flush of
/// `parent`. A cell's own flushes land on its private sink, so this flush
/// stands in for them: under an [`crate::telemetry::OrderingSink`] each
/// cell (one run, in the harness) is one sorted segment, and the merged
/// stream is byte-identical to what a serial sweep over the same cells
/// would have emitted.
///
/// When `parent` is disabled the cells get disabled tracers and the merge
/// is skipped entirely — tracing stays zero-cost when off.
pub fn sweep_traced<T, R, F>(parent: &Tracer, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Tracer) -> R + Sync,
{
    if !parent.is_enabled() {
        return sweep(cells, |i, cell| f(i, cell, Tracer::disabled()));
    }
    let traced: Vec<(R, Vec<TraceRecord>)> = sweep(cells, |i, cell| {
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        let r = f(i, cell, tracer);
        let records = std::mem::take(&mut *sink.lock().expect("cell sink lock")).into_records();
        (r, records)
    });
    let merge_t0 = Instant::now();
    let out = {
        let _merge_scope = crate::prof::scope("exec.merge");
        traced
            .into_iter()
            .map(|(r, records)| {
                for TraceRecord { at, event } in records {
                    parent.emit(at, || event);
                }
                parent.flush();
                r
            })
            .collect()
    };
    MERGE_NANOS.fetch_add(merge_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{MutexGuard, PoisonError};

    use crate::telemetry::{Event, MemorySink, TraceRecord, Tracer};
    use crate::time::SimTime;

    /// Held by every test that runs a sweep or sets the worker count: both
    /// touch the process-global executor counters and override, which
    /// `stats_accumulate_busy_and_wall_time` reads as exact deltas.
    static GLOBALS: Mutex<()> = Mutex::new(());

    /// Poison is ignored because `worker_panics_propagate` panics on purpose
    /// while holding the lock.
    fn lock_globals() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_cell_order_for_any_job_count() {
        let _globals = lock_globals();
        let cells: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 4, 8] {
            let out = sweep_jobs(jobs, cells.clone(), |i, c| {
                assert_eq!(i, c);
                // Uneven cell cost: later cells finish first under
                // parallelism, exercising the reorder path.
                if c % 5 == 0 {
                    std::thread::yield_now();
                }
                c * 10
            });
            assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps_work() {
        let _globals = lock_globals();
        let empty: Vec<u32> = Vec::new();
        assert!(sweep_jobs(4, empty, |_, c: u32| c).is_empty());
        assert_eq!(sweep_jobs(4, vec![9u32], |_, c| c + 1), vec![10]);
    }

    #[test]
    fn traced_sweep_merges_in_cell_order_regardless_of_jobs() {
        let _globals = lock_globals();
        let run = |jobs: usize| -> Vec<String> {
            set_jobs(jobs);
            let (parent, sink) = Tracer::shared(MemorySink::new());
            let cells: Vec<usize> = (0..12).collect();
            let out = sweep_traced(&parent, cells, |i, _, tracer| {
                tracer.emit(SimTime::from_secs(i as u64), || Event::ProfilerProgress {
                    completed: i + 1,
                    total: 12,
                    division: i,
                    config: 0,
                });
                i
            });
            set_jobs(0);
            assert_eq!(out, (0..12).collect::<Vec<_>>());
            let lines: Vec<String> = sink
                .lock()
                .expect("sink lock")
                .records()
                .iter()
                .map(TraceRecord::to_jsonl)
                .collect();
            lines
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.len(), 12);
        assert_eq!(serial, parallel, "merged trace must be order-identical");
    }

    #[test]
    fn each_cell_is_its_own_sorted_segment() {
        use crate::telemetry::OrderingSink;
        let _globals = lock_globals();
        let record = |division: usize, secs: u64| TraceRecord {
            at: SimTime::from_secs(secs),
            event: Event::ProfilerProgress {
                completed: 0,
                total: 0,
                division,
                config: 0,
            },
        };
        for jobs in [1, 2] {
            set_jobs(jobs);
            let (parent, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
            sweep_traced(&parent, (0..3).collect(), |_, cell: usize, tracer| {
                // Out of time order, then the run's own closing flush.
                for secs in [3, 1, 2] {
                    tracer.emit(SimTime::from_secs(secs), || record(cell, secs).event);
                }
                tracer.flush();
            });
            set_jobs(0);
            // The invocation's own closing flush.
            parent.flush();
            let expected: Vec<TraceRecord> = (0..3)
                .flat_map(|cell| [1, 2, 3].map(|secs| record(cell, secs)))
                .collect();
            let sink = sink.lock().expect("sink lock");
            assert_eq!(sink.inner().records(), expected, "jobs {jobs}");
        }
    }

    #[test]
    fn disabled_parent_hands_out_disabled_tracers() {
        let _globals = lock_globals();
        let parent = Tracer::disabled();
        let out = sweep_traced(&parent, vec![1, 2, 3], |_, c, tracer| {
            assert!(!tracer.is_enabled());
            c * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn stats_accumulate_busy_and_wall_time() {
        let _globals = lock_globals();
        let before = stats();
        let _ = sweep_jobs(2, (0..8).collect::<Vec<_>>(), |_, c: u64| {
            std::thread::sleep(Duration::from_millis(2));
            c
        });
        let delta = stats().since(&before);
        assert_eq!(delta.sweeps, 1);
        assert_eq!(delta.cells, 8);
        assert!(delta.busy >= Duration::from_millis(16));
        assert!(delta.wall > Duration::ZERO);
        assert!(delta.speedup() > 0.0);
    }

    #[test]
    fn jobs_override_takes_priority() {
        let _globals = lock_globals();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "cell panic")]
    fn worker_panics_propagate() {
        let _globals = lock_globals();
        let _ = sweep_jobs(4, (0..16).collect::<Vec<_>>(), |_, c: u32| {
            assert!(c != 7, "cell panic");
            c
        });
    }
}
