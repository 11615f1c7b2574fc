//! The deterministic parallel sweep runner.
//!
//! Bench sweeps are embarrassingly parallel: every (sweep-point, seed)
//! engine run is a pure function of its inputs, single-threaded, and
//! independent of every other run. The runner fans a job list out
//! across `std::thread` workers and merges the results — and the
//! observability each job recorded — back in **canonical job order**,
//! so every artifact downstream of the merge is a pure function of the
//! job list: byte-identical whether the sweep ran on 1 thread or 16.
//!
//! The mechanics that make the merge exact:
//!
//! * each worker marks itself strict ([`hub::set_strict`]) and installs
//!   a **fresh hub per job**, so a job's metrics and spans land in its
//!   own context instead of silently no-opping (the pre-runner failure
//!   mode) or interleaving nondeterministically with other workers;
//! * after all jobs finish, the per-job [`Obs`] contexts are folded
//!   into the coordinator's hub in job-index order ([`Obs::merge`]
//!   remaps span ids exactly as a serial run would have assigned them);
//! * jobs always run on spawned workers — never inline on the caller's
//!   thread — so the caller's own ambient hub survives untouched;
//! * wall-clock time is measured but quarantined in [`RunnerStats`],
//!   which renders into the artifacts' one maskable `"runner"` line —
//!   it never touches the hub or the merged results.

use shield5g_obs::export::JsonObj;
use shield5g_obs::hub::{self, Obs, ObsHandle};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One unit of sweep work: runs on a worker thread with a fresh hub
/// installed, returns its result. Everything it needs is moved in.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// What the runner measured about a sweep execution. Wall-clock figures
/// live here — and only here — so the merged results stay byte-
/// identical across thread counts while each BENCH artifact still
/// reports how fast the sweep ran.
#[derive(Clone, Copy, Debug)]
pub struct RunnerStats {
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Wall-clock duration from first job queued to last job merged.
    pub wall: Duration,
    /// Summed per-job execution time across all workers — what the
    /// sweep would have cost serially.
    pub busy: Duration,
}

impl RunnerStats {
    /// Effective speedup over a serial run: summed job time divided by
    /// wall time. A 4-thread run of uniform jobs reports close to 4.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }

    /// Renders the `"runner"` block for [`bench_json_with_runner`]
    /// (`threads`, `jobs`, `wall_time_s`, `busy_time_s`, `speedup`).
    ///
    /// [`bench_json_with_runner`]: shield5g_obs::export::bench_json_with_runner
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("threads", self.threads as u64)
            .u64("jobs", self.jobs as u64)
            .f64("wall_time_s", self.wall.as_secs_f64())
            .f64("busy_time_s", self.busy.as_secs_f64())
            .f64("speedup", self.speedup())
            .render()
    }
}

/// Worker-thread count for bench sweeps: `SHIELD5G_BENCH_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when that is unknowable).
#[must_use]
pub fn threads() -> usize {
    if let Some(n) = std::env::var("SHIELD5G_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `jobs` across `threads` workers and merges results — and the
/// observability every job recorded — back in job order.
///
/// Each worker is strict about recording: a fresh [`ObsHandle`] is
/// installed per job, and the per-job [`Obs`] contexts are folded into
/// `hub` in job-index order after all workers finish, reproducing
/// byte-for-byte what a serial run recording into `hub` would have
/// produced. The returned results vector is index-aligned with `jobs`.
///
/// # Panics
///
/// Propagates the first job panic after all workers stop (a poisoned
/// queue mutex); panics if a worker died without delivering its slot.
#[must_use]
pub fn run_sweep<T: Send>(
    hub: &ObsHandle,
    threads: usize,
    jobs: Vec<Job<T>>,
) -> (Vec<T>, RunnerStats) {
    let threads = threads.max(1);
    let job_count = jobs.len();
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock speedup, quarantined in RunnerStats (the maskable \"runner\" line)"
    )]
    let started = std::time::Instant::now();

    let queue: Mutex<VecDeque<(usize, Job<T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<(T, Obs, Duration)>>> =
        Mutex::new((0..job_count).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(job_count.max(1)) {
            scope.spawn(|| {
                // A miss on a worker is a runner bug (a job recorded
                // outside its installed hub), not an obs-off run.
                hub::set_strict(true);
                loop {
                    #[expect(clippy::expect_used, reason = "held only across a panic-free pop")]
                    let next = queue.lock().expect("queue poisoned").pop_front();
                    let Some((index, job)) = next else { break };
                    let job_hub = ObsHandle::new();
                    #[expect(
                        clippy::disallowed_types,
                        reason = "per-job busy time for RunnerStats, never recorded to the hub"
                    )]
                    let job_started = std::time::Instant::now();
                    let result = {
                        let _scope = hub::scoped(&job_hub);
                        job()
                    };
                    let elapsed = job_started.elapsed();
                    let recorded = job_hub.with(std::mem::take);
                    #[expect(clippy::expect_used, reason = "held only for an in-bounds store")]
                    let mut filled = slots.lock().expect("slots poisoned");
                    filled[index] = Some((result, recorded, elapsed));
                }
                hub::set_strict(false);
            });
        }
    });

    let mut results = Vec::with_capacity(job_count);
    let mut busy = Duration::ZERO;
    #[expect(clippy::expect_used, reason = "no worker panicked holding this lock")]
    let slots = slots.into_inner().expect("slots poisoned");
    for slot in slots {
        #[expect(clippy::expect_used, reason = "each job filled its slot or panicked")]
        let (result, recorded, elapsed) = slot.expect("worker died before delivering its job");
        // Canonical-order merge: job 0's spans and metrics land first,
        // then job 1's, … — independent of which worker ran what when.
        hub.with(|o| o.merge(recorded));
        busy += elapsed;
        results.push(result);
    }

    let stats = RunnerStats {
        threads,
        jobs: job_count,
        wall: started.elapsed(),
        busy,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_list(n: usize) -> Vec<Job<usize>> {
        (0..n)
            .map(|i| {
                Box::new(move || {
                    hub::count("runner-test", "job", "ran", 1);
                    hub::observe("runner-test", "job", "index", i as u64);
                    i * i
                }) as Job<usize>
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_job_order() {
        let hub = ObsHandle::new();
        let (results, stats) = run_sweep(&hub, 4, job_list(9));
        assert_eq!(results, (0..9).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 9);
        assert_eq!(stats.threads, 4);
        assert_eq!(
            hub.with(|o| o.registry.counter("runner-test", "job", "ran")),
            9
        );
    }

    #[test]
    fn merged_recording_is_thread_count_invariant() {
        let render = |threads: usize| {
            let hub = ObsHandle::new();
            let (_, _) = run_sweep(&hub, threads, job_list(8));
            hub.with(|o| {
                (
                    shield5g_obs::export::prometheus(&o.registry),
                    shield5g_obs::export::spans_jsonl(&o.spans),
                )
            })
        };
        let serial = render(1);
        assert_eq!(serial, render(2));
        assert_eq!(serial, render(4));
    }

    #[test]
    fn caller_hub_survives_the_sweep() {
        let ambient = ObsHandle::new();
        let _scope = hub::scoped(&ambient);
        hub::count("caller", "main", "before", 1);
        let merged = ObsHandle::new();
        let (_, _) = run_sweep(&merged, 2, job_list(3));
        // Jobs ran on workers: the caller's ambient hub is still
        // installed and still records.
        hub::count("caller", "main", "after", 1);
        assert_eq!(
            ambient.with(|o| o.registry.counter("caller", "main", "before")),
            1
        );
        assert_eq!(
            ambient.with(|o| o.registry.counter("caller", "main", "after")),
            1
        );
        assert_eq!(
            ambient.with(|o| o.registry.counter("runner-test", "job", "ran")),
            0
        );
        assert_eq!(
            merged.with(|o| o.registry.counter("runner-test", "job", "ran")),
            3
        );
    }

    #[test]
    fn empty_job_list_is_fine() {
        let hub = ObsHandle::new();
        let (results, stats) = run_sweep::<u32>(&hub, 4, Vec::new());
        assert!(results.is_empty());
        assert_eq!(stats.jobs, 0);
        assert!(stats.speedup() >= 0.0);
    }

    #[test]
    fn stats_render_a_runner_block() {
        let hub = ObsHandle::new();
        let (_, stats) = run_sweep(&hub, 2, job_list(4));
        let json = stats.to_json();
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"jobs\":4"));
        assert!(json.contains("\"wall_time_s\":"));
        assert!(json.contains("\"speedup\":"));
    }

    #[test]
    fn threads_env_override_parses() {
        // Only exercise the parse path indirectly: threads() must be
        // positive whatever the environment says.
        assert!(threads() >= 1);
    }
}
