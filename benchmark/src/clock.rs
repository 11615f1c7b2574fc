//! The host clocks of the single-threaded measurements.
//!
//! [`cpu`] is the time the calling thread has spent on a CPU. The sandbox
//! is a shared microVM: the hypervisor steals 0–10% of a run's wall time,
//! differently from run to run; the kernel keeps stolen and preempted
//! time out of this clock, and the workloads never sleep or wait for I/O.
//!
//! On-CPU time is still not steady here. The physical core's other
//! hardware thread belongs to other tenants, and while it is busy — for
//! seconds at a time — the same code takes about 1.4× as long. A
//! [`Metronome`] therefore runs a fixed reference kernel on the same CPU
//! every [`PERIOD`], and the end-to-end timings are reported in
//! *reference seconds*: on-CPU seconds × [`REFERENCE_S`] ÷ the mean time
//! the kernel took meanwhile. On a quiet machine of the kind the
//! benchmark was defined on, a reference second is a second.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    s: i64,
    ns: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU time of the calling thread so far.
pub fn cpu() -> Duration {
    let mut ts = Timespec { s: 0, ns: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    Duration::new(ts.s as u64, ts.ns as u32)
}

/// What the reference kernel takes on a quiet core of the machine the
/// benchmark was defined on (Xeon @ 2.1 GHz, Sapphire Rapids). The unit
/// of the reported host times: a change here rescales every baseline.
pub const REFERENCE_S: f64 = 0.001;
/// How often the metronome samples: 5% of one CPU.
const PERIOD: Duration = Duration::from_millis(20);

/// The reference kernel: eight independent multiply-add-rotate chains,
/// registers only. Its throughput, like the simulator's and unlike a
/// single dependent chain's, falls when the core's other hardware thread
/// is busy (measured: kernel ×1.6, `reg_sgx` ×1.4, dependent chain ×1.0).
fn reference_kernel(seed: u64) -> u64 {
    let mut lanes = [seed, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..350_000u64 {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = lane
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64)
                .rotate_left(17);
        }
    }
    lanes.iter().fold(0, |acc, lane| acc ^ lane)
}

/// One timed interval on the measuring thread.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    pub from: Instant,
    pub to: Instant,
    /// On-CPU seconds of the measuring thread over the interval.
    pub cpu_s: f64,
}

impl Lap {
    /// Times `work` on the calling thread.
    pub fn time<T>(work: impl FnOnce() -> T) -> (Lap, T) {
        let (from, started) = (Instant::now(), cpu());
        let out = work();
        let cpu_s = (cpu() - started).as_secs_f64();
        let lap = Lap {
            from,
            to: Instant::now(),
            cpu_s,
        };
        (lap, out)
    }
}

/// When a reference-kernel run ended and the on-CPU seconds it took.
type Sample = (Instant, f64);

/// Mean on-CPU seconds of the reference kernels that ended within `lap`
/// or within two [`PERIOD`]s either side of it, so that a lap shorter
/// than the period still has its neighbours. Allocates nothing: it runs
/// inside phases that count allocations.
fn mean_around(samples: &[Sample], lap: &Lap) -> Result<f64, String> {
    let from = lap.from.checked_sub(2 * PERIOD).unwrap_or(lap.from);
    let near = from..=(lap.to + 2 * PERIOD);
    let (sum, n) = samples
        .iter()
        .filter(|(at, _)| near.contains(at))
        .fold((0.0, 0u32), |(sum, n), &(_, took)| (sum + took, n + 1));
    if n == 0 {
        return Err(format!(
            "no reference sample near an interval of {:.3} s: the sampler is starved",
            (lap.to - lap.from).as_secs_f64()
        ));
    }
    Ok(sum / f64::from(n))
}

/// A second thread, pinned with the measuring thread to one CPU, that
/// wakes every [`PERIOD`] and times one reference kernel on its own
/// on-CPU clock. Its time is not on the measuring thread's clock.
pub struct Metronome {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
}

impl Metronome {
    /// Pins the process to the CPU it is on and starts sampling.
    pub fn start() -> Result<Metronome, String> {
        // SAFETY: no arguments; returns the CPU number or -1.
        let cpu_index = unsafe { sched_getcpu() };
        if !(0..1024).contains(&cpu_index) {
            return Err(format!("sched_getcpu returned {cpu_index}"));
        }
        let mut mask = [0u64; 16];
        mask[cpu_index as usize / 64] = 1 << (cpu_index % 64);
        // SAFETY: `mask` is a readable 128-byte CPU set, the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(format!("cannot pin to CPU {cpu_index}"));
        }
        // Room for five minutes: the sampler never allocates while a
        // workload counts allocations.
        let samples = Arc::new(Mutex::new(Vec::with_capacity(16_384)));
        let stop = Arc::new(AtomicBool::new(false));
        let (sink, stopped) = (Arc::clone(&samples), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let mut carry = 0;
            while !stopped.load(Ordering::Relaxed) {
                let started = cpu();
                carry = reference_kernel(std::hint::black_box(carry | 1));
                let took = (cpu() - started).as_secs_f64();
                let mut sink = sink.lock().expect("the sampler never panics");
                if sink.len() < sink.capacity() {
                    sink.push((Instant::now(), took));
                }
                drop(sink);
                std::thread::sleep(PERIOD);
            }
            carry
        });
        Ok(Metronome {
            samples,
            stop,
            thread: Some(thread),
        })
    }

    /// Mean on-CPU seconds of the reference kernels run around `lap`.
    pub fn reference(&self, lap: &Lap) -> Result<f64, String> {
        mean_around(&self.samples.lock().expect("the sampler never panics"), lap)
    }
}

/// `cpu_s` on-CPU seconds, spent while the reference kernel took
/// `reference_s`, in reference seconds.
pub fn reference_seconds(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * REFERENCE_S / reference_s
}

impl Drop for Metronome {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The sampler's result only keeps the kernel from being optimised out.
        if self.thread.take().is_some_and(|t| t.join().is_err()) {
            eprintln!("the metronome thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_cancel_a_slow_machine() {
        // The same work on a machine phase 1.5x slower: 1.5x the on-CPU
        // time while the kernel takes 1.5x as long.
        let quiet = reference_seconds(2.0, REFERENCE_S);
        let busy = reference_seconds(3.0, 1.5 * REFERENCE_S);
        assert_eq!(quiet, 2.0);
        assert!((busy - quiet).abs() < 1e-12);
    }

    #[test]
    fn a_lap_is_normalised_by_the_samples_around_it_only() {
        let origin = Instant::now() + Duration::from_secs(1);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        // One sample every 100 ms; the i-th took i + 1 ms.
        let samples: Vec<Sample> = (0..10)
            .map(|i| (at(100 * i), 0.001 * (i + 1) as f64))
            .collect();
        let lap = Lap {
            from: at(200),
            to: at(400),
            cpu_s: 0.2,
        };
        // Those at 200, 300 and 400 ms took 3, 4 and 5 ms.
        assert!((mean_around(&samples, &lap).unwrap() - 0.004).abs() < 1e-12);
        let between = Lap {
            from: at(945),
            to: at(950),
            cpu_s: 0.005,
        };
        assert!(mean_around(&samples, &between).is_err());
    }
}
