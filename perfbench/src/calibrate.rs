//! Where the benchmark runs, and how fast the CPU runs right now.
//!
//! The benchmark runs on a few vCPUs of a shared host. Over minutes, the
//! host's other load moves the speed of the same code by up to half: on the
//! 2-vCPU VM the benchmark was tuned on, one seed's edit cycle measured
//! 10.7, 12.6 and 15.5 ms within an hour, and a fixed reference loop moved
//! in step. So the gated latency is read against a yardstick: a fixed
//! workload of the benchmark's own, run between requests on the CPUs the
//! operation runs on. The server and the generator are each pinned to a
//! CPU of their own, so the yardstick knows which CPUs those are.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Minimum time between two yardstick runs in a window.
const INTERVAL: Duration = Duration::from_millis(50);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Option<Vec<usize>> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    Some((0..allowed.len() * 64).filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Pin the calling thread, and what it later spawns, to `cpu`.
fn pin_current_thread(cpu: usize) -> bool {
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) == 0 }
}

/// The server's CPU and the generator's: the first two the benchmark may
/// use (the same one where only one is allowed). With one request in
/// flight the two seldom run at once, and a reply crosses from one core to
/// the other the same way on every run. With both on one CPU, a
/// `migrate-delta` reply took 5 ms in some runs and 10 ms in others.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub server: usize,
    pub client: usize,
}

impl Placement {
    /// Choose the CPUs and pin the calling thread to the generator's.
    /// `None` where the affinity calls fail: the run then goes unpinned.
    pub fn choose() -> Option<Placement> {
        let allowed = allowed_cpus()?;
        let server = *allowed.first()?;
        let client = allowed.get(1).copied().unwrap_or(server);
        pin_current_thread(client).then_some(Placement { server, client })
    }

    /// Run `spawn` pinned to the server's CPU, so the process it starts
    /// inherits that CPU, then return the calling thread to the
    /// generator's.
    pub fn on_server_cpu<T>(self, spawn: impl FnOnce() -> T) -> T {
        pin_current_thread(self.server);
        let spawned = spawn();
        pin_current_thread(self.client);
        spawned
    }
}

/// CPU time the calling thread has used. Unlike wall time it leaves out
/// the time a server thread preempts the yardstick, and keeps what the
/// host's load costs the yardstick's own instructions.
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// One run of the yardstick in ms of thread CPU time. It builds, copies
/// and walks a map of a few thousand short strings, the allocation and
/// pointer-chasing mix of the catalog copy an edit makes, then copies and
/// sums a 1 MB block, the streaming mix of rendering and decoding a large
/// `migrate-delta` reply.
pub fn yardstick_ms() -> f64 {
    let started = thread_cpu_time();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut map = BTreeMap::new();
    for i in 0..3_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        map.insert(format!("k{state:016x}"), vec![i; 6]);
    }
    let copy = black_box(map.clone());
    let mut sum: u64 = copy.iter().map(|(key, values)| key.len() as u64 + values[0]).sum();
    let block = black_box(vec![state; 1 << 17]);
    let block_copy = black_box(block.clone());
    sum = block_copy.iter().fold(sum, |acc, &word| acc.wrapping_add(word));
    black_box(sum);
    (thread_cpu_time() - started).as_secs_f64() * 1e3
}

/// Yardstick runs across a window, at most one per [`INTERVAL`], each on
/// the server's CPU (and with `both_cpus` on the generator's as well).
pub struct Yardstick {
    /// (seconds into the window, ms) per run.
    samples: Vec<(f64, f64)>,
    last: Option<Instant>,
    /// A thread pinned to the server's CPU that runs the yardstick on
    /// request; `None` runs it on the calling thread.
    worker: Option<Worker>,
    /// Also run it on the generator's CPU and count the mean of the two.
    both_cpus: bool,
}

struct Worker {
    run: mpsc::Sender<()>,
    done: mpsc::Receiver<f64>,
    thread: JoinHandle<()>,
}

impl Yardstick {
    pub fn new(placement: Option<Placement>, both_cpus: bool) -> Yardstick {
        let worker = placement.filter(|place| place.server != place.client).map(|place| {
            let (run, runs) = mpsc::channel::<()>();
            let (results, done) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                pin_current_thread(place.server);
                while runs.recv().is_ok() && results.send(yardstick_ms()).is_ok() {}
            });
            Worker { run, done, thread }
        });
        Yardstick { samples: Vec::new(), last: None, worker, both_cpus }
    }

    /// Run the yardstick if [`INTERVAL`] has passed since the last run,
    /// and wait for it. With `both_cpus` it runs on the generator's CPU at
    /// the same time and the run counts the mean of the two. Called between
    /// requests, so its time counts in no latency.
    pub fn tick(&mut self, window: Instant) -> Result<(), String> {
        if self.last.is_some_and(|last| last.elapsed() < INTERVAL) {
            return Ok(());
        }
        let at = window.elapsed().as_secs_f64();
        let ms = match &self.worker {
            Some(worker) => {
                worker.run.send(()).map_err(|_| "the yardstick thread has exited")?;
                let client = self.both_cpus.then(yardstick_ms);
                let server = worker.done.recv().map_err(|_| "the yardstick thread has exited")?;
                client.map_or(server, |client| (server + client) / 2.0)
            }
            None => yardstick_ms(),
        };
        self.samples.push((at, ms));
        self.last = Some(Instant::now());
        Ok(())
    }

    /// Stop the worker thread, wait for it, and return the runs as
    /// (seconds into the window, ms).
    pub fn finish(mut self) -> Result<Vec<(f64, f64)>, String> {
        if let Some(Worker { run, done, thread }) = self.worker.take() {
            drop((run, done));
            thread.join().map_err(|_| "the yardstick thread panicked")?;
        }
        Ok(std::mem::take(&mut self.samples))
    }
}

impl Drop for Yardstick {
    /// On an early return the worker is stopped and joined here.
    fn drop(&mut self) {
        if let Some(Worker { run, done, thread }) = self.worker.take() {
            drop((run, done));
            let _ = thread.join();
        }
    }
}

/// The operation's latency in yardsticks: for each second of the window
/// that holds both, the p50 of the operation's samples over the p50 of the
/// yardstick's; then the median over those seconds. Pairing by second
/// follows the host's load as it changes within the window. Both inputs
/// are (seconds into the window, ms).
pub fn in_yardsticks(op: &[(f64, f64)], yardstick: &[(f64, f64)]) -> f64 {
    let mut seconds: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for &(at, ms) in op {
        seconds.entry(at as u64).or_default().0.push(ms);
    }
    for &(at, ms) in yardstick {
        seconds.entry(at as u64).or_default().1.push(ms);
    }
    let ratios: Vec<f64> = seconds
        .values()
        .filter(|(op, yardstick)| !op.is_empty() && !yardstick.is_empty())
        .map(|(op, yardstick)| median(op) / median(yardstick))
        .collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_takes_time_and_ticks_at_most_once_per_interval() {
        let window = Instant::now();
        let place = Placement { server: 0, client: 1 };
        for (placement, both_cpus) in [(None, false), (Some(place), false), (Some(place), true)] {
            let mut yardstick = Yardstick::new(placement, both_cpus);
            yardstick.tick(window).unwrap();
            yardstick.tick(window).unwrap();
            let samples = yardstick.finish().unwrap();
            assert_eq!(samples.len(), 1);
            assert!(samples[0].1 > 0.0);
        }
    }

    #[test]
    fn in_yardsticks_pairs_each_second_with_its_own_yardstick() {
        // The host is twice as slow in second 1: both double, the ratio
        // stays 4. Second 2 has no yardstick run and is left out.
        let op = [(0.1, 4.0), (0.5, 4.0), (1.2, 8.0), (1.7, 8.0), (2.5, 100.0)];
        let yardstick = [(0.3, 1.0), (1.4, 2.0)];
        assert_eq!(in_yardsticks(&op, &yardstick), 4.0);
    }
}
