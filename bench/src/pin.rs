//! One CPU for the measured part of a run.
//!
//! The sandbox gives the benchmark two virtual CPUs of a shared host. What
//! keeps both busy (two miner threads, or a client thread and a daemon
//! worker that never sleep) reads up to a third slower whenever a neighbour
//! takes a share of either, and a client and a worker on *different* idle
//! CPUs wake each other through the hypervisor, which costs more than the
//! request (85 µs round trips where the program's part is 22 µs). With the
//! harness and the daemons it spawns on one CPU, a closed loop is a plain
//! context switch, at most one thread runs at a time, and the other CPU
//! takes the machine's background work.
//!
//! One CPU also makes the hypervisor's share countable: `/proc/stat` says
//! per CPU how long it was kept from this guest ("steal"), and with
//! everything on one CPU that is time the program did not run. [`Stopwatch`]
//! takes it out of every duration the window measures.
//!
//! `std` has no affinity call; the two libc functions are bound directly,
//! as `tc-store` binds `mmap`.

use std::io;
use std::time::Instant;

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs a thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    /// The calling thread's set.
    pub fn current() -> io::Result<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `mask` points at `WORDS * 8` writable bytes, the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, set.0.as_mut_ptr()) };
        if rc == 0 {
            Ok(set)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Moves the calling thread onto this set. Threads and processes it
    /// starts afterwards inherit it.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `mask` points at `WORDS * 8` readable bytes, the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The number of the set's highest CPU; `None` for an empty set.
    pub fn last(&self) -> Option<usize> {
        let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        Some(64 * word + 63 - bits.leading_zeros() as usize)
    }

    /// The highest-numbered CPU of the set alone (interrupts tend to land
    /// on the lowest); `None` for an empty set.
    pub fn last_only(&self) -> Option<CpuSet> {
        let cpu = self.last()?;
        let mut one = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        Some(CpuSet(one))
    }
}

/// Seconds since boot that the hypervisor kept `cpu` from this guest: the
/// eighth number of its `/proc/stat` line, in ticks of 10 ms. 0 where the
/// file or the column is missing.
fn stolen_secs(cpu: usize) -> f64 {
    let name = format!("cpu{cpu}");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat
                .lines()
                .find(|l| l.split_whitespace().next() == Some(&name))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A duration on the run's one CPU, without what the hypervisor took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall time less stolen time.
    pub secs: f64,
    /// The stolen time.
    pub stolen: f64,
}

impl Timed {
    /// More than 2 % of the wall time was stolen: what remains is still the
    /// slower for it (cold caches after every gap, requests that straddle
    /// one), so such a unit ranks behind every undisturbed one.
    pub fn disturbed(self) -> bool {
        self.stolen > 0.02 * (self.secs + self.stolen)
    }

    /// As [`crate::stats::best_quarter`] takes it.
    pub fn unit(self) -> (f64, bool) {
        (self.secs, self.disturbed())
    }
}

impl std::ops::Add for Timed {
    type Output = Timed;

    fn add(self, other: Timed) -> Timed {
        Timed {
            secs: self.secs + other.secs,
            stolen: self.stolen + other.stolen,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: usize,
    started: Instant,
    stolen_before: f64,
}

impl Stopwatch {
    /// Starts timing work that runs on `cpu` alone.
    pub fn start(cpu: usize) -> Stopwatch {
        Stopwatch {
            cpu,
            stolen_before: stolen_secs(cpu),
            started: Instant::now(),
        }
    }

    pub fn cpu(&self) -> usize {
        self.cpu
    }

    pub fn stop(self) -> Timed {
        let wall = self.started.elapsed().as_secs_f64();
        let stolen = (stolen_secs(self.cpu) - self.stolen_before).clamp(0.0, wall);
        Timed {
            secs: wall - stolen,
            stolen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_only_keeps_the_highest_cpu() {
        let mut words = [0; WORDS];
        words[0] = 0b1011;
        words[1] = 0b0110;
        let one = CpuSet(words).last_only().unwrap();
        assert_eq!((one.0[0], one.0[1]), (0, 0b0100));
        assert!(one.0[2..].iter().all(|w| *w == 0));
        assert_eq!(CpuSet(words).last(), Some(66));
        assert_eq!(CpuSet([0; WORDS]).last_only(), None);
    }

    #[test]
    fn a_stopwatch_never_reads_more_than_the_wall() {
        let wall = Instant::now();
        let watch = Stopwatch::start(CpuSet::current().unwrap().last().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let timed = watch.stop();
        assert!(timed.secs > 0.0 && timed.secs + timed.stolen <= wall.elapsed().as_secs_f64());
        let clean = Timed {
            secs: 0.99,
            stolen: 0.01,
        };
        assert!(!clean.disturbed() && (clean + clean).unit() == (1.98, false));
        let robbed = Timed {
            secs: 0.9,
            stolen: 0.1,
        };
        assert!(robbed.disturbed() && (clean + robbed).disturbed());
        // A CPU /proc/stat does not list has lost nothing.
        assert_eq!(stolen_secs(100_000), 0.0);
    }

    #[test]
    fn a_spawned_thread_inherits_the_pinned_cpu() {
        // On a thread of its own, so the test runner's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let all = CpuSet::current().unwrap();
            let one = all.last_only().unwrap();
            one.apply().unwrap();
            assert_eq!(CpuSet::current().unwrap(), one);
            let child = std::thread::spawn(|| CpuSet::current().unwrap());
            assert_eq!(child.join().unwrap(), one);
            all.apply().unwrap();
            assert_eq!(CpuSet::current().unwrap(), all);
        })
        .join()
        .unwrap();
    }
}
