//! On-CPU time and memory as the kernel books them (`/proc`), so cost
//! per query is immune to a noisy neighbour stretching wall time.

use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made first thing in `main`, so it
/// is the process's start for `setup_s`). One clock for the generator's
/// stamps and the tracer's spans, so a trace file has one time axis.
/// Never 0, which lets 0 mean "unset" in the in-flight table.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Scheduler books of one or more threads, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl Cpu {
    /// Books accumulated since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &str) -> Cpu {
    let mut it = text
        .split_ascii_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    Cpu {
        run_ns: it.next().unwrap_or(0),
        wait_ns: it.next().unwrap_or(0),
    }
}

/// The live threads of this process whose name starts with `prefix`
/// (`netio-` for everything `serve()` spawns). Looked up once per
/// phase; [`Threads::cpu`] is then a handful of small reads.
#[derive(Debug, Default)]
pub struct Threads {
    tids: Vec<String>,
}

impl Threads {
    /// Scans `/proc/self/task` for threads named `prefix*`.
    pub fn named(prefix: &str) -> Threads {
        let mut tids = Vec::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let tid = entry.file_name().to_string_lossy().into_owned();
                let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm"));
                if comm.is_ok_and(|c| c.starts_with(prefix)) {
                    tids.push(tid);
                }
            }
        }
        tids.sort();
        Threads { tids }
    }

    /// [`Threads::named`], waiting up to 200 ms for a first match: a
    /// thread names itself just after it starts.
    pub fn await_named(prefix: &str) -> Threads {
        for _ in 0..200 {
            let found = Threads::named(prefix);
            if found.len() > 0 {
                return found;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Threads::default()
    }

    /// How many threads matched.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Summed books of the matched threads (a thread that has exited
    /// since the scan contributes nothing).
    pub fn cpu(&self) -> Cpu {
        let mut total = Cpu::default();
        for tid in &self.tids {
            if let Ok(text) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
                let c = parse_schedstat(&text);
                total.run_ns += c.run_ns;
                total.wait_ns += c.wait_ns;
            }
        }
        total
    }
}

/// Books of the calling thread.
pub fn this_thread_cpu() -> Cpu {
    fs::read_to_string("/proc/thread-self/schedstat")
        .map(|t| parse_schedstat(&t))
        .unwrap_or_default()
}

/// User + system CPU seconds of the whole process, exited threads
/// included (what per-thread books lose when `resolve()` joins its
/// workers). Resolution is one clock tick (10 ms), so only deltas over
/// seconds of work are meaningful.
pub fn process_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// Peak resident set of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_books_advance_under_work() {
        let before = this_thread_cpu();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = this_thread_cpu().since(before);
        assert!(
            spent.run_ns > 5_000_000,
            "30 ms of spinning booked only {} ns",
            spent.run_ns
        );
        assert!(peak_rss_mb() > 0.5);
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn threads_are_found_by_name_prefix() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("pb-sys-test".into())
            .spawn(move || {
                let _ = rx.recv();
            })
            .unwrap();
        let found = Threads::await_named("pb-sys-").len();
        drop(tx);
        h.join().unwrap();
        assert_eq!(found, 1);
    }
}
