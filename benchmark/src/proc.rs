//! Runs one child process and measures it from outside: wall clock from
//! spawn to exit, CPU time and peak memory of its whole process tree from
//! `wait4`'s rusage, and a timeout that kills the tree. Also pins the
//! harness, and so every child, to one CPU at a time.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`, in KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    unread: [i64; 13],
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const SIGKILL: i32 = 9;

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> std::io::Result<Vec<usize>> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((0..64 * allowed.len())
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts this process — and every child it spawns from now on, workers
/// included — to `cpu`.
///
/// Everything that is timed runs on one core at a time. Left to the
/// scheduler, an op's coordinator and workers sometimes run side by side
/// on the reference box's two vCPUs and sometimes one after the other,
/// `cpu_s` unchanged and `wall_s` 25 % apart, for tens of seconds at a
/// stretch; no bound survives a bimodal metric. So `wall_s` is time to a
/// verified answer *on one core*, and what parallelism would buy is read
/// per layer instead (`cq.local_eval_max_s` against `cq.local_eval_sum_s`).
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of the size passed; pid 0 is this
    // process.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// What one finished child cost, and what it said.
#[derive(Clone, Debug)]
pub struct ChildRun {
    pub wall_s: f64,
    /// User + system CPU of the child and every descendant it reaped.
    pub cpu_s: f64,
    /// `ru_maxrss` of the largest process in the child's reaped tree.
    pub peak_rss_mb: f64,
    /// `None` when the child was ended by a signal (including the
    /// timeout's SIGKILL).
    pub exit_code: Option<i32>,
    pub timed_out: bool,
    pub stdout: String,
}

/// Spawns `argv` in its own process group, reads its stdout to the end,
/// and reaps it with `wait4`. After `timeout` the whole group is killed —
/// the wire transports have no read timeout after their handshake, so a
/// wedged worker must end as a failed op, not hang the benchmark.
pub fn run_child(argv: &[String], timeout: Duration) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = Command::new(&argv[0])
        .args(&argv[1..])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0)
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut pipe = child.stdout.take().expect("stdout was piped");

    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || match finished.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => {
                // SAFETY: kill takes plain integers; a negative pid
                // addresses the process group the child leads, which this
                // function created and has not yet reaped.
                unsafe { kill(-pid, SIGKILL) };
                true
            }
            _ => false,
        });

        let mut raw = Vec::new();
        // A read error leaves `raw` short; the caller then fails the op on
        // its missing output.
        let _ = pipe.read_to_end(&mut raw);
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and of the types
        // wait4 fills in; `pid` is this function's own unreaped child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        let wall_s = start.elapsed().as_secs_f64();
        drop(done);
        let timed_out = watchdog.join().expect("the watchdog does not panic");
        if reaped != pid {
            return Err(std::io::Error::last_os_error());
        }

        let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(ChildRun {
            wall_s,
            cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
            exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            timed_out,
            stdout: String::from_utf8_lossy(&raw).into_owned(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        ["sh", "-c", script].map(String::from).to_vec()
    }

    #[test]
    fn captures_exit_code_output_and_rusage() {
        // Burn CPU in a grandchild so the numbers cover the reaped tree.
        let run = run_child(
            &sh("sh -c 'i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done'; echo done; exit 3"),
            Duration::from_secs(60),
        )
        .unwrap();
        assert_eq!(run.exit_code, Some(3));
        assert_eq!(run.stdout, "done\n");
        assert!(!run.timed_out);
        assert!(run.cpu_s > 0.0, "cpu {}", run.cpu_s);
        assert!(run.wall_s >= run.cpu_s / 4.0);
        assert!(run.peak_rss_mb > 0.1, "rss {}", run.peak_rss_mb);
    }

    #[test]
    fn timeout_kills_the_process_tree() {
        let start = Instant::now();
        // The background sleep inherits the group and the stdout pipe: only
        // a group-wide kill lets the read below finish early.
        let run = run_child(&sh("sleep 30 & sleep 30"), Duration::from_millis(200)).unwrap();
        assert!(run.timed_out);
        assert_eq!(run.exit_code, None);
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn pinning_leaves_exactly_the_chosen_cpu() {
        // Runs in a thread of the test binary: affinity is per thread, so
        // the other tests keep their cores.
        std::thread::spawn(|| {
            let cpus = allowed_cpus().unwrap();
            assert!(!cpus.is_empty() && cpus.windows(2).all(|w| w[0] < w[1]));
            for cpu in cpus {
                pin_to(cpu).unwrap();
                assert_eq!(allowed_cpus().unwrap(), [cpu]);
                // children inherit it
                let run = run_child(&sh("nproc"), Duration::from_secs(60)).unwrap();
                assert_eq!(run.stdout.trim(), "1");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn missing_program_is_an_error() {
        let argv = vec!["/nonexistent/program".to_string()];
        assert!(run_child(&argv, Duration::from_secs(1)).is_err());
    }
}
