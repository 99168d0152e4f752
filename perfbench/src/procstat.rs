//! CPU, steal and memory sampling from procfs.
//!
//! Thread CPU is grouped by the thread name in
//! `/proc/self/task/<tid>/stat`. The time comes from the same task's
//! `schedstat` (nanoseconds), or from `stat`'s utime + stime (clock
//! ticks) where `schedstat` is missing: a 250 ms slice of a lightly
//! loaded thread holds only a few ticks. Threads exit when the server
//! shuts down, so a window's closing sample must be taken before
//! `KvServer::shutdown`.

use std::fs;

/// Thread groups the benchmark attributes CPU time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `dido-reactor-*`: connection plane (RV framing).
    Reactor,
    /// `dido-dispatch-*`: batch dispatcher, which also runs the engine.
    Dispatch,
    /// `dido-sd-*`: SD egress shards.
    Sd,
    /// `dido-controller`: adaptation controller and TTL sweeper.
    Controller,
    /// `bench-client-*`: the load generator's connection threads.
    Client,
}

/// Number of [`Group`] variants.
pub const GROUPS: usize = 5;

/// Thread-name prefix of the load generator's connection threads (the
/// kernel keeps at most 15 bytes of a thread name).
pub const CLIENT_PREFIX: &str = "bench-client-";

impl Group {
    /// Every group, in index order.
    pub const ALL: [Group; GROUPS] = [
        Group::Reactor,
        Group::Dispatch,
        Group::Sd,
        Group::Controller,
        Group::Client,
    ];

    /// The group a thread named `comm` belongs to, if any.
    #[must_use]
    pub fn of(comm: &str) -> Option<Group> {
        if comm.starts_with("dido-reactor-") {
            Some(Group::Reactor)
        } else if comm.starts_with("dido-dispatch-") {
            Some(Group::Dispatch)
        } else if comm.starts_with("dido-sd-") {
            Some(Group::Sd)
        } else if comm == "dido-controller" {
            Some(Group::Controller)
        } else if comm.starts_with(CLIENT_PREFIX) {
            Some(Group::Client)
        } else {
            None
        }
    }

    /// Whether the group is one of the server's own threads.
    #[must_use]
    pub fn is_server(self) -> bool {
        self != Group::Client
    }
}

/// Split one `/proc/<pid>/task/<tid>/stat` line into the thread name
/// and its CPU time (utime + stime) in clock ticks.
///
/// The name sits between the first `(` and the *last* `)`: a name may
/// itself contain spaces and parentheses, so neither whitespace
/// splitting nor the first `)` finds its end.
#[must_use]
pub fn parse_task_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = &line[open + 1..close];
    // After the name: state (field 3) ... utime (14), stime (15).
    let mut rest = line[close + 1..].split_ascii_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Time the task has run on a CPU, in ns: the first field of
/// `/proc/<pid>/task/<tid>/schedstat`.
#[must_use]
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// The host-wide steal time in clock ticks: the eighth value of the
/// aggregate `cpu` line of `/proc/stat`.
#[must_use]
pub fn parse_steal(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// CPU time per thread group at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// CPU ns per group, indexed by `Group as usize`.
    pub ns: [u64; GROUPS],
    /// Host steal ticks (all CPUs), from `/proc/stat`.
    pub steal: u64,
}

impl CpuSample {
    /// Read every thread of this process and the host steal counter.
    #[must_use]
    pub fn take() -> CpuSample {
        let mut sample = CpuSample::default();
        let ns_per_tick = 1e9 / clock_ticks_per_sec();
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(line) = fs::read_to_string(task.path().join("stat")) else {
                    continue;
                };
                let Some((comm, ticks)) = parse_task_stat(&line) else {
                    continue;
                };
                let Some(g) = Group::of(comm) else {
                    continue;
                };
                sample.ns[g as usize] += fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|l| parse_schedstat(&l))
                    .unwrap_or((ticks as f64 * ns_per_tick) as u64);
            }
        }
        sample.steal = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_steal(&s))
            .unwrap_or(0);
        sample
    }

    /// CPU seconds `group` spent between `earlier` and `self`.
    #[must_use]
    pub fn secs_since(&self, earlier: &CpuSample, group: Group) -> f64 {
        let i = group as usize;
        self.ns[i].saturating_sub(earlier.ns[i]) as f64 / 1e9
    }

    /// CPU seconds of every server thread group between `earlier` and
    /// `self`.
    #[must_use]
    pub fn server_secs_since(&self, earlier: &CpuSample) -> f64 {
        Group::ALL
            .iter()
            .filter(|g| g.is_server())
            .map(|&g| self.secs_since(earlier, g))
            .sum()
    }

    /// Host steal seconds (summed over CPUs) between `earlier` and
    /// `self`.
    #[must_use]
    pub fn steal_secs_since(&self, earlier: &CpuSample) -> f64 {
        self.steal.saturating_sub(earlier.steal) as f64 / clock_ticks_per_sec()
    }
}

/// `sysconf(_SC_CLK_TCK)`: the unit of procfs CPU times.
#[must_use]
pub fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf takes an integer selector, reads no caller
    // memory, and returns -1 for a selector it does not know.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// This process's resident set size in bytes (`VmRSS`), or 0 where
/// procfs is unavailable.
#[must_use]
pub fn rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Hand the heap's free pages back to the OS, so RSS counts live
/// memory only: glibc keeps a freed block that it allocated from the
/// heap resident, and after a large block is freed it serves blocks of
/// that size from the heap.
pub fn release_free_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim takes no pointers; it only walks the
        // allocator's own free lists under the allocator's locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real-shaped stat line: fields 14 and 15 are utime and stime.
    fn stat_line(comm: &str, utime: u64, stime: u64) -> String {
        format!(
            "4242 ({comm}) S 1 4242 4242 0 -1 4194624 120 0 0 0 {utime} {stime} 0 0 20 0 \
             9 0 123456 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn parses_plain_thread_names() {
        let line = stat_line("dido-dispatch-0", 1234, 56);
        assert_eq!(parse_task_stat(&line), Some(("dido-dispatch-0", 1290)));
        assert_eq!(Group::of("dido-dispatch-0"), Some(Group::Dispatch));
    }

    #[test]
    fn names_with_spaces_and_parentheses_keep_field_alignment() {
        let line = stat_line("my (odd) name", 7, 3);
        assert_eq!(parse_task_stat(&line), Some(("my (odd) name", 10)));
        let line = stat_line("a) b c (d", 100, 1);
        assert_eq!(parse_task_stat(&line), Some(("a) b c (d", 101)));
        let line = stat_line(")", 5, 5);
        assert_eq!(parse_task_stat(&line), Some((")", 10)));
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_task_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_task_stat("no parentheses at all"), None);
    }

    #[test]
    fn groups_by_server_prefix() {
        assert_eq!(Group::of("dido-reactor-1"), Some(Group::Reactor));
        assert_eq!(Group::of("dido-sd-0"), Some(Group::Sd));
        assert_eq!(Group::of("dido-controller"), Some(Group::Controller));
        assert_eq!(Group::of("bench-client-1"), Some(Group::Client));
        assert_eq!(Group::of("dido-reshard"), None);
        assert_eq!(Group::of("perfbench"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat("363980791 4821025 49\n"), Some(363_980_791));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  100 2 300 4000 50 6 7 888 0 0\n\
                    cpu0 50 1 150 2000 25 3 3 444 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal(stat), Some(888));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn samples_this_process() {
        let hz = clock_ticks_per_sec();
        assert!(hz >= 1.0);
        assert!(rss_bytes() > 0);
        let named = std::thread::Builder::new()
            .name(format!("{CLIENT_PREFIX}9"))
            .spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed() < std::time::Duration::from_millis(60) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                CpuSample::take()
            })
            .expect("spawn");
        let sample = named.join().expect("sampler thread");
        assert!(
            sample.ns[Group::Client as usize] >= 30_000_000,
            "{sample:?}"
        );
    }
}
