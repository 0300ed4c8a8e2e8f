//! Process and host counters read from `/proc` (Linux).
//!
//! The parsers take the file text so they can be tested on fixed input;
//! the `read_*` wrappers do the I/O and return `None` where `/proc` is
//! missing or unreadable.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux reports these in `USER_HZ`, which is 100 on
/// every architecture the kernel exports to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/self/stat`.
///
/// Fields are counted after the closing parenthesis of the command name,
/// which may itself contain spaces or parentheses.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `state` is field 3 of the line, so field N sits at index N − 3.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The value of a `Key:   123 kB`-style line of a `status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Aggregate host CPU time from the first line of `/proc/stat`, in
/// ticks: the total over the eight accounted states and the share
/// stolen by the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time this VM's vCPUs were runnable but not running.
    pub steal: u64,
}

impl HostCpu {
    /// Steal as a percentage of all host CPU time between `self` and a
    /// later reading.
    pub fn steal_pct_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. `guest` time is
/// already counted inside `user`, so it is not added again.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|v| v.parse().ok()).collect::<Option<_>>()?;
    if values.len() < 8 {
        return None;
    }
    Some(HostCpu { total: values.iter().sum(), steal: values[7] })
}

/// This process's user + system CPU seconds so far.
pub fn read_cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process, in MiB.
pub fn read_peak_rss_mb() -> Option<f64> {
    let kb = parse_status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kb as f64 / 1024.0)
}

/// Host-wide CPU accounting, for steal.
pub fn read_host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&fs::read_to_string("/proc/stat").ok()?)
}

/// Voluntary + involuntary context switches summed over this process's
/// live threads (`/proc/self/status` alone covers only the main thread).
pub fn read_context_switches() -> Option<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue; // the thread exited while we listed it
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
        total += parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_count_fields_after_the_command_name() {
        // A command name with spaces and parentheses must not shift the
        // fields: utime = 250 ticks, stime = 50 ticks.
        let stat = "4242 (nshd (perf) bench) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tbench\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(4));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn steal_is_a_share_of_the_accounted_delta() {
        let before =
            parse_host_cpu("cpu  100 0 50 800 10 0 0 40 7 0\ncpu0 50 0 25 400 5 0 0 20 0 0\n")
                .unwrap();
        assert_eq!(before, HostCpu { total: 1000, steal: 40 });
        let after = parse_host_cpu("cpu  150 0 60 1050 10 0 0 70 9 0\n").unwrap();
        // 340 ticks passed, 30 of them stolen.
        let pct = before.steal_pct_until(&after);
        assert!((pct - 100.0 * 30.0 / 340.0).abs() < 1e-9, "{pct}");
        assert_eq!(after.steal_pct_until(&after), 0.0);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_cpu("intr 5\n"), None);
    }

    #[test]
    fn live_readers_work_on_linux() {
        assert!(read_cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(read_peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(read_host_cpu().is_some_and(|c| c.total > 0));
        assert!(read_context_switches().is_some());
    }
}
