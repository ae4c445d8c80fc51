//! Readers for `/proc/self/stat` (process CPU time),
//! `/proc/self/status` (peak resident set) and `/proc/stat` (time the
//! hypervisor stole from the machine).

/// Clock ticks per second of the `utime`/`stime` fields. Linux exports
/// these in `USER_HZ`, which its ABI fixes at 100 on every architecture
/// this benchmark targets.
pub const USER_HZ: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks, summed over every thread of the process.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so utime (field 14) is
    // index 11 and stime (field 15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   <n> kB` line of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Machine-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All ticks: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl HostTicks {
    /// Share of the ticks since `earlier` that were stolen (0 without any).
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Kernels or machines
/// without a steal column read as never stolen from.
pub fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 4 {
        return None;
    }
    Some(HostTicks {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().sum(),
    })
}

/// Machine-wide CPU time counters now; zeros where `/proc/stat` is
/// unreadable, which makes every slice count as quiet.
pub fn host_ticks() -> HostTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_ticks(&s))
        .unwrap_or_default()
}

/// Process user+system CPU time so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_command_name() {
        let line = "4242 (vp bench) (x)) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 69 0 0 20 0 5 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(800));
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("12 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_values_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   48384 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(48_384));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(200_000));
        assert_eq!(parse_status_kb(status, "Threads"), Some(4));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
    }

    #[test]
    fn host_ticks_from_the_aggregate_cpu_line() {
        let stat = "cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\n";
        let ticks = parse_host_ticks(stat).expect("aggregate line");
        assert_eq!(
            ticks,
            HostTicks {
                steal: 32,
                total: 1000
            }
        );
        let later = HostTicks {
            steal: 82,
            total: 1500,
        };
        assert_eq!(later.steal_share_since(&ticks), 0.1);
        assert_eq!(ticks.steal_share_since(&ticks), 0.0);
        // Old kernels stop before the steal column.
        let old = parse_host_ticks("cpu  1 2 3 4\n").expect("four fields");
        assert_eq!(
            old,
            HostTicks {
                steal: 0,
                total: 10
            }
        );
        assert_eq!(parse_host_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
