//! What the host reports about this process: peak resident memory and
//! CPU time, read from `/proc/self`.

/// User and kernel CPU time of the process, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// Time in user mode.
    pub user_s: f64,
    /// Time in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// CPU time spent since `earlier` was read.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`; 100 on every
/// Linux ABI, and there is no `sysconf` without `libc`).
const USER_HZ: f64 = 100.0;

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted after the last `)`.
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// CPU time of this process so far; zeros where `/proc` is missing.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Parses `VmHWM` (kB) out of `/proc/<pid>/status` into MiB.
fn parse_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process in MiB; `None` where `/proc`
/// is missing.
pub fn peak_rss_mb() -> Option<f64> {
    parse_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "4242 (flash bench) x)) R 1 2 3 4 5 6 7 8 9 10 250 125 0 0 20 0 1 0";
        let cpu = parse_stat(stat).unwrap();
        assert_eq!(
            cpu,
            CpuTimes {
                user_s: 2.5,
                sys_s: 1.25
            }
        );
        assert!(parse_stat("garbage").is_none());
        let later = CpuTimes {
            user_s: 3.0,
            sys_s: 1.5,
        };
        assert_eq!(
            later.since(cpu),
            CpuTimes {
                user_s: 0.5,
                sys_s: 0.25
            }
        );
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tflashbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_hwm_mb(status), Some(20.0));
        assert_eq!(parse_hwm_mb("Name: x\n"), None);
    }

    #[test]
    fn this_process_has_memory_and_a_clock() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let cpu = cpu_times();
        assert!(cpu.user_s >= 0.0 && cpu.sys_s >= 0.0);
    }
}
