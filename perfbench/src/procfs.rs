//! Per-thread and per-process CPU accounting from `/proc`, and the host
//! class printed with every result set.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`CLK_TCK`,
/// 100 on every mainstream Linux configuration).
const CLK_TCK: f64 = 100.0;

/// CPU time and context switches of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpu {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary: u64,
    pub involuntary: u64,
}

impl ThreadCpu {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn minus(&self, before: &ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            user_s: self.user_s - before.user_s,
            sys_s: self.sys_s - before.sys_s,
            voluntary: self.voluntary.saturating_sub(before.voluntary),
            involuntary: self.involuntary.saturating_sub(before.involuntary),
        }
    }

    fn add(&mut self, other: &ThreadCpu) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
    }
}

/// `utime` and `stime` (in seconds) from a `stat` line.
fn stat_times(stat: &str) -> Option<(f64, f64)> {
    // The command name is parenthesised and may contain spaces: fields
    // resume after the last ')', starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime / CLK_TCK, stime / CLK_TCK))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// One thread's counters, `None` once the thread has exited.
pub fn thread_cpu(tid: u32) -> Option<ThreadCpu> {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    let status = fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let (user_s, sys_s) = stat_times(&stat)?;
    Some(ThreadCpu {
        user_s,
        sys_s,
        voluntary: status_field(&status, "voluntary_ctxt_switches:")?,
        involuntary: status_field(&status, "nonvoluntary_ctxt_switches:")?,
    })
}

/// User and system CPU of the whole process, exited threads included
/// (context switches are per thread and not kept).
fn process_cpu() -> ThreadCpu {
    let (user_s, sys_s) = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_times(&s))
        .unwrap_or_default();
    ThreadCpu {
        user_s,
        sys_s,
        ..ThreadCpu::default()
    }
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Every live thread of this process.
pub fn task_ids() -> Vec<u32> {
    let mut tids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    tids.sort_unstable();
    tids
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Aggregate `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// time a hypervisor ran something else while this machine's CPUs were
/// runnable.
fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Threads grouped by role, sampled before and after a timed window.
#[derive(Debug, Default)]
pub struct RoleSampler {
    roles: Vec<(&'static str, Vec<u32>)>,
    before: BTreeMap<u32, ThreadCpu>,
    process_before: ThreadCpu,
    host_before: (u64, u64),
}

/// One role's CPU over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleCpu {
    pub threads: usize,
    pub cpu: ThreadCpu,
}

impl RoleSampler {
    pub fn new(roles: Vec<(&'static str, Vec<u32>)>) -> Self {
        let mut sampler = Self {
            roles,
            ..Self::default()
        };
        sampler.process_before = process_cpu();
        sampler.host_before = host_ticks();
        for (_, tids) in &sampler.roles {
            for &tid in tids {
                if let Some(cpu) = thread_cpu(tid) {
                    sampler.before.insert(tid, cpu);
                }
            }
        }
        sampler
    }

    /// Share of the host's CPU time stolen by the hypervisor since
    /// [`new`](Self::new); high values mean wall-clock figures are noisy.
    pub fn steal_share(&self) -> f64 {
        let (steal, total) = host_ticks();
        let (steal, total) = (steal - self.host_before.0, total - self.host_before.1);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }

    /// Per-role deltas since [`new`](Self::new), plus the whole process's
    /// CPU over the same interval.
    pub fn finish(&self) -> (Vec<(&'static str, RoleCpu)>, ThreadCpu) {
        let roles = self
            .roles
            .iter()
            .map(|(name, tids)| {
                let mut role = RoleCpu {
                    threads: tids.len(),
                    ..RoleCpu::default()
                };
                for tid in tids {
                    if let (Some(after), Some(before)) = (thread_cpu(*tid), self.before.get(tid)) {
                        role.cpu.add(&after.minus(before));
                    }
                }
                (*name, role)
            })
            .collect();
        (roles, process_cpu().minus(&self.process_before))
    }
}

/// `nproc`, `rustc` version and CPU model of this host.
pub fn host_class() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_command_with_spaces() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0";
        assert_eq!(stat_times(line), Some((2.5, 0.75)));
    }

    #[test]
    fn this_thread_is_visible() {
        let tid = current_tid();
        assert!(task_ids().contains(&tid));
        assert!(thread_cpu(tid).is_some());
    }
}
