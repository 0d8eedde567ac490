//! What the benchmark reads about its own process and host: peak
//! resident memory and the CPU time the hypervisor stole.

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now (zeros where `/proc` is unavailable).
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse_cpu_line))
            .unwrap_or_default()
    }

    /// Share of host CPU time stolen between `earlier` and `self`, in
    /// percent. A diagnostic for noisy runs, never gated.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses `cpu  user nice system idle iowait irq softirq steal ...`.
/// Guest time is already included in user time, so only the first eight
/// fields are summed.
fn parse_cpu_line(line: &str) -> CpuTimes {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    CpuTimes {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_eighth_field() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0");
        let b = parse_cpu_line("cpu  200 0 100 1500 10 0 0 90 0 0");
        assert_eq!(a.total, 1000);
        assert_eq!(b.steal_pct_since(&a), 100.0 * 50.0 / 900.0);
        assert_eq!(a.steal_pct_since(&a), 0.0);
    }
}
