//! Exact order statistics and the process counters the benchmark reads
//! from `/proc`.

use std::time::Duration;

/// Samples beyond a reported percentile: a percentile is only reported
/// when at least this many samples lie above it.
pub const MIN_TAIL: usize = 10;

/// Exact order statistics over a set of samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_duration_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile (`q` in `(0, 1]`), or an error when fewer
    /// than [`MIN_TAIL`] samples lie beyond it.
    pub fn quantile(&mut self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < MIN_TAIL {
            return Err(format!(
                "{what}: {n} samples leave fewer than {MIN_TAIL} beyond the {}th percentile",
                q * 100.0
            ));
        }
        self.sort();
        Ok(self.values[rank - 1])
    }

    /// The median (the lower middle value for an even count); 0 when
    /// empty. Used for per-run summaries, not for reported percentiles.
    pub fn median(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        self.values[(self.values.len() - 1) / 2]
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// The median of a slice of per-repetition figures.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// "q1 median q3" of a slice of durations in seconds, printed in
/// milliseconds: how a run's set-up samples spread.
pub fn quartiles_ms(values: &[f64]) -> String {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        s.get(((s.len() as f64 - 1.0) * q) as usize)
            .map_or(f64::NAN, |v| v * 1e3)
    };
    format!("{:.3} {:.3} {:.3}", at(0.25), at(0.5), at(0.75))
}

/// Linux reports per-process CPU times in clock ticks of `USER_HZ`,
/// which the kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds of a process (all its threads), read
/// from `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `pid` of `None` reads this process.
pub fn cpu_times(pid: Option<u32>) -> Result<CpuTimes, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the state field.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(CpuTimes {
        user_s: tick(11)?,
        sys_s: tick(12)?,
    })
}

/// CPU seconds of the calling thread, from `/proc/thread-self/schedstat`
/// (nanosecond resolution, unlike the tick counts of `stat`).
pub fn thread_cpu_s() -> Result<f64, String> {
    let path = "/proc/thread-self/schedstat";
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))?
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| format!("malformed {path}"))
}

/// CPU seconds of a whole process at nanosecond resolution: the sum of
/// `/proc/<pid>/task/*/schedstat` over its live threads.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut ns = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let path = entry
            .map_err(|e| format!("read {dir}: {e}"))?
            .path()
            .join("schedstat");
        // A thread that exited between listing and reading counts 0.
        if let Ok(text) = std::fs::read_to_string(&path) {
            ns += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed {}", path.display()))?;
        }
    }
    Ok(ns as f64 / 1e9)
}

/// Host-wide CPU ticks from the `cpu` line of `/proc/stat`: (all,
/// steal). Steal is time the hypervisor ran something else while a
/// virtual CPU of this host wanted to run.
pub fn host_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.5, "x").unwrap(), 500.0);
        assert_eq!(s.quantile(0.99, "x").unwrap(), 990.0);
        assert!(s.quantile(0.995, "x").is_err());
        let mut few = Samples::new();
        few.push(1.0);
        assert!(few.quantile(0.5, "x").is_err());
    }

    #[test]
    fn median_is_an_order_statistic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
