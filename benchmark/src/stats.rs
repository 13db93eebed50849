//! Order statistics over op samples, and the process's peak memory.

/// Nearest-rank index of percentile `p` (0 < p ≤ 1) among `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond percentile `p`'s rank — a percentile is only
/// reported as trustworthy when at least ten lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(1 + rank(n, p))
}

/// Nearest-rank percentile. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank; 0 for no samples (a layer the workload bypasses).
pub fn median(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v), 0.5)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond() {
        assert_eq!(rank(100, 0.9), 89);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1050, 0.9), 105);
        // The median of a handful of samples still has a defined rank.
        assert_eq!(rank(1, 0.5), 0);
        assert_eq!(rank(7, 0.5), 3);
        assert_eq!(rank(6, 0.5), 2);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tclyde\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
