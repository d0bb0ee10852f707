//! Small statistics and process-probe helpers the driver relies on.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice so a missing sample cannot pass as 0.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Ascending copy of `v` (total order; NaNs sort last).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `q`-quantile of an ascending slice, together with the
/// number of samples strictly beyond that rank.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The `q`-quantile of `v`, but only when at least ten samples lie beyond
/// it: a tail percentile read off fewer samples is noise, not a figure.
pub fn supported_percentile(v: &[f64], q: f64) -> Option<f64> {
    nearest_rank(&sorted(v), q).and_then(|(x, beyond)| (beyond >= 10).then_some(x))
}

/// Freshness of each mutation of one ingested batch, in milliseconds: the
/// time from when the mutation was *due* (open-loop schedule, seconds
/// since the step started) to when the batch holding it finished. A stall
/// is charged to every mutation that fell due while it lasted.
pub fn freshness_ms(due_s: &[f64], done_s: f64) -> impl Iterator<Item = f64> + '_ {
    due_s.iter().map(move |&d| (done_s - d) * 1e3)
}

/// Number of open-loop mutations due at or before `elapsed_s` when
/// mutation `i` is due at `i / rate` (so mutation 0 is due at once),
/// capped at `total`.
pub fn due_count(elapsed_s: f64, rate: f64, total: u64) -> u64 {
    if elapsed_s < 0.0 {
        return 0;
    }
    ((elapsed_s * rate).floor() as u64)
        .saturating_add(1)
        .min(total)
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` body.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Reset this process's peak-RSS high-water mark to its current RSS
/// (`5` → `/proc/self/clear_refs`). Returns whether the kernel took it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Hand freed heap pages back to the kernel, so memory a workload dropped
/// during set-up does not count toward the timed run's resident set.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns unused arena pages to the kernel; it is safe to call at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 is 990 with exactly ten samples beyond it.
        assert_eq!(supported_percentile(&v, 0.99), Some(990.0));
        // p99.9 would leave one sample beyond: refused.
        assert_eq!(supported_percentile(&v, 0.999), None);
        // 999 samples: p99 has only nine beyond it; p90 still qualifies.
        let short = &v[..999];
        assert_eq!(supported_percentile(short, 0.99), None);
        assert_eq!(supported_percentile(short, 0.9), Some(900.0));
        assert_eq!(supported_percentile(&v[..5], 0.5), None);
    }

    #[test]
    fn freshness_counts_from_due_time() {
        // Three mutations due at 0, 0.5 ms and 1 ms; the batch holding
        // them finished at 4 ms (a stall): each is charged from its own
        // due time, not from when the generator got round to it.
        let due = [0.0, 0.0005, 0.001];
        let f: Vec<f64> = freshness_ms(&due, 0.004).collect();
        let want = [4.0, 3.5, 3.0];
        for (got, want) in f.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn due_count_follows_the_schedule() {
        assert_eq!(due_count(0.0, 1000.0, 10), 1);
        assert_eq!(due_count(0.0025, 1000.0, 10), 3);
        assert_eq!(due_count(5.0, 1000.0, 10), 10);
        assert_eq!(due_count(-1.0, 1000.0, 10), 0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }
}
