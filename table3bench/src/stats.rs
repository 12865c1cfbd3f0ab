//! Order statistics and `/proc/self/stat` sampling.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// The fewest samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `xs`, reported only when at
/// least [`MIN_BEYOND`] samples lie beyond the chosen rank — a p99 needs
/// 1000 samples, a p90 needs 100. `None` when the sample is too small.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest index whose cumulative share reaches q.
    // The epsilon keeps exact products such as 0.9 · 100 from rounding up.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let idx = rank - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[idx])
}

/// The fields of `/proc/<pid>/stat` the benchmark tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStat {
    /// Minor page faults (field 10).
    pub minor_faults: u64,
    /// User-mode CPU time in clock ticks (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode CPU time in clock ticks (field 15).
    pub stime_ticks: u64,
}

/// Clock ticks per second of the `/proc` time fields. Linux reports them
/// in `USER_HZ`, which its user-space ABI fixes at 100.
pub const USER_HZ: f64 = 100.0;

impl ProcStat {
    /// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
    /// parenthesised and may itself contain spaces and parentheses, so the
    /// numeric fields are counted from the *last* `)`.
    pub fn parse(line: &str) -> Option<ProcStat> {
        let rest = &line[line.rfind(')')? + 1..];
        // After the name: field 3 (state) is index 0 of `fields`.
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
        Some(ProcStat {
            minor_faults: field(10)?,
            utime_ticks: field(14)?,
            stime_ticks: field(15)?,
        })
    }

    /// Reads this process's counters (zeros where `/proc` is unavailable).
    pub fn sample() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcStat::parse(&s))
            .unwrap_or_default()
    }

    /// Kernel CPU seconds spent between `earlier` and `self`.
    pub fn sys_s_since(&self, earlier: &ProcStat) -> f64 {
        self.stime_ticks.saturating_sub(earlier.stime_ticks) as f64 / USER_HZ
    }

    /// Minor faults taken between `earlier` and `self`.
    pub fn minor_faults_since(&self, earlier: &ProcStat) -> f64 {
        self.minor_faults.saturating_sub(earlier.minor_faults) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 is the 990th value; ten samples lie beyond it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.90), None);
        assert_eq!(percentile(&xs[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&xs, 0.9);
        xs.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&xs, 0.9));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn proc_stat_parser_counts_fields_after_the_last_paren() {
        let line = "4242 (odd) name) S 1 4242 4242 0 -1 4194304 731 0 2 0 \
                    1234 56 0 0 20 0 3 0 98765 1234567 890 18446744073709551615";
        let s = ProcStat::parse(line).expect("parses");
        assert_eq!(
            s,
            ProcStat {
                minor_faults: 731,
                utime_ticks: 1234,
                stime_ticks: 56,
            }
        );
        let later = ProcStat {
            minor_faults: 1000,
            utime_ticks: 1300,
            stime_ticks: 156,
        };
        assert_eq!(later.sys_s_since(&s), 1.0);
        assert_eq!(later.minor_faults_since(&s), 269.0);
        assert_eq!(ProcStat::parse("no paren here"), None);
        assert_eq!(ProcStat::parse("1 (short) S 1 2"), None);
    }

    #[test]
    fn proc_stat_reads_this_process() {
        let before = ProcStat::sample();
        let v: Vec<u8> = vec![1; 8 << 20];
        std::hint::black_box(&v);
        let after = ProcStat::sample();
        assert!(after.minor_faults >= before.minor_faults);
        assert!(after.utime_ticks + after.stime_ticks >= before.utime_ticks + before.stime_ticks);
    }
}
