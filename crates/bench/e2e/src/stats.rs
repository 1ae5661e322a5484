//! Sample summaries, the failure tally, and host facts.

/// Quantile `q` ∈ [0, 1] of an ascending slice, linearly interpolated
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Dispersion of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarises `samples` (order does not matter; must be non-empty).
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            p90: quantile(&v, 0.9),
        }
    }
}

/// Median of non-empty `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Attempted and failed operations, with a line for every failed check.
///
/// Every output check goes through [`Tally::check`], so a check can only
/// pass or count its operations as failed — never be skipped.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (GPM rounds, sweep processes or scenario runs).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts `ops` operations as attempted; they fail when `ok` is false.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops.max(1);
            self.problems.push(what());
        }
    }

    /// A check that guards the whole run rather than counted operations
    /// (a reconciliation or a broken child process).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(0, ok, what);
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn a_failed_check_counts_its_operations() {
        let mut t = Tally::default();
        t.check(10, true, || unreachable!());
        t.check(5, false, || "digest mismatch".into());
        assert_eq!((t.attempted, t.failed), (15, 5));
        assert!(!t.correct());
        let mut t = Tally::default();
        t.require(false, || "reconciliation".into());
        assert_eq!((t.attempted, t.failed), (0, 1));
        assert!(!t.correct());
    }
}
