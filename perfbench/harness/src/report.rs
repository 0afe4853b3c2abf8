//! Percentiles with a sample-count guard, and the result line.

use std::fmt::Write as _;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`.
///
/// Refuses (naming `metric`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the percentile: such a value would just reorder a handful of
/// slow samples from run to run.
pub fn percentile(metric: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "percentile guard: {metric} (p{}) has {beyond} of {n} samples beyond it; \
             need at least {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (guarded like every other percentile).
pub fn median(metric: &str, samples: &[f64]) -> Result<f64, String> {
    percentile(metric, samples, 0.5)
}

/// `num / den`, or 0 for an empty denominator (a layer that never ran).
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing statistic.
    pub samples: Option<usize>,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Context printed in the table only (thread budget, failure
    /// share, span self times).
    pub info: Vec<Metric>,
    /// Free-form lines printed before the table (check failures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(format!("check failed: {note}"));
    }

    /// Prints the human table, then the single-line JSON result last.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) -> Result<(), String> {
        println!("workload {workload} seed {seed} trace {}", u8::from(trace));
        for note in &self.notes {
            println!("  note: {note}");
        }
        for (section, list) in [("metric", &self.metrics), ("info", &self.info)] {
            for m in list {
                let n = m.samples.map_or(String::new(), |n| format!("  n={n}"));
                println!(
                    "  {section:<6} {:<34} {:>16.6} {:<6}{n}",
                    m.name, m.value, m.unit
                );
            }
        }
        let failed_share = share(self.failed as f64, self.attempted as f64);
        println!(
            "  failed_share {failed_share} ({} of {} attempted)",
            self.failed, self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_guard_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median("m", &xs).unwrap(), 10.0);
        assert!(median("m", &xs[..19]).is_err());
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile("p", &ys, 0.9).unwrap(), 90.0);
        assert!(percentile("p", &ys, 0.99).is_err());
    }
}
