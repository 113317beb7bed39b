//! Sample sets, medians and tail percentiles, and the metric records a run
//! prints.

use std::time::Duration;

/// Durations of repeated operations, kept in whole nanoseconds so sorting
/// stays a total order.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn total_secs(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Median in seconds (mean of the two middle samples for an even count).
    pub fn median_secs(&self) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let mid = v.len() / 2;
        let ns = if v.len() % 2 == 1 {
            v[mid] as f64
        } else {
            (v[mid - 1] as f64 + v[mid] as f64) / 2.0
        };
        ns / 1e9
    }

    /// The highest of p99.9, p99, p95 and p90 that has at least ten samples
    /// beyond it, in seconds; `None` below forty samples, where a
    /// percentile would be no tail.
    pub fn tail_secs(&self) -> Option<(&'static str, f64)> {
        let n = self.ns.len();
        if n < 40 {
            return None;
        }
        let v = self.sorted();
        [
            ("p99.9", 0.001),
            ("p99", 0.01),
            ("p95", 0.05),
            ("p90", 0.10),
        ]
        .into_iter()
        .find(|&(_, beyond)| (n as f64 * beyond) >= 10.0)
        .map(|(label, beyond)| {
            let idx = ((n as f64) * (1.0 - beyond)).ceil() as usize;
            (label, v[idx.min(n - 1)] as f64 / 1e9)
        })
    }

    /// Interquartile range over the median: the within-run spread of
    /// single operations.
    pub fn iqr_share(&self) -> f64 {
        let v = self.sorted();
        if v.len() < 4 {
            return f64::NAN;
        }
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize] as f64;
        (q(0.75) - q(0.25)) / q(0.5)
    }
}

/// One printed metric: a value with its unit, plus — for latencies — the
/// tail percentile and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub tail: Option<(&'static str, f64)>,
    pub samples: usize,
    /// Within-run interquartile spread of single operations (share of the
    /// median), when the metric is a median.
    pub spread: Option<f64>,
}

impl Metric {
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            tail: None,
            samples: 1,
            spread: None,
        }
    }

    pub fn count(name: &str, value: u64) -> Metric {
        Metric::value(name, "count", value as f64)
    }

    /// The median of `samples` scaled to `unit` (`s`, `ms` or `us`).
    pub fn median(name: &str, unit: &'static str, samples: &Samples) -> Metric {
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            other => panic!("no time scale for unit {other}"),
        };
        Metric {
            name: name.to_string(),
            unit,
            value: samples.median_secs() * scale,
            tail: samples.tail_secs().map(|(p, v)| (p, v * scale)),
            samples: samples.len(),
            spread: Some(samples.iqr_share()),
        }
    }

    /// One human-readable report line.
    pub fn line(&self) -> String {
        let mut s = format!("{} = {:.6} {}", self.name, self.value, self.unit);
        if let Some((p, v)) = self.tail {
            s.push_str(&format!(" ({p} {v:.6} {})", self.unit));
        }
        if self.samples > 1 {
            s.push_str(&format!(" [n={}", self.samples));
            if let Some(spread) = self.spread.filter(|x| x.is_finite()) {
                s.push_str(&format!(", within-run IQR {:.1}%", spread * 100.0));
            }
            s.push(']');
        }
        s
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ns: &[u64]) -> Samples {
        let mut s = Samples::new();
        for &n in ns {
            s.push(Duration::from_nanos(n));
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(&[30, 10, 20]).median_secs(), 20e-9);
        assert_eq!(samples(&[40, 10, 30, 20]).median_secs(), 25e-9);
        assert!(Samples::new().median_secs().is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<u64> = (1..=39).collect();
        assert_eq!(samples(&few).tail_secs(), None);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(samples(&hundred).tail_secs(), Some(("p90", 91e-9)));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(samples(&thousand).tail_secs(), Some(("p99", 991e-9)));
    }
}
