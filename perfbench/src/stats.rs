//! Sample statistics for the report: medians and capped percentiles,
//! each carrying the sample count it rests on.

/// A named measurement as the report prints it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value rests on (1 for a single count or ratio).
    pub samples: usize,
    /// Which statistic `value` is (`p50`, `p99`, `median`, `mean`, ...).
    pub stat: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize, stat: &str) -> Metric {
        assert!(
            valid_name(name),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            stat: stat.to_string(),
        }
    }

    /// A single deterministic count or ratio.
    pub fn count(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::new(name, value, unit, 1, "count")
    }
}

/// Metric names the report may print: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Samples of one timing, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
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

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The highest percentile (0..=100) that still has at least ten
    /// samples beyond it; `None` with fewer than eleven samples.
    pub fn max_percentile(&self) -> Option<f64> {
        let n = self.values.len();
        if n < 11 {
            return None;
        }
        Some(100.0 * (1.0 - 10.0 / n as f64))
    }

    /// Nearest-rank percentile `p` (0..=100), capped at
    /// [`Samples::max_percentile`] so a tail figure never rests on fewer
    /// than ten samples beyond it. Returns `(value, percentile used)`.
    pub fn percentile(&mut self, p: f64) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        let p = if p <= 50.0 {
            p
        } else {
            p.min(self.max_percentile()?)
        };
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let index = rank.clamp(1, n) - 1;
        Some((self.values[index], p))
    }

    /// The median (mean of the two middle samples for even counts).
    pub fn median(&mut self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
        })
    }

    /// Timing metric at percentile `p` (p50 for `p == 50`), scaled into
    /// the report unit. The stat label names the percentile actually used.
    pub fn metric(&mut self, name: &str, p: f64, scale: f64, unit: &'static str) -> Metric {
        let n = self.len();
        match self.percentile(p) {
            Some((v, used)) => Metric::new(name, v * scale, unit, n, &stat_label(used)),
            None => Metric::new(name, f64::NAN, unit, n, "none"),
        }
    }

    /// Median metric, scaled into the report unit.
    pub fn median_metric(&mut self, name: &str, scale: f64, unit: &'static str) -> Metric {
        let n = self.len();
        let v = self.median().map_or(f64::NAN, |v| v * scale);
        Metric::new(name, v, unit, n, "median")
    }

    /// Mean metric, scaled into the report unit.
    pub fn mean_metric(&self, name: &str, scale: f64, unit: &'static str) -> Metric {
        let n = self.len();
        let v = if n == 0 {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / n as f64 * scale
        };
        Metric::new(name, v, unit, n, "mean")
    }
}

fn stat_label(p: f64) -> String {
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round() as u64)
    } else {
        format!("p{p:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = samples((1..=1000).map(f64::from));
        assert_eq!(s.percentile(50.0), Some((500.0, 50.0)));
        assert_eq!(s.percentile(99.0), Some((990.0, 99.0)));
        assert_eq!(s.median(), Some(500.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 200 samples: p99 would rest on 2 samples beyond it, so the
        // helper falls back to p95 (10 beyond).
        let mut s = samples((1..=200).map(f64::from));
        assert_eq!(s.max_percentile(), Some(95.0));
        let (v, used) = s.percentile(99.0).unwrap();
        assert_eq!(used, 95.0);
        assert_eq!(v, 190.0);
        let beyond = s.values().iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10);
        let m = s.metric("query_p99_ms", 99.0, 1.0, "ms");
        assert_eq!(m.stat, "p95");
        assert_eq!(m.samples, 200);
    }

    #[test]
    fn mean_metric_scales_and_counts() {
        let m = samples([6.0, 7.5, 6.3]).mean_metric("label_build_s", 1e3, "ms");
        assert!((m.value - 6600.0).abs() < 1e-9);
        assert_eq!((m.samples, m.stat.as_str()), (3, "mean"));
        assert!(Samples::new().mean_metric("x", 1.0, "s").value.is_nan());
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let mut s = samples([1.0, 2.0, 3.0]);
        assert_eq!(s.percentile(99.0), None);
        assert_eq!(s.percentile(50.0), Some((2.0, 50.0)));
        assert!(s.metric("x", 99.0, 1.0, "ms").value.is_nan());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("engine.json.parse_us.query"));
        assert!(valid_name("query_p99_ms"));
        assert!(valid_name("core.search.walk_s"));
        assert!(!valid_name(""));
        assert!(!valid_name("query p99"));
        assert!(!valid_name("lat{op}"));
    }

    #[test]
    #[should_panic(expected = "is not [A-Za-z0-9_.-]+")]
    fn invalid_metric_name_panics() {
        Metric::count("bad name", 1.0, "count");
    }
}
