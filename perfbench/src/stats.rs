//! Exact-sample statistics and the metric record the benchmark prints.

use mals_util::Json;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it a statement about a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail is chosen from, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Median of `xs` (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Lower decile of `xs` (nearest rank): what the workloads report for a
/// time measured over many short passes. Contention from other tenants
/// of a shared host only ever adds time, and it comes in phases of a few
/// seconds that cover a varying share of a run; the median of the passes
/// follows that share, the lower decile follows the program.
///
/// # Panics
/// Panics on an empty slice.
pub fn lower_decile(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "lower decile of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 10.0)
}

/// Nearest-rank position of percentile `q` (0–100, resolved to 0.1) among
/// `n` samples: the 1-based rank `⌈q·n/100⌉`, at least 1. Integer
/// arithmetic, so p99.9 of 10 000 samples is rank 9990 exactly.
fn rank(q: f64, n: usize) -> usize {
    let per_mille = (q * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` of ascending-sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(q, sorted.len()) - 1]
}

/// The highest percentile of the ladder (p50, p90, p95, p99, p99.9) that
/// has at least [`MIN_BEYOND`] samples beyond it, as `(q, samples beyond)`;
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    LADDER
        .iter()
        .rev()
        .map(|&q| (q, n.saturating_sub(rank(q, n.max(1)))))
        .find(|&(_, beyond)| beyond >= MIN_BEYOND)
}

/// Latency samples summarised for the report: count, median, and the
/// percentile asked for if enough samples lie beyond it.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Takes ownership of the samples (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `q`, or `None` if fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn at(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0 && n - rank(q, n) >= MIN_BEYOND).then(|| percentile(&self.sorted, q))
    }

    /// One human line: the count, then every ladder percentile up to
    /// [`tail_percentile`], each with the number of samples beyond it.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.len();
        let mut line = format!("n={n}");
        let Some((top, _)) = tail_percentile(n) else {
            return line + " (too few samples for a percentile)";
        };
        for q in LADDER.into_iter().filter(|&q| q <= top) {
            let value = percentile(&self.sorted, q);
            line.push_str(&format!(" p{q}={value:.3}{unit}({})", n - rank(q, n)));
        }
        line
    }
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MB`, `ratio`, `count`).
    pub unit: &'static str,
}

/// Metrics of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// 64-bit FNV-1a of `bytes`: a stable fingerprint for output files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "part_a_ms",
            "gen.daggen_ms",
            "a",
            "9x",
            "x-y.z_1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "é",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has 10 beyond it; of 999 only 9, so p95.
        assert_eq!(tail_percentile(1000), Some((99.0, 10)));
        assert_eq!(tail_percentile(999), Some((95.0, 49)));
        assert_eq!(tail_percentile(10_000), Some((99.9, 10)));
        assert_eq!(tail_percentile(200), Some((95.0, 10)));
        assert_eq!(tail_percentile(199), Some((90.0, 19)));
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn latencies_refuse_unsupported_percentiles() {
        let lat = Latencies::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(lat.at(50.0), Some(500.0));
        assert_eq!(lat.at(99.0), Some(990.0));
        assert_eq!(lat.at(99.9), None);
        assert_eq!(
            Latencies::new(vec![1.0; 19]).describe("ms"),
            "n=19 (too few samples for a percentile)"
        );
        assert_eq!(
            lat.describe("ms"),
            "n=1000 p50=500.000ms(500) p90=900.000ms(100) p95=950.000ms(50) p99=990.000ms(10)"
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_decile_is_the_nearest_rank_tenth() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&xs), 4.0);
        assert_eq!(lower_decile(&[7.0]), 7.0);
    }
}
