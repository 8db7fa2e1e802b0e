//! Percentiles, windows and the daemon's Prometheus text.

use std::time::Duration;

/// Timed windows per run; each metric is the median of its window values.
pub const WINDOWS: usize = 5;

/// Nearest-rank percentile of an unsorted sample (`q` in (0,1]).
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One metric over the windows of a run.
///
/// Noise on a shared box is one-sided: a neighbour, an interrupt or a
/// cold cache can only make a window slower. The run therefore reports
/// its *best* window — the least disturbed measurement of the same
/// fixed work — and prints the median and worst beside it.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub best: f64,
    pub median: f64,
    pub worst: f64,
}

impl Windowed {
    pub fn lower_is_better(values: &[f64]) -> Windowed {
        Windowed {
            best: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            worst: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn higher_is_better(values: &[f64]) -> Windowed {
        let w = Windowed::lower_is_better(values);
        Windowed {
            best: w.worst,
            worst: w.best,
            ..w
        }
    }

    /// Distance from best to worst as a percentage of the best.
    pub fn spread_pct(&self) -> f64 {
        (self.worst - self.best).abs() / self.best * 100.0
    }
}

/// The value of counter or gauge `name` in a Prometheus exposition
/// (also `<histogram>_sum` / `<histogram>_count` lines).
pub fn prom_value(text: &str, name: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or_else(|| format!("daemon stats have no {name}"))
}
