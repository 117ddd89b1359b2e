//! Small numeric helpers: medians, tail percentiles, the measurement
//! windows and the process's peak resident memory.

use crate::report::Metric;

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An op-latency summary: the median, the midmean and the highest of a
/// fixed ladder of percentiles that still has at least ten samples
/// above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Median op time, ns.
    pub p50_ns: u64,
    /// Mean of the middle half of the op times (p25 to p75), ns.
    pub midmean_ns: f64,
    /// The tail percentile's value, ns.
    pub tail_ns: u64,
    /// Which percentile `tail_ns` is (99.0 when there are ≥ 1000 ops).
    pub tail_pct: f64,
}

/// Summarizes op durations (ns). `samples` must be non-empty.
pub fn tail(samples: &mut [u64]) -> Tail {
    samples.sort_unstable();
    let n = samples.len();
    let rank = |p: f64| (p * n as f64 / 100.0).ceil() as usize;
    let tail_pct = [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n - rank(p).min(n) >= 10)
        .unwrap_or(50.0);
    let middle = &samples[n / 4..n - n / 4];
    Tail {
        p50_ns: percentile(samples, 50.0),
        midmean_ns: middle.iter().sum::<u64>() as f64 / middle.len() as f64,
        tail_ns: percentile(samples, tail_pct),
        tail_pct,
    }
}

/// The timing metrics of a run, with `op` naming the ops (plural): the
/// gated ones (`sim_slices_per_s`, `op_midmean_us`, `op_p99_us`), and
/// `op_p50_us`, which is printed but not gated. Where half the ops are
/// cheap and half costly (as on `serve_analytic_coalesce`, whose rounds
/// take ~0.65 µs or ~1.05 µs with little between) the median falls into
/// the gap and jumps between runs; the midmean moves smoothly there and
/// stays a central op time.
pub fn timing_metrics(windows: Windows, op: &str) -> (Vec<Metric>, Metric) {
    let (ops, slices) = (windows.total_ops, windows.total_slices);
    let t = windows.finish().unwrap_or_default();
    let n = t.windows;
    let raw = |v: f64, unit: &str| format!("raw {v:.6} {unit}");
    let gated = vec![
        Metric::new("sim_slices_per_s", t.scaled.slices_per_s, "slices/s").note(format!(
            "median of {n} 1-s windows, host-scaled ({}); {slices} slices",
            raw(t.raw.slices_per_s, "slices/s")
        )),
        Metric::new("op_midmean_us", t.scaled.midmean_ns / 1e3, "us").note(format!(
            "median of {n} 1-s windows' p25-p75 mean, host-scaled ({}); {ops} {op}",
            raw(t.raw.midmean_ns / 1e3, "us")
        )),
        Metric::new("op_p99_us", t.scaled.tail_ns / 1e3, "us").note(format!(
            "median of {n} 1-s windows' p{}, host-scaled ({}); {ops} {op}",
            t.tail_pct,
            raw(t.raw.tail_ns / 1e3, "us")
        )),
    ];
    let p50 = Metric::new("op_p50_us", t.scaled.p50_ns / 1e3, "us").note(format!(
        "median of {n} 1-s windows' p50, host-scaled ({})",
        raw(t.raw.p50_ns / 1e3, "us")
    ));
    (gated, p50)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Length of one measurement window. Each window's figures are scaled
/// by the calibration kernel's median time in that window (see
/// `calib`), and a run reports the median over its windows, so a
/// stretch of slow host is both scaled and outvoted.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Throughput and op times of one window or one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rates {
    pub slices_per_s: f64,
    pub p50_ns: f64,
    pub midmean_ns: f64,
    pub tail_ns: f64,
}

/// One measurement window's summary.
#[derive(Debug, Clone, Copy)]
struct WindowStat {
    raw: Rates,
    tail_pct: f64,
    /// Median calibration-kernel time in the window, ns.
    cal_ns: f64,
}

/// Groups consecutive units of measured work (passes) into windows of
/// at least [`WINDOW_NS`] host time each.
#[derive(Debug, Default)]
pub struct Windows {
    ns: u64,
    slices: u64,
    ops: Vec<u64>,
    cal: Vec<f64>,
    done: Vec<WindowStat>,
    /// Ops and slices over the whole run.
    pub total_ops: u64,
    pub total_slices: u64,
}

/// The run's timing summary over its windows: medians of the windows'
/// raw and host-scaled figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    pub raw: Rates,
    pub scaled: Rates,
    /// The lowest tail percentile any window could support.
    pub tail_pct: f64,
    pub windows: usize,
}

impl Windows {
    /// Adds `ns` of measured host time that executed `slices`
    /// simulated slices in ops of the given durations, and the
    /// calibration kernel's time `cal_ns` taken right after it.
    pub fn add(&mut self, ns: u64, slices: u64, ops: &[u64], cal_ns: f64) {
        self.ns += ns;
        self.slices += slices;
        self.ops.extend_from_slice(ops);
        self.cal.push(cal_ns);
        self.total_ops += ops.len() as u64;
        self.total_slices += slices;
        if self.ns >= WINDOW_NS {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.ops.is_empty() {
            return;
        }
        let tail = tail(&mut self.ops);
        self.done.push(WindowStat {
            raw: Rates {
                slices_per_s: self.slices as f64 / (self.ns as f64 / 1e9),
                p50_ns: tail.p50_ns as f64,
                midmean_ns: tail.midmean_ns,
                tail_ns: tail.tail_ns as f64,
            },
            tail_pct: tail.tail_pct,
            cal_ns: median(&self.cal),
        });
        self.ns = 0;
        self.slices = 0;
        self.ops.clear();
        self.cal.clear();
    }

    /// Summarizes the run; `None` if nothing ran. A last, unfinished
    /// window (too short for its own p99) is left out unless it is the
    /// only one.
    pub fn finish(mut self) -> Option<Timing> {
        if self.done.is_empty() {
            self.close();
        }
        if self.done.is_empty() {
            return None;
        }
        let med =
            |f: &dyn Fn(&WindowStat) -> f64| median(&self.done.iter().map(f).collect::<Vec<_>>());
        // Host `k` times slower than the reference: times ÷ k, rates × k.
        let slow = |w: &WindowStat| w.cal_ns / crate::calib::REFERENCE_NS;
        Some(Timing {
            raw: Rates {
                slices_per_s: med(&|w| w.raw.slices_per_s),
                p50_ns: med(&|w| w.raw.p50_ns),
                midmean_ns: med(&|w| w.raw.midmean_ns),
                tail_ns: med(&|w| w.raw.tail_ns),
            },
            scaled: Rates {
                slices_per_s: med(&|w| w.raw.slices_per_s * slow(w)),
                p50_ns: med(&|w| w.raw.p50_ns / slow(w)),
                midmean_ns: med(&|w| w.raw.midmean_ns / slow(w)),
                tail_ns: med(&|w| w.raw.tail_ns / slow(w)),
            },
            tail_pct: self
                .done
                .iter()
                .map(|w| w.tail_pct)
                .fold(f64::INFINITY, f64::min),
            windows: self.done.len(),
        })
    }
}

/// SplitMix64: derives independent per-tenant seeds from the run seed.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let mut small: Vec<u64> = (1..=100).collect();
        let t = tail(&mut small);
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!(t.p50_ns, 50);
        // Mean of 26..=75.
        assert_eq!(t.midmean_ns, 50.5);
        let mut big: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&mut big).tail_pct, 99.0);
    }

    #[test]
    fn windows_scale_by_the_calibration_kernel() {
        let slow = crate::calib::REFERENCE_NS * 2.0;
        let mut w = Windows::default();
        // Two whole windows of 1000 slices in 1000 ops of 1 ms each,
        // run while the kernel took twice its reference time.
        for _ in 0..2 {
            w.add(WINDOW_NS, 1000, &[1_000_000; 1000], slow);
        }
        let t = w.finish().expect("two windows");
        assert_eq!(t.windows, 2);
        assert_eq!(t.raw.slices_per_s, 1000.0);
        assert_eq!(t.scaled.slices_per_s, 2000.0);
        assert_eq!(t.scaled.p50_ns, 500_000.0);
        assert_eq!(t.scaled.midmean_ns, 500_000.0);
        assert_eq!(t.scaled.tail_ns, 500_000.0);
    }

    #[test]
    fn median_of_even_count_is_mid_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
