//! What a workload run hands back, and the helpers every workload shares.

// balloc-lint: allow-file(L002): wall-clock timing is what a benchmark
// measures.

use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::procfs::RoleCpu;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// How a workload is driven: `setups` set-up passes (the last one is
/// kept), then one timed window per entry, traced or not.
#[derive(Debug, Clone)]
pub struct Plan {
    pub setups: usize,
    pub windows: Vec<(Duration, bool)>,
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub traced: bool,
    pub elapsed_s: f64,
    /// Per-slice throughput and latency percentiles: a slice is 50 ms of
    /// a TCP window, 250 ms of an engine window, or one sweep round. The
    /// window reports the mean over the better three quarters of the
    /// slices for rates and p50s (see [`trimmed_mean`]), and the lower
    /// decile of the slice p99s: a stall inflates the p99 of a slice
    /// without bound, and in a noisy hour most slices hold one.
    pub rates: Vec<f64>,
    pub slice_p50_us: Vec<f64>,
    pub slice_p99_us: Vec<f64>,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every latency of the window.
    pub latency: Histogram,
    /// Open-loop generator lateness.
    pub lag: Option<Histogram>,
    pub process_cpu_s: f64,
    /// Share of host CPU time stolen by the hypervisor during the window.
    pub steal_share: f64,
    pub roles: Vec<(&'static str, RoleCpu)>,
    /// Per-layer metrics this workload's window yields.
    pub layer: Vec<Metric>,
}

impl Window {
    /// Records one slice: `ops` operations in `seconds`, latencies `hist`.
    pub fn push_slice(&mut self, ops: u64, seconds: f64, hist: &Histogram) {
        self.rates.push(ops as f64 / seconds);
        self.slice_p50_us.push(hist.quantile_us(0.50));
        self.slice_p99_us.push(hist.quantile_us(0.99));
        self.latency.merge(hist);
    }

    pub fn ops_per_s(&self) -> f64 {
        trimmed_mean(&self.rates, true)
    }

    pub fn latency_p50_us(&self) -> f64 {
        trimmed_mean(&self.slice_p50_us, false)
    }

    pub fn latency_p99_us(&self) -> f64 {
        quantile(&self.slice_p99_us, 0.1)
    }
}

/// A workload's run: set-up times, windows, and lines to print.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    pub info: Vec<String>,
}

/// The `q`-quantile of `values`, interpolated between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the better three quarters of `values`, where larger is better
/// when `higher`. Slices spoiled by a host stall (the hypervisor running
/// another tenant) fall out; a cost that reaches every slice moves the
/// figure, and so, smoothly, does a share of slow slices that changes
/// from run to run.
pub fn trimmed_mean(values: &[f64], higher: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher {
        v.reverse();
    }
    let keep = (3 * v.len()).div_ceil(4);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Median nanoseconds per operation of `trials` calls of `f`, which
/// returns how many operations it performed.
pub fn ns_per_op(trials: usize, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..trials)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

pub fn per_kilo(count: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        count as f64 * 1_000.0 / base as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fails with `what` unless `ok`: a correctness gate.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_the_worst_quarter() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(trimmed_mean(&v, true), 3.0);
        assert_eq!(trimmed_mean(&v, false), 2.0);
        assert_eq!(trimmed_mean(&[7.0], true), 7.0);
        assert_eq!(median(&v), 2.5);
    }
}
