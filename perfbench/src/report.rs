//! Result line, statistics helpers and the simulated-result digest.

use std::fmt::Write as _;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they are added.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.add(name, value as f64, "count");
    }

    /// Whether every value can be written as a JSON number.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; `correct` is false when one occurs.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over every simulated result a workload produces. Host time never
/// enters it, so a speed-only change leaves it unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.add("wall_s", 1.25, "s");
        m.count("cells", 3);
        assert_eq!(
            result_line(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"cells\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
