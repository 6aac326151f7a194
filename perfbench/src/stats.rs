//! Summaries, the determinism digest, span recording and JSON output.

use pagefeed::QueryOutcome;
use pf_feedback::FeedbackReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The value at quantile `q` of `values` (nearest rank on the sorted
/// samples); `None` when there are no samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above quantile `q` — the evidence
/// behind a tail percentile.
pub fn samples_above(values: &[f64], q: f64) -> usize {
    quantile(values, q).map_or(0, |t| values.iter().filter(|&&v| v > t).count())
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// FNV-1a over everything an op produced that must not change between
/// repeated runs: counts, I/O counters, simulated time, plan
/// descriptions and feedback reports. Wall-clock values never enter it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn report(&mut self, report: &FeedbackReport) {
        self.bytes(format!("{report:?}").as_bytes());
    }

    pub fn outcome(&mut self, out: &QueryOutcome) {
        self.bytes(&out.count.to_le_bytes());
        self.bytes(format!("{:?}", out.stats).as_bytes());
        self.f64(out.elapsed_ms);
        self.bytes(out.description.as_bytes());
        self.report(&out.report);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Wall-clock samples of the calls the benchmark makes into each layer,
/// keyed by span name, in milliseconds.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Runs `f`, recording its wall time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, ms_since(start));
        out
    }

    pub fn record(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().fold(0.0, |a, b| a + b)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.0.iter().map(|(k, v)| (*k, v.len()))
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A metric as printed: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// A JSON value built by hand (the workspace has no serializer).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Finite by construction (see `metrics_json`); `{}` prints the
            // shortest digits that round-trip, so nothing is rounded away.
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::obj(metrics.iter().map(|(name, (value, unit))| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(samples_above(&v, 0.9), 10);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj([
            ("a", Json::str("x\"y")),
            ("b", Json::obj([("c", Json::Num(1.5)), ("d", Json::Int(3))])),
            ("e", Json::Bool(true)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": "x\"y", "b": {"c": 1.5, "d": 3}, "e": true}"#
        );
    }
}
