//! Shared plumbing: seeded inputs, timing statistics, output checks and
//! the result line.

use qt_core::QuTracerReport;
use std::time::Instant;

/// One SplitMix64 step — the only RNG the benchmark uses for its inputs.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A value derived from the workload seed for one input `stream` and
/// `index`, so every input is a pure function of the seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d)) ^ index)
}

/// Uniform in `[0, 1)` from [`derive`].
pub fn unit_f64(seed: u64, stream: u64, index: u64) -> f64 {
    (derive(seed, stream, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median (mean of the two middle values for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A report's exact wire form. The codec writes shortest-roundtrip
/// floats, so two reports have equal fingerprints exactly when every
/// encoded field is bit-identical.
pub fn fingerprint(report: &QuTracerReport) -> String {
    qt_serve::wire::report_to_json(report).to_string()
}

/// One measured metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: a human-readable table, then the result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed operation or output check.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Prints the metric table and, as the last line of standard output,
    /// the JSON result object; returns whether every check passed.
    pub fn print(mut self) -> bool {
        if self.attempted == 0 {
            self.correct = false;
            self.problems.push("no operation was attempted".to_string());
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.correct = false;
                self.problems
                    .push(format!("metric {} is not finite", m.name));
            }
        }
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        self.correct
    }
}
