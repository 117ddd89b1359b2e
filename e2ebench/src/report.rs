//! What a run reports: metrics with units, output checks, and the
//! final one-line JSON result.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form provenance shown in the table (e.g. "probe").
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// A run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that errored or belong to a pass whose output check failed.
    pub failed: u64,
    /// `(check, passed, detail)` for every output check made.
    pub checks: Vec<(String, bool, String)>,
    /// The bounded end-to-end metrics (the untraced run's JSON).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end metrics (`sim_*`, `failed_frac`):
    /// printed in the table, pinned by the checks.
    pub workload: Vec<Metric>,
    /// Per-layer metrics (the traced run's JSON).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records a check; a failing check always marks the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the human-readable table (every metric with its unit and
    /// every check), then the JSON result as the last stdout line.
    pub fn print(&self, traced: bool) {
        let row = |m: &Metric| {
            println!("  {:<34} {:>22} {:<9} {}", m.name, m.value, m.unit, m.note);
        };
        println!("end-to-end metrics:");
        self.end_to_end.iter().chain(&self.workload).for_each(row);
        if traced {
            println!("per-layer metrics (traced run):");
            self.layers.iter().for_each(row);
        }
        println!("checks:");
        for (name, ok, detail) in &self.checks {
            println!(
                "  {:<34} {:<4} {}",
                name,
                if *ok { "ok" } else { "FAIL" },
                detail
            );
        }
        let metrics = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number for `v` with all its digits (non-finite → `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
