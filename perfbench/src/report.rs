//! Metric catalogue and the JSON lines a run prints.
//!
//! The catalogue is `BENCHMARK.json` itself, read at build time: its
//! `end_to_end` metrics are reported by untraced runs, its `per_layer`
//! metrics by traced runs. Every workload reports the whole catalogue: a
//! layer a workload never calls reads 0 with 0 samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// `BENCHMARK.json`, the one place metric names and units are kept.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// A catalogue: `(name, unit)` per metric.
type Catalogue = Vec<(&'static str, &'static str)>;

/// End-to-end metrics (`end_to_end` of `BENCHMARK.json`).
pub fn end_to_end() -> &'static [(&'static str, &'static str)] {
    static C: OnceLock<Catalogue> = OnceLock::new();
    C.get_or_init(|| section("end_to_end"))
}

/// Per-layer metrics (`per_layer` of `BENCHMARK.json`).
pub fn per_layer() -> &'static [(&'static str, &'static str)] {
    static C: OnceLock<Catalogue> = OnceLock::new();
    C.get_or_init(|| section("per_layer"))
}

/// The `(name, unit)` entries of the array `key` of [`SPEC`]. The array
/// holds flat objects of string and number fields, so it ends at the
/// first `]` and each entry at a `}`.
fn section(key: &str) -> Catalogue {
    let at = SPEC
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &SPEC[at..];
    let body = &rest[rest.find('[').expect("an array")..rest.find(']').expect("a closed array")];
    body.split('}')
        .filter_map(|entry| Some((string_field(entry, "name")?, string_field(entry, "unit")?)))
        .collect()
}

/// The string value of field `key` in one flat JSON object.
fn string_field(entry: &'static str, key: &str) -> Option<&'static str> {
    let rest = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(&rest[..rest.find('"')?])
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measurement (finite).
    pub value: f64,
    /// Samples it summarises (operations, calls, segments…).
    pub samples: u64,
}

/// A correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether the check held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted (requests, tasks or messages).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Whole-run checks (counter deltas, coverage, determinism).
    pub checks: Vec<Check>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Threads the workload ran on.
    pub threads: usize,
}

impl Outcome {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .insert(name.to_owned(), Value { value, samples });
    }

    /// Records a whole-run check; a failed check counts as one failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The metric, or 0 with 0 samples when the workload has no such layer.
    pub fn get(&self, name: &str) -> Value {
        self.metrics.get(name).copied().unwrap_or(Value {
            value: 0.0,
            samples: 0,
        })
    }

    /// Fills `failed_frac` from the counts.
    pub fn finish(&mut self) {
        let frac = crate::stats::ratio(self.failed as f64, self.attempted as f64);
        self.set("failed_frac", frac, self.attempted);
    }

    /// The detail line: every measured metric with its unit and sample
    /// count, the checks, and the run's parameters.
    pub fn detail_json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"perfbench\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \"threads\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [",
            json_str(workload),
            num(seconds),
            self.threads,
            self.attempted,
            self.failed
        );
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        s.push_str("], \"metrics\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name).expect("catalogued");
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(name),
                num(v.value),
                json_str(unit),
                v.samples
            );
        }
        s.push_str("}}}");
        s
    }

    /// The result line: the end-to-end catalogue (untraced) or the
    /// per-layer catalogue (traced), each metric with value and unit.
    pub fn result_json(&self, trace: bool) -> String {
        let catalogue = if trace { per_layer() } else { end_to_end() };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(self.get(name).value),
                json_str(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        assert!(end_to_end().contains(&("setup_s", "s")));
        assert!(!per_layer().is_empty());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in end_to_end().iter().chain(per_layer()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("ops_per_s", 1.5, 3);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in end_to_end() {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
