//! The metric catalogue and the result line.
//!
//! The catalogue here is the one `BENCHMARK.json` lists (a test keeps the
//! two equal), and [`Report::render`] refuses to print a result that lacks
//! one of them, so every named metric is printed with its unit or the run
//! fails.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{Summary, Tally};

/// One metric name and its unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s"),
        spec("op_ms_p75", "ms"),
        spec("peak_rss_mb", "MiB"),
        spec("power_track_err_pct", "%"),
        spec("budget_overshoot_pct", "%"),
        spec("chip_bips", "BIPS"),
    ]
}

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("core.decide_us", "us"),
        spec("core.sense_us", "us"),
        spec("core.actuate_us", "us"),
        spec("core.bookkeeping_us", "us"),
        spec("sim.chip_step_us", "us"),
        spec("workloads.phase_advance_us", "us"),
        spec("sim.core_power_us", "us"),
        spec("thermal.step_us", "us"),
        spec("core.pic_invokes", "count"),
        spec("core.gpm_rounds", "count"),
        spec("sim.dvfs_transitions", "count"),
        spec("kilocore.attributed_pct", "%"),
    ];
    v.extend(
        cpm_bench::ALL_EXPERIMENTS
            .iter()
            .map(|id| spec(format!("bench.exp.{id}_s"), "s")),
    );
    v.extend([
        spec("runtime.busy_s", "s"),
        spec("runtime.idle_frac", "ratio"),
        spec("runtime.jobs", "count"),
        spec("runtime.steals", "count"),
        spec("sim.cache_access_ns", "ns"),
        spec("sweep.attributed_pct", "%"),
        spec("core.setup_ms", "ms"),
        spec("core.loop_ms", "ms"),
        spec("obs.drain_ms", "ms"),
        spec("obs.slo_ms", "ms"),
        spec("obs.jsonl_ms", "ms"),
        spec("obs.digest_ms", "ms"),
        spec("scenario.golden_ms", "ms"),
        spec("obs.chrome_ms", "ms"),
        spec("obs.health_ms", "ms"),
        spec("obs.events", "count"),
        spec("obs.jsonl_bytes", "bytes"),
        spec("obs.dropped", "count"),
        spec("core.loop_off_ms", "ms"),
        spec("obs.recorder_overhead_pct", "%"),
        spec("scenarios.attributed_pct", "%"),
        spec("trace_overhead_pct", "%"),
    ]);
    v
}

/// Everything one run measured, plus the checks it made.
#[derive(Debug, Default)]
pub struct Report {
    /// Attempted and failed operations.
    pub tally: Tally,
    values: BTreeMap<String, f64>,
    spreads: BTreeMap<String, Summary>,
    facts: Vec<(String, String)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a metric whose value summarises `samples`, keeping their
    /// dispersion for the provenance lines.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.set(name, value);
        self.spreads.insert(name.to_string(), Summary::of(samples));
    }

    /// Adds a provenance fact (pool width, seed, sample counts, ...).
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Provenance lines: host, toolchain, revision, run facts, and the
    /// sample count and quartiles of every sampled metric.
    pub fn provenance(&self, root: &Path) -> Vec<String> {
        let mut lines = vec![
            format!("provenance nproc={}", crate::stats::nproc()),
            format!("provenance rustc={}", command_line("rustc", &["-V"])),
            format!(
                "provenance git={}",
                command_line("git", &["rev-parse", "--short=12", "HEAD"])
            ),
            format!("provenance source={}", source_digest(root)),
        ];
        for (k, v) in &self.facts {
            lines.push(format!("provenance {k}={v}"));
        }
        for (name, s) in &self.spreads {
            lines.push(format!(
                "samples {name} n={} q1={} median={} q3={} p90={}",
                s.n, s.q1, s.median, s.q3, s.p90
            ));
        }
        lines
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `specs`, with its unit.
    pub fn render(&self, specs: &[Spec]) -> Result<String, String> {
        let mut metrics = String::new();
        for (k, s) in specs.iter().enumerate() {
            let value = *self
                .values
                .get(&s.name)
                .ok_or_else(|| format!("metric {} was not measured", s.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", s.name));
            }
            let sep = if k == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back as the same
            // f64, so every measured digit is kept.
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed
        ))
    }
}

/// First line of a command's standard output, or `none` when it cannot
/// run (no toolchain on the path, not a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Digest of the measured sources (`crates/`, `Cargo.lock`): names the
/// code a result belongs to where no git revision is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = cpm_obs::digest::Fnv1a64::new();
    for f in &files {
        h.update(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    format!(
        "{}:{}files",
        cpm_obs::digest::format_digest(h.finish()),
        files.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for specs in [end_to_end(), per_layer()] {
            let mut r = Report::default();
            for (k, s) in specs.iter().enumerate() {
                r.set(&s.name, 1.5 + k as f64);
            }
            let line = r.render(&specs).expect("all metrics set");
            for s in &specs {
                let needle = format!("\"{}\": {{\"value\": ", s.name);
                let at = line.find(&needle).expect("metric printed");
                let unit = format!("\"unit\": \"{}\"}}", s.unit);
                assert!(line[at..].starts_with(&needle) && line[at..].contains(&unit));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 0"));
        }
    }

    /// The values of `"key": "<value>"` in `text`, in order.
    fn strings(text: &str, key: &str) -> Vec<String> {
        let tag = format!("\"{key}\"");
        text.split(&tag)
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().strip_prefix(':').expect("colon");
                let rest = rest.trim_start().strip_prefix('"').expect("a string");
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    /// The text of the array that follows `"key":` in `text`; the
    /// sections of `BENCHMARK.json` hold no nested arrays.
    fn section<'a>(text: &'a str, key: &str) -> &'a str {
        let at = text.find(&format!("\"{key}\"")).expect(key);
        let rest = &text[at..];
        &rest[..rest.find(']').expect("closing bracket")]
    }

    #[test]
    fn the_catalogue_is_the_one_benchmark_json_names() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../BENCHMARK.json"
        ))
        .expect("BENCHMARK.json at the repository root");
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = section(&text, key);
            let names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
            let units: Vec<_> = specs.iter().map(|s| s.unit.to_string()).collect();
            assert_eq!(strings(listed, "name"), names, "{key} names differ");
            assert_eq!(strings(listed, "unit"), units, "{key} units differ");
        }
        assert_eq!(
            strings(section(&text, "workloads"), "name"),
            crate::WORKLOADS
        );
    }

    #[test]
    fn a_missing_or_non_finite_metric_refuses_to_print() {
        let specs = end_to_end();
        let mut r = Report::default();
        for s in &specs[1..] {
            r.set(&s.name, 2.0);
        }
        assert!(r.render(&specs).unwrap_err().contains("setup_s"));
        r.set("setup_s", f64::NAN);
        assert!(r.render(&specs).unwrap_err().contains("not finite"));
    }
}
