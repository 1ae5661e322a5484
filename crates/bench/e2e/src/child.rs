//! Fresh worker processes.
//!
//! Cold costs (set-up, whole sweeps) are measured in processes of their
//! own, because the library's memo caches are process-wide: a repeat in
//! one process would time a warm path users never take on a fresh run.
//! A child is this same executable started as `child <kind> ...`; it
//! reports `key=value` lines on standard output.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one child process reported.
#[derive(Debug)]
pub struct ChildRun {
    /// Wall-clock seconds from spawn to exit, as the parent saw them.
    pub wall_s: f64,
    values: BTreeMap<String, String>,
}

impl ChildRun {
    /// A reported value as text.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("child reported no `{key}`"))
    }

    /// A reported value as a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        let t = self.text(key)?;
        t.parse()
            .map_err(|e| format!("child value {key}={t} is not a number: {e}"))
    }
}

/// Runs this executable as `child <args>` with extra environment, waits
/// for it to end, and collects its report. A child that exits unsuccessfully
/// is an error.
pub fn run(args: &[String], envs: &[(&str, String)]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("child")
        .args(args)
        .envs(envs.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    let mut values = BTreeMap::new();
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                // Reap the child before reporting, so no process outlives us.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("reading child {args:?}: {e}"));
            }
        };
        if let Some((k, v)) = line.split_once('=') {
            values.insert(k.to_string(), v.to_string());
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child {args:?}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    Ok(ChildRun { wall_s, values })
}

/// Whether the next of `total` fresh-process samples is due `elapsed`
/// seconds into a timed window of `seconds`. Samples are spread evenly over
/// the window, so they see the same stretch of host time as the timed work
/// (on a shared host, speed drifts over seconds).
pub fn sample_due(done: usize, total: usize, elapsed: f64, seconds: f64) -> bool {
    done < total && elapsed >= seconds * done as f64 / total as f64
}

/// Child side: prints one `key=value` line.
pub fn say(key: &str, value: impl std::fmt::Display) {
    println!("{key}={value}");
}
