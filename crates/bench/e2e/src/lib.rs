//! End-to-end and per-layer benchmark of the CPM reproduction.
//!
//! ```text
//! cpmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `goldens/` and hashes `crates/`
//! for provenance). Workloads:
//!
//! * `kilocore-loop` — a 1024-core chip under closed-loop two-tier control;
//! * `paper-sweep` — `experiments all`, one fresh process per sample;
//! * `fault-scenarios` — the 9 fault-injection scenarios against goldens.
//!
//! With `--trace 0` the run prints the end-to-end metrics: set-up time,
//! the 75th-percentile time of the workload's operation (a GPM round, a
//! sweep process, a 9-scenario pass), peak memory, and the modelled chip's
//! control quality. The operation's median and 90th percentile are printed
//! with the provenance but not gated. On a shared host the median jumps
//! between a fast and a slow machine state that each last seconds, and the
//! 90th percentile follows preemption tails; in five 10-run proofs the
//! run-to-run spread reached 32 % for each, and 17 % for the 75th
//! percentile.
//!
//! With `--trace 1` it prints the per-layer metrics: every layer is timed
//! by calls into its public functions from this package, each on the
//! workload that exercises it.
//! The named workload's layers are measured for `--seconds`, the other
//! two workloads' for one pass, so every traced run prints every layer.
//!
//! The last line of standard output is the result, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give the provenance (host, toolchain, revision, pool width, seed and
//! every sampled metric's count and quartiles). Failed checks are listed
//! on standard error.

mod child;
mod kilocore;
pub mod report;
mod scenarios;
mod stats;
mod sweep;

use std::path::Path;

use cpm_core::ExperimentConfig;
use report::Report;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["kilocore-loop", "paper-sweep", "fault-scenarios"];

/// A layer sum must land within this many percent of its traced total.
const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// Totals of one traced pass, for the trace-overhead figure.
pub struct PassTotals {
    /// Wall-clock of the traced work, seconds.
    pub traced_s: f64,
    /// Wall-clock of the same work untraced, seconds.
    pub untraced_s: f64,
}

/// Fails the run unless the layer times of `workload` sum to within
/// [`RECONCILE_TOLERANCE_PCT`] of its traced total.
pub fn reconcile(report: &mut Report, workload: &str, attributed_pct: f64) {
    report.tally.require(
        (attributed_pct - 100.0).abs() <= RECONCILE_TOLERANCE_PCT,
        || format!("{workload}: layers sum to {attributed_pct:.1} % of the traced total, outside ±{RECONCILE_TOLERANCE_PCT} %"),
    );
}

/// Parsed command line.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// Parses `--workload --seed --seconds --trace`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one child-process job (`child <kind> ...`).
pub fn run_child(args: &[String], root: &Path) -> Result<(), String> {
    let arg = |k: usize| {
        args.get(k)
            .ok_or_else(|| format!("child {args:?}: missing argument"))
    };
    match arg(0)?.as_str() {
        "kilocore" => {
            let seed = arg(1)?.parse().map_err(|e| format!("seed: {e}"))?;
            kilocore::child_segment(kilocore::config(seed), kilocore::BATCH)
        }
        "sweep" => sweep::child_sweep(),
        "sweep-setup" => {
            kilocore::child_segment(ExperimentConfig::paper_default(), sweep::QUALITY_ROUNDS)
        }
        "serial" => sweep::child_serial(arg(1)? == "1"),
        "scenarios" => scenarios::child_setup(root),
        other => Err(format!("unknown child kind {other}")),
    }
}

/// Runs the benchmark: the measured report and the metrics it must print.
pub fn run(args: &Args, root: &Path) -> Result<(Report, Vec<report::Spec>), String> {
    let mut report = Report::default();
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("seconds", args.seconds);
    report.fact("trace", u8::from(args.trace));
    if !args.trace {
        match args.workload.as_str() {
            "kilocore-loop" => kilocore::run(args.seed, args.seconds, &mut report)?,
            "paper-sweep" => sweep::run(args.seconds, &mut report)?,
            _ => scenarios::run(root, args.seconds, &mut report)?,
        }
        return Ok((report, report::end_to_end()));
    }
    let budget = |w: &str| {
        if args.workload == w {
            args.seconds
        } else {
            0.0
        }
    };
    let k = kilocore::trace(args.seed, budget("kilocore-loop"), &mut report)?;
    let s = sweep::trace(budget("paper-sweep"), &mut report)?;
    let f = scenarios::trace(root, budget("fault-scenarios"), &mut report)?;
    let own = match args.workload.as_str() {
        "kilocore-loop" => k,
        "paper-sweep" => s,
        _ => f,
    };
    report.set(
        "trace_overhead_pct",
        (own.traced_s - own.untraced_s) / own.untraced_s * 100.0,
    );
    Ok((report, report::per_layer()))
}
