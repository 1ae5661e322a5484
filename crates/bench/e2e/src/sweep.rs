//! `paper-sweep`: `experiments all` as users run it.
//!
//! Each sample is one fresh process that runs every experiment through
//! `cpm_bench::run_all_on` on the global pool, whose width is fixed by
//! `CPM_WORKERS` (see [`SWEEP_WIDTH`]). Fresh processes, because the memo
//! caches are process-wide: a warm repeat would hide the set-up users pay
//! on every run. 23 experiments, 107 cells, on 8- to 32-core chips.
//!
//! Chosen because it is dominated by set-up work — cache-simulator
//! calibrations, reference-power probes, transducer calibration sweeps,
//! MaxBIPS and control analysis — while the kilocore chip step barely
//! runs. The pool's fan-out is measured by the traced run.
//!
//! Set-up is timed as on `kilocore-loop`, on the paper's default cell:
//! a cold `Coordinator::new` plus a first one-round call (the
//! reference-power probe and the calibration sweep that the sweep's cells
//! pay through the memo caches), in fresh processes spread over the timed
//! window.

use std::time::Instant;

use cpm_bench::{run_all_on, run_experiment, ALL_EXPERIMENTS};
use cpm_runtime::Pool;
use cpm_sim::cache::Hierarchy;
use cpm_sim::config::CacheConfig;
use cpm_workloads::{AddressStream, Mix, WorkloadAssignment};

use crate::child::{self, ChildRun};
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, Summary};

/// Digest of the concatenated reports, identical at any worker count.
pub const PIN_DIGEST: &str = "fnv1a64:aeed76ded35ed116";
/// Fewest sweep processes a run times.
const MIN_SAMPLES: usize = 5;
/// GPM rounds of the paper-default cell behind the control-quality metrics.
pub const QUALITY_ROUNDS: usize = 50;
/// Fresh processes that time the cold set-up.
const SETUP_PROCS: usize = 41;

/// Pool width of the timed sweeps. One worker: in alternating 15-second
/// runs on a shared 2-CPU host, the 90th percentile spread (IQR over
/// median) by 39 % at two workers and by 5 % at one, because the second
/// CPU comes and goes with other tenants' load.
const SWEEP_WIDTH: usize = 1;

/// Pool width of the traced sweep that exercises the pool's fan-out and
/// stealing: two workers, or one on a one-CPU host.
fn fan_out_width() -> usize {
    crate::stats::nproc().min(2)
}

fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = cpm_obs::Fnv1a64::new();
    for r in reports {
        h.update(r.as_bytes());
    }
    cpm_obs::format_digest(h.finish())
}

/// Child side: one cold sweep on the global pool.
pub fn child_sweep() -> Result<(), String> {
    let out = run_all_on(Pool::global());
    let stats = &out.stats;
    let contexts = stats.per_context.len();
    let busy: f64 = stats.per_context.iter().map(|c| c.busy.as_secs_f64()).sum();
    let mean_util = (0..contexts).map(|k| stats.utilization(k)).sum::<f64>() / contexts as f64;
    child::say(
        "digest",
        digest_reports(out.reports.iter().map(|(_, r)| r.as_str())),
    );
    child::say("rss_mib", peak_rss_mib()?);
    child::say("busy_s", busy);
    child::say("idle_frac", 1.0 - mean_util);
    child::say("jobs", stats.total_jobs());
    child::say("steals", stats.total_steals());
    Ok(())
}

/// Child side: every experiment in paper order, one at a time, on a
/// serial global pool; with `traced`, each `run_experiment` call is timed.
pub fn child_serial(traced: bool) -> Result<(), String> {
    let mut reports = Vec::with_capacity(ALL_EXPERIMENTS.len());
    for id in ALL_EXPERIMENTS {
        let t = traced.then(Instant::now);
        reports.push(run_experiment(id).ok_or_else(|| format!("unknown experiment {id}"))?);
        if let Some(t) = t {
            child::say(&format!("exp.{id}"), t.elapsed().as_secs_f64());
        }
    }
    child::say("digest", digest_reports(reports.iter().map(String::as_str)));
    Ok(())
}

/// Checks a child's report digest against the pin (one operation: one
/// sweep process).
fn check_digest(report: &mut Report, r: &ChildRun, what: &str) -> Result<(), String> {
    check_pin(report, r.text("digest")?, PIN_DIGEST, what);
    Ok(())
}

fn check_pin(report: &mut Report, digest: &str, pin: &str, what: &str) {
    report.tally.check(1, digest == pin, || {
        format!("paper-sweep: {what} reports digest {digest}, pinned {pin}")
    });
}

/// A cold set-up of the paper's default cell (8 cores, Mix-1, 80 %,
/// performance-aware CPM), followed by [`QUALITY_ROUNDS`] checked rounds.
fn setup_child() -> Result<ChildRun, String> {
    child::run(&["sweep-setup".into()], &[])
}

fn sweep_child(width: usize) -> Result<ChildRun, String> {
    child::run(&["sweep".into()], &[("CPM_WORKERS", width.to_string())])
}

/// The untraced run. A first set-up process gives the control-quality
/// metrics (the paper's default cell, which the sweep's tracking figures
/// reproduce); the timed ones, spread evenly over the window between
/// sweeps, must simulate exactly what it did.
pub fn run(seconds: f64, report: &mut Report) -> Result<(), String> {
    let first = setup_child()?;
    let first_digest = first.text("digest")?;
    report.tally.check(1, first.text("sane")? == "true", || {
        "paper-sweep: unphysical readings in the paper-default cell".to_string()
    });
    crate::kilocore::sim_metrics(report, &first)?;
    let (mut walls_ms, mut setups, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while walls_ms.len() < MIN_SAMPLES
        || t0.elapsed().as_secs_f64() < seconds
        || setups.len() < SETUP_PROCS
    {
        let r = sweep_child(SWEEP_WIDTH)?;
        check_digest(report, &r, "a sweep")?;
        walls_ms.push(r.wall_s * 1e3);
        rss.push(r.num("rss_mib")?);
        while child::sample_due(
            setups.len(),
            SETUP_PROCS,
            t0.elapsed().as_secs_f64(),
            seconds,
        ) {
            let r = setup_child()?;
            let digest = r.text("digest")?;
            report.tally.check(1, digest == first_digest, || {
                format!("paper-sweep: a fresh paper-default cell gave {digest}, the first {first_digest}")
            });
            setups.push(r.num("setup_s")?);
        }
    }
    report.set_sampled("setup_s", median(&setups), &setups);
    report.set_sampled("op_ms_p75", Summary::of(&walls_ms).q3, &walls_ms);
    report.set_sampled("peak_rss_mb", median(&rss), &rss);
    report.fact("op", "sweep_process");
    report.fact("setup_processes", SETUP_PROCS);
    report.fact("pool_width", SWEEP_WIDTH);
    Ok(())
}

/// `Hierarchy::access` cost over the Mix-3 benchmarks' address streams,
/// ns per access (addresses are generated before timing).
fn cache_access_ns() -> f64 {
    let cfg = CacheConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix3, 32);
    let (mut accesses, mut elapsed, mut level_sum) = (0u64, 0.0, 0u64);
    for (k, p) in assignment.profiles().iter().enumerate().take(8) {
        let addrs = AddressStream::new(p, 0xC0FFEE + k as u64).take(1 << 17);
        let mut h = Hierarchy::new(&cfg);
        let t = Instant::now();
        for &a in &addrs {
            level_sum += u64::from(h.access(std::hint::black_box(a)));
        }
        elapsed += t.elapsed().as_secs_f64();
        accesses += addrs.len() as u64;
    }
    std::hint::black_box(level_sum);
    elapsed * 1e9 / accesses as f64
}

/// The traced pass: serial sweeps in fresh processes, alternating an
/// untimed one with one that times each experiment, plus one parallel
/// sweep for the pool's statistics.
pub fn trace(budget: f64, report: &mut Report) -> Result<crate::PassTotals, String> {
    let (mut untraced_s, mut traced_s, mut exp_sum) = (0.0, 0.0, 0.0);
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); ALL_EXPERIMENTS.len()];
    let serial = |traced: &str| {
        child::run(
            &["serial".into(), traced.into()],
            &[("CPM_WORKERS", "1".into())],
        )
    };
    let t0 = Instant::now();
    while per_exp[0].is_empty() || t0.elapsed().as_secs_f64() < budget {
        let u = serial("0")?;
        check_digest(report, &u, "a serial sweep")?;
        untraced_s += u.wall_s;
        let t = serial("1")?;
        check_digest(report, &t, "a traced serial sweep")?;
        traced_s += t.wall_s;
        for (k, id) in ALL_EXPERIMENTS.iter().enumerate() {
            let s = t.num(&format!("exp.{id}"))?;
            exp_sum += s;
            per_exp[k].push(s);
        }
    }
    for (id, samples) in ALL_EXPERIMENTS.iter().zip(&per_exp) {
        report.set(&format!("bench.exp.{id}_s"), median(samples));
    }
    let width = fan_out_width();
    let p = sweep_child(width)?;
    check_digest(report, &p, "a parallel sweep")?;
    for key in ["busy_s", "idle_frac", "jobs", "steals"] {
        report.set(&format!("runtime.{key}"), p.num(key)?);
    }
    report.set("sim.cache_access_ns", cache_access_ns());
    let attributed = exp_sum / traced_s * 100.0;
    report.set("sweep.attributed_pct", attributed);
    crate::reconcile(report, "paper-sweep", attributed);
    report.fact("sweep_trace_processes", per_exp[0].len());
    report.fact("fan_out_pool_width", width);
    Ok(crate::PassTotals {
        traced_s,
        untraced_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_sweep_pin_is_a_failure() {
        let out = run_all_on(&Pool::new(1));
        let digest = digest_reports(out.reports.iter().map(|(_, r)| r.as_str()));
        let mut good = Report::default();
        check_pin(&mut good, &digest, PIN_DIGEST, "a serial sweep");
        assert!(good.tally.correct(), "{:?}", good.tally.problems);
        let corrupted = PIN_DIGEST.replace('e', "f");
        let mut bad = Report::default();
        check_pin(&mut bad, &digest, &corrupted, "a serial sweep");
        assert_eq!((bad.tally.attempted, bad.tally.failed), (1, 1));
        assert!(!bad.tally.correct());
    }
}
