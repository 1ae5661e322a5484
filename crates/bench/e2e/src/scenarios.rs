//! `fault-scenarios`: the 9 catalogue entries, stage by stage.
//!
//! The timed passes call `cpm_scenario::run_scenario` as users do and
//! compare each run with its committed golden under `goldens/`. Where
//! stage times or the simulated outcome are needed (the traced pass, the
//! cold set-up, the control-quality metrics), each scenario is instead
//! driven through public functions in the order `run_scenario` uses —
//! build, `Coordinator::new`, the loop with the recorder on, drain, SLO
//! scan plus alarm append, JSONL, digest, `GoldenDoc` with the behavioural
//! checks, Chrome and health — and checked the same way.
//!
//! Chosen because the loop here is small: most of the time is `cpm-obs`
//! export and `cpm-scenario` fingerprinting, so an export gain shows here
//! and nowhere else. The inputs are fixed by the goldens; the seed is not
//! used.

use std::path::Path;
use std::time::Instant;

use cpm_core::{Coordinator, Outcome};
use cpm_obs::{
    append_alarm_events, digest_str, events_to_chrome, events_to_jsonl, HealthReport, Recorder,
    SloPolicy,
};
use cpm_scenario::catalogue::RECORDER_CAPACITY;
use cpm_scenario::{run_scenario, GoldenDoc, Scenario, CATALOGUE, SCENARIO_ROUNDS};

use crate::child;
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, Summary};

/// Fresh processes that time the cold set-up.
const SETUP_PROCS: usize = 15;

/// Seconds spent per stage, summed over the scenarios of a pass. The
/// stages, in order: build, new, loop, drain, slo, jsonl, digest, golden,
/// chrome, health.
#[derive(Debug, Default, Clone, Copy)]
struct StageTimes([f64; 10]);

/// Times consecutive stages when on; costs nothing when off.
struct Laps<'a> {
    times: Option<&'a mut StageTimes>,
    last: Option<Instant>,
    stage: usize,
}

impl<'a> Laps<'a> {
    fn new(times: Option<&'a mut StageTimes>) -> Self {
        let last = times.is_some().then(Instant::now);
        Self {
            times,
            last,
            stage: 0,
        }
    }

    /// Ends the current stage.
    fn lap(&mut self) {
        if let (Some(times), Some(last)) = (self.times.as_deref_mut(), self.last.as_mut()) {
            let now = Instant::now();
            times.0[self.stage] += (now - *last).as_secs_f64();
            *last = now;
        }
        self.stage += 1;
    }
}

/// What one scenario run produced.
struct Run {
    outcome: Outcome,
    events: usize,
    jsonl_bytes: usize,
    dropped: u64,
}

/// The committed goldens, in catalogue order.
pub fn load_goldens(root: &Path) -> Result<Vec<GoldenDoc>, String> {
    CATALOGUE
        .iter()
        .map(|s| {
            let path = root.join("goldens").join(format!(
                "{}.golden",
                cpm_bench::scenario::scenario_stem(s.name)
            ));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            GoldenDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Runs one scenario and checks it against its golden: a trajectory that
/// differs, a failed behavioural check or a dropped event fails the run.
fn run_one(
    s: &Scenario,
    golden: &GoldenDoc,
    times: Option<&mut StageTimes>,
    report: &mut Report,
) -> Result<Run, String> {
    let mut laps = Laps::new(times);
    let (cfg, mut schedule) = (s.build)();
    laps.lap();
    let mut c = Coordinator::new(cfg).map_err(|e| format!("{}: {e}", s.name))?;
    let recorder = Recorder::enabled(RECORDER_CAPACITY);
    c.set_recorder(recorder.clone());
    schedule.set_recorder(recorder.clone());
    c.set_injection(Box::new(schedule));
    laps.lap();
    let outcome = c.run_for_gpm_intervals(SCENARIO_ROUNDS);
    laps.lap();
    let mut events = recorder.drain();
    let dropped = recorder.dropped();
    laps.lap();
    let policy = SloPolicy::default();
    let alarms = cpm_obs::slo::scan(&events, policy);
    append_alarm_events(&mut events, &alarms);
    laps.lap();
    let jsonl = events_to_jsonl(&events);
    laps.lap();
    let digest = digest_str(&jsonl);
    laps.lap();
    let doc = GoldenDoc::from_jsonl(s.name, &jsonl);
    let checks = (s.checks)(&outcome, &events);
    let matches = doc.matches(golden) && digest == golden.digest;
    laps.lap();
    let chrome = events_to_chrome(&events);
    laps.lap();
    let health = HealthReport::new(s.name, &events, &alarms, &policy).to_json();
    laps.lap();
    std::hint::black_box((chrome, health));

    let failed: Vec<&str> = checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect();
    report
        .tally
        .check(1, matches && failed.is_empty() && dropped == 0, || {
            format!(
            "fault-scenarios: {}: golden {}, failed checks {failed:?}, {dropped} dropped events",
            s.name,
            if matches { "matches" } else { "DIFFERS" }
        )
        });
    Ok(Run {
        outcome,
        events: events.len(),
        jsonl_bytes: jsonl.len(),
        dropped,
    })
}

/// One pass over the catalogue through `run_scenario`. A run fails when
/// its golden differs, a behavioural check fails, or it returns an error
/// (the recorder dropped events).
fn user_pass(goldens: &[GoldenDoc], report: &mut Report) {
    for (s, golden) in CATALOGUE.iter().zip(goldens) {
        let problem = match run_scenario(s) {
            Ok(run) => {
                let matches = run.golden.matches(golden) && run.digest == golden.digest;
                let passed = run.checks_passed();
                std::hint::black_box(&run);
                (!(matches && passed)).then(|| {
                    format!(
                        "golden {}, checks {}",
                        if matches { "matches" } else { "DIFFERS" },
                        if passed { "pass" } else { "FAIL" }
                    )
                })
            }
            Err(e) => Some(e),
        };
        report.tally.check(1, problem.is_none(), || {
            format!(
                "fault-scenarios: {}: {}",
                s.name,
                problem.unwrap_or_default()
            )
        });
    }
}

/// One stage-by-stage pass over the catalogue; returns the runs in
/// catalogue order.
fn pass(
    goldens: &[GoldenDoc],
    mut times: Option<&mut StageTimes>,
    report: &mut Report,
) -> Result<Vec<Run>, String> {
    CATALOGUE
        .iter()
        .zip(goldens)
        .map(|(s, g)| run_one(s, g, times.as_deref_mut(), report))
        .collect()
}

/// Child side: the first (cold) pass in a fresh process, reporting the
/// summed `Coordinator::new` stage and whether every run passed.
pub fn child_setup(root: &Path) -> Result<(), String> {
    let goldens = load_goldens(root)?;
    let mut times = StageTimes::default();
    let mut report = Report::default();
    pass(&goldens, Some(&mut times), &mut report)?;
    child::say("new_s", times.0[1]);
    child::say("failed", report.tally.failed);
    for p in &report.tally.problems {
        eprintln!("{p}");
    }
    Ok(())
}

/// Control quality over the catalogue: mean tracking error, worst
/// overshoot and mean throughput of the 9 runs.
fn sim_metrics(report: &mut Report, runs: &[Run]) {
    let n = runs.len() as f64;
    let errs: Vec<_> = runs
        .iter()
        .map(|r| r.outcome.chip_tracking_error())
        .collect();
    report.set(
        "power_track_err_pct",
        errs.iter().map(|e| e.mean_abs_error_percent).sum::<f64>() / n,
    );
    report.set(
        "budget_overshoot_pct",
        errs.iter()
            .map(|e| e.max_overshoot_percent)
            .fold(f64::MIN, f64::max),
    );
    report.set(
        "chip_bips",
        runs.iter().map(|r| r.outcome.mean_bips()).sum::<f64>() / n,
    );
}

/// The untraced run. The cold set-ups run in fresh processes spread
/// evenly over the timed window, between passes.
pub fn run(root: &Path, seconds: f64, report: &mut Report) -> Result<(), String> {
    let goldens = load_goldens(root)?;
    // The parent's own first pass is cold and stage by stage, for the
    // outcomes behind the control-quality metrics; it is checked but not
    // timed.
    let runs = pass(&goldens, None, report)?;
    sim_metrics(report, &runs);
    let (mut passes_ms, mut setups) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while passes_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds || setups.len() < SETUP_PROCS
    {
        let t = Instant::now();
        user_pass(&goldens, report);
        passes_ms.push(t.elapsed().as_secs_f64() * 1e3);
        while child::sample_due(
            setups.len(),
            SETUP_PROCS,
            t0.elapsed().as_secs_f64(),
            seconds,
        ) {
            let r = child::run(&["scenarios".into()], &[])?;
            let failed = r.num("failed")? as u64;
            report.tally.check(CATALOGUE.len() as u64, failed == 0, || {
                format!("fault-scenarios: {failed} runs failed in a cold pass")
            });
            setups.push(r.num("new_s")?);
        }
    }
    report.set_sampled("setup_s", median(&setups), &setups);
    report.set_sampled("op_ms_p75", Summary::of(&passes_ms).q3, &passes_ms);
    report.set("peak_rss_mb", peak_rss_mib()?);
    report.fact("op", "scenario_pass");
    report.fact("setup_processes", SETUP_PROCS);
    report.fact("pool_width", 1);
    Ok(())
}

/// The recorder-off twin of one scenario's loop: wall-clock seconds, and
/// whether it simulated exactly what the recorded loop did.
fn loop_off(s: &Scenario, recorded: &Outcome) -> Result<(f64, bool), String> {
    let (cfg, schedule) = (s.build)();
    let mut c = Coordinator::new(cfg).map_err(|e| format!("{}: {e}", s.name))?;
    c.set_injection(Box::new(schedule));
    let t = Instant::now();
    let o = c.run_for_gpm_intervals(SCENARIO_ROUNDS);
    let secs = t.elapsed().as_secs_f64();
    Ok((
        secs,
        crate::kilocore::outcome_digest(&o) == crate::kilocore::outcome_digest(recorded),
    ))
}

/// The traced pass: after a warm-up pass, untraced passes through
/// `run_scenario` and stage-timed passes alternate; each timed pass is
/// followed by the recorder-off twins of its loops.
pub fn trace(root: &Path, budget: f64, report: &mut Report) -> Result<crate::PassTotals, String> {
    let goldens = load_goldens(root)?;
    user_pass(&goldens, report);
    let mut times = StageTimes::default();
    let (mut untraced_s, mut traced_s, mut off_s) = (0.0, 0.0, 0.0);
    let mut passes = 0usize;
    let (mut events, mut bytes, mut dropped) = (0, 0, 0);
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        user_pass(&goldens, report);
        untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let runs = pass(&goldens, Some(&mut times), report)?;
        traced_s += t.elapsed().as_secs_f64();
        for (s, r) in CATALOGUE.iter().zip(&runs) {
            let (secs, same) = loop_off(s, &r.outcome)?;
            off_s += secs;
            report.tally.require(same, || {
                format!(
                    "fault-scenarios: {}: the recorder changed the trajectory",
                    s.name
                )
            });
        }
        events = runs.iter().map(|r| r.events).sum::<usize>();
        bytes = runs.iter().map(|r| r.jsonl_bytes).sum::<usize>();
        dropped = runs.iter().map(|r| r.dropped).sum::<u64>();
        passes += 1;
    }
    let n = passes as f64;
    let ms = |k: usize| times.0[k] * 1e3 / n;
    report.set("core.setup_ms", ms(0) + ms(1));
    for (k, name) in [
        (2, "core.loop_ms"),
        (3, "obs.drain_ms"),
        (4, "obs.slo_ms"),
        (5, "obs.jsonl_ms"),
        (6, "obs.digest_ms"),
        (7, "scenario.golden_ms"),
        (8, "obs.chrome_ms"),
        (9, "obs.health_ms"),
    ] {
        report.set(name, ms(k));
    }
    report.set("obs.events", events as f64);
    report.set("obs.jsonl_bytes", bytes as f64);
    report.set("obs.dropped", dropped as f64);
    let loop_off_ms = off_s * 1e3 / n;
    report.set("core.loop_off_ms", loop_off_ms);
    report.set(
        "obs.recorder_overhead_pct",
        (ms(2) - loop_off_ms) / loop_off_ms * 100.0,
    );
    let attributed = times.0.iter().sum::<f64>() / traced_s * 100.0;
    report.set("scenarios.attributed_pct", attributed);
    crate::reconcile(report, "fault-scenarios", attributed);
    report.fact("scenario_trace_passes", passes);
    Ok(crate::PassTotals {
        traced_s,
        untraced_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../.."))
    }

    #[test]
    fn a_corrupted_golden_is_a_failure() {
        let mut goldens = load_goldens(root()).expect("committed goldens");
        let mut good = Report::default();
        pass(&goldens, None, &mut good).expect("catalogue runs");
        assert!(good.tally.correct(), "{:?}", good.tally.problems);
        assert_eq!(good.tally.attempted, CATALOGUE.len() as u64);
        let mut good = Report::default();
        user_pass(&goldens, &mut good);
        assert!(good.tally.correct(), "{:?}", good.tally.problems);
        assert_eq!(good.tally.attempted, CATALOGUE.len() as u64);
        goldens[3].digest = goldens[3].digest.replace('a', "b");
        let mut bad = Report::default();
        pass(&goldens, None, &mut bad).expect("catalogue runs");
        assert_eq!(bad.tally.failed, 1);
        assert!(bad.tally.problems[0].contains(CATALOGUE[3].name));
        let mut bad = Report::default();
        user_pass(&goldens, &mut bad);
        assert_eq!(bad.tally.failed, 1);
        assert!(bad.tally.problems[0].contains(CATALOGUE[3].name));
    }
}
