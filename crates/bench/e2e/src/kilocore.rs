//! `kilocore-loop`: closed-loop control of a 1024-core chip.
//!
//! One `Coordinator` with 1024 cores in 16 islands of 64, PARSEC Mix-3
//! tiled, performance-aware CPM at an 80 % budget, transducer sensing and
//! the recorder off. Set-up is `Coordinator::new` plus a first one-round
//! call (calibration and settle-in), timed in fresh processes; then
//! `run_for_gpm_intervals(BATCH)` calls are timed for the run's length,
//! with round boundaries stamped on `Decide` entry.
//!
//! Chosen because it is dominated by the chip step (phases, the fused
//! CPI+power pass, the thermal stencil) and coordinator bookkeeping, and
//! bypasses the cache-simulator calibration, MaxBIPS and every
//! observability export.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cpm_core::{Coordinator, ExperimentConfig, Outcome};
use cpm_obs::{ControlPhase, PhaseProfiler};
use cpm_sim::{Chip, ChipSnapshot, CoreBank};
use cpm_thermal::ThermalGrid;
use cpm_units::{IslandId, Seconds};
use cpm_workloads::{BenchmarkProfile, Mix, WorkloadAssignment};

use crate::child;
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, Summary};

/// Cores on the chip.
pub const CORES: usize = 1024;
/// Cores per island (16 islands).
pub const WIDTH: usize = 64;
/// GPM rounds per timed call, and per checked segment.
pub const BATCH: usize = 50;
/// The seed the trajectory pin was taken at (`CmpConfig`'s default).
pub const PIN_SEED: u64 = 0xC0FFEE;
/// Digest of the first checked segment at [`PIN_SEED`].
pub const PIN_DIGEST: &str = "fnv1a64:f36db6d372e07642";
/// Fresh processes that time the cold set-up. On a shared host each
/// process lands in a fast or a slow state (about 1.45× apart), so the
/// median needs many samples: at 41 its sampling error is about ±4 %.
const SETUP_PROCS: usize = 41;

/// PARSEC Mix 3 (the paper's 32-core mix) tiled out to [`CORES`].
fn profiles() -> Vec<BenchmarkProfile> {
    WorkloadAssignment::paper_mix(Mix::Mix3, 32)
        .profiles()
        .iter()
        .cloned()
        .cycle()
        .take(CORES)
        .collect()
}

/// The workload's experiment at chip seed `seed`.
pub fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default()
        .with_assignment(WorkloadAssignment::new(profiles(), WIDTH))
        .with_budget_percent(80.0);
    cfg.cmp.seed = seed;
    cfg
}

/// Digest of what a segment simulated: chip power, throughput, peak
/// temperature and every island's operating point, bit for bit.
pub fn outcome_digest(o: &Outcome) -> String {
    let mut h = cpm_obs::Fnv1a64::new();
    let mut feed = |s: &cpm_sim::TimeSeries| {
        for v in s.values() {
            h.update(&v.to_bits().to_le_bytes());
        }
    };
    feed(&o.chip_power_percent);
    feed(&o.chip_bips);
    feed(&o.peak_temperature);
    for s in &o.island_dvfs_index {
        feed(s);
    }
    cpm_obs::format_digest(h.finish())
}

/// Whether a segment's readings are physical: finite, positive power and
/// throughput, finite temperatures.
fn sane(o: &Outcome) -> bool {
    o.chip_power_percent
        .values()
        .all(|v| v.is_finite() && v > 0.0)
        && o.chip_bips.values().all(|v| v.is_finite() && v > 0.0)
        && o.peak_temperature.values().all(f64::is_finite)
}

/// Builds and sets up a coordinator (`Coordinator::new` plus a first
/// one-round call, which runs calibration and settle-in), returning it
/// with the set-up time.
fn set_up(cfg: ExperimentConfig) -> Result<(Coordinator, f64), String> {
    let t0 = Instant::now();
    let mut c = Coordinator::new(cfg).map_err(|e| format!("config: {e}"))?;
    c.run_for_gpm_intervals(1);
    Ok((c, t0.elapsed().as_secs_f64()))
}

/// Set-up, then one checked segment of `rounds` GPM rounds: the set-up
/// time and the segment's outcome.
fn segment(cfg: ExperimentConfig, rounds: usize) -> Result<(f64, Outcome), String> {
    let (mut c, setup_s) = set_up(cfg)?;
    Ok((setup_s, c.run_for_gpm_intervals(rounds)))
}

/// Child side: [`segment`] in a fresh process, so the set-up is cold,
/// reported with the segment's digest and control quality.
pub fn child_segment(cfg: ExperimentConfig, rounds: usize) -> Result<(), String> {
    let (setup_s, o) = segment(cfg, rounds)?;
    let err = o.chip_tracking_error();
    child::say("setup_s", setup_s);
    child::say("digest", outcome_digest(&o));
    child::say("sane", sane(&o));
    child::say("track_err", err.mean_abs_error_percent);
    child::say("overshoot", err.max_overshoot_percent);
    child::say("bips", o.mean_bips());
    child::say("rss_mib", peak_rss_mib()?);
    Ok(())
}

/// Checks the segment at [`PIN_SEED`] against `pin`; its rounds fail
/// when the trajectory differs.
fn check_pin(report: &mut Report, digest: &str, pin: &str) {
    report.tally.check(BATCH as u64 + 1, digest == pin, || {
        format!("kilocore: trajectory at seed {PIN_SEED:#x} is {digest}, pinned {pin}")
    });
}

/// Records the control-quality metrics of a [`child_segment`] run.
pub fn sim_metrics(report: &mut Report, run: &child::ChildRun) -> Result<(), String> {
    report.set("power_track_err_pct", run.num("track_err")?);
    report.set("budget_overshoot_pct", run.num("overshoot")?);
    report.set("chip_bips", run.num("bips")?);
    Ok(())
}

/// Stamps the start of every GPM round (`Decide` entry) and nothing else.
///
/// The profilers' shared data is updated by single pushes and additions,
/// so it stays valid if a holder panics and a poisoned lock is recovered.
struct RoundStamps(Arc<Mutex<Vec<Instant>>>);

impl PhaseProfiler for RoundStamps {
    fn enter(&mut self, phase: ControlPhase) {
        if phase == ControlPhase::Decide {
            let now = Instant::now();
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(now);
        }
    }
    fn exit(&mut self, _: ControlPhase) {}
}

/// The untraced run. The cold set-ups run in fresh processes spread
/// evenly over the timed window, between batches, so they sample the same
/// stretch of host time as the rounds.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let pin = child::run(&["kilocore".into(), PIN_SEED.to_string()], &[])?;
    check_pin(report, pin.text("digest")?, PIN_DIGEST);
    sim_metrics(report, &pin)?;

    let (mut c, _) = set_up(config(seed))?;
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(2 * BATCH)));
    c.set_profiler(Box::new(RoundStamps(Arc::clone(&stamps))));
    let (mut rounds_ms, mut setups, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = String::new();
    let t0 = Instant::now();
    let mut batches = 0u64;
    while batches == 0 || t0.elapsed().as_secs_f64() < seconds || setups.len() < SETUP_PROCS {
        let o = c.run_for_gpm_intervals(BATCH);
        // Rounds are timed within a call; the gap between calls holds the
        // call's own bookkeeping and any set-up process.
        let mut s = stamps.lock().unwrap_or_else(PoisonError::into_inner);
        rounds_ms.extend(s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
        s.clear();
        drop(s);
        if batches == 0 {
            first_digest = outcome_digest(&o);
        }
        report.tally.check(BATCH as u64, sane(&o), || {
            format!("kilocore: unphysical readings in batch {batches}")
        });
        batches += 1;
        while child::sample_due(
            setups.len(),
            SETUP_PROCS,
            t0.elapsed().as_secs_f64(),
            seconds,
        ) {
            let r = child::run(&["kilocore".into(), seed.to_string()], &[])?;
            let digest = r.text("digest")?;
            report.tally.check(
                BATCH as u64 + 1,
                r.text("sane")? == "true" && digest == first_digest,
                || format!("kilocore: a fresh run at seed {seed} gave {digest}, the timed run {first_digest}"),
            );
            setups.push(r.num("setup_s")?);
            rss.push(r.num("rss_mib")?);
        }
    }
    report.set_sampled("setup_s", median(&setups), &setups);
    report.set_sampled("op_ms_p75", Summary::of(&rounds_ms).q3, &rounds_ms);
    report.set_sampled("peak_rss_mb", median(&rss), &rss);
    report.fact("op", "gpm_round");
    report.fact("setup_processes", SETUP_PROCS);
    report.fact("pool_width", 1);
    Ok(())
}

/// Wall-clock per control phase, summed while attached.
#[derive(Default)]
struct PhaseTotals {
    open: Option<Instant>,
    decide: Duration,
    sense: Duration,
    actuate: Duration,
}

struct PhaseSpans(Arc<Mutex<PhaseTotals>>);

impl PhaseProfiler for PhaseSpans {
    fn enter(&mut self, _: ControlPhase) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).open = Some(Instant::now());
    }
    fn exit(&mut self, phase: ControlPhase) {
        let mut t = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let d = t.open.take().map_or(Duration::ZERO, |s| s.elapsed());
        match phase {
            ControlPhase::Decide => t.decide += d,
            ControlPhase::Sense => t.sense += d,
            ControlPhase::Actuate => t.actuate += d,
        }
    }
}

/// Layer times of the chip step, from replaying a batch.
#[derive(Default)]
struct StepLayers {
    chip_step: Duration,
    phases: Duration,
    core_power: Duration,
    thermal: Duration,
}

/// Standalone layer instances with the workload's profiles, seed and
/// floorplan.
struct Standalone {
    bank: CoreBank,
    grid: ThermalGrid,
}

impl Standalone {
    fn new(chip: &Chip) -> Self {
        let cfg = chip.config();
        let mut bank = CoreBank::new(cfg.cores_per_island);
        for (c, p) in profiles().into_iter().enumerate() {
            bank.push(p, cfg.seed, c as u64);
        }
        Self {
            bank,
            grid: ThermalGrid::new(cfg.floorplan(), cfg.thermal),
        }
    }
}

/// Replays one batch's DVFS trajectory on `chip` (a clone of the
/// coordinator's chip taken before the batch), timing `Chip::step_pic_into`
/// and, on the standalone instances, the layers inside it. Checks that the
/// replay reproduces the batch's chip power exactly.
fn replay(
    mut chip: Chip,
    o: &Outcome,
    reference_w: f64,
    solo: &mut Standalone,
    layers: &mut StepLayers,
) -> bool {
    let cfg = chip.config().clone();
    let dt = cfg.pic_interval;
    let mut snap = ChipSnapshot::empty();
    let mut faithful = true;
    for (k, expected) in o.chip_power_percent.values().enumerate() {
        for (i, s) in o.island_dvfs_index.iter().enumerate() {
            chip.set_island_dvfs(IslandId(i), s.samples()[k].value as usize);
        }
        let t = Instant::now();
        chip.step_pic_into(&mut snap);
        layers.chip_step += t.elapsed();
        faithful &= snap.chip_power.value() / reference_w * 100.0 == expected;

        let t = Instant::now();
        solo.bank.advance_phases(dt);
        layers.phases += t.elapsed();
        let t = Instant::now();
        for i in 0..cfg.islands() {
            let op = cfg.dvfs.point(chip.island_dvfs(IslandId(i)));
            std::hint::black_box(solo.bank.step_island(
                i,
                op.frequency,
                dt,
                Seconds::ZERO,
                1.0,
                &cfg.power,
                cfg.power.island_terms(op),
                1.0,
                solo.grid.temperatures_deg(),
            ));
        }
        layers.core_power += t.elapsed();
        let t = Instant::now();
        solo.grid.step(&snap.core_powers, dt);
        layers.thermal += t.elapsed();
    }
    faithful
}

/// The traced pass: two coordinators on the same seed follow the same
/// trajectory batch for batch, one bare and one with phase spans; their
/// batch times give the trace overhead, the spans give the phase split,
/// and a replay of each traced batch splits the chip step into layers.
pub fn trace(seed: u64, budget: f64, report: &mut Report) -> Result<crate::PassTotals, String> {
    let (mut bare, _) = set_up(config(seed))?;
    let (mut traced, _) = set_up(config(seed))?;
    let totals = Arc::new(Mutex::new(PhaseTotals::default()));
    traced.set_profiler(Box::new(PhaseSpans(Arc::clone(&totals))));
    let mut solo = Standalone::new(traced.chip());
    let mut layers = StepLayers::default();
    let reference_w = traced.reference_power().value();
    let counter = |c: &Coordinator, name: &str| {
        c.registry()
            .snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    };
    let transitions = |c: &Coordinator| -> u64 {
        (0..c.chip().config().islands())
            .map(|i| c.chip().island_transitions(IslandId(i)))
            .sum()
    };
    let (pic0, gpm0, tr0) = (
        counter(&traced, "pic.invocations"),
        counter(&traced, "coordinator.gpm_rounds"),
        transitions(&traced),
    );
    let (mut bare_s, mut traced_s) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut batches = 0u64;
    while batches < 4 || t0.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let ob = bare.run_for_gpm_intervals(BATCH);
        bare_s += t.elapsed().as_secs_f64();
        let chip = traced.chip().clone();
        let t = Instant::now();
        let ot = traced.run_for_gpm_intervals(BATCH);
        traced_s += t.elapsed().as_secs_f64();
        report.tally.check(
            BATCH as u64,
            outcome_digest(&ob) == outcome_digest(&ot),
            || format!("kilocore: the phase profiler changed batch {batches}"),
        );
        let faithful = replay(chip, &ot, reference_w, &mut solo, &mut layers);
        report.tally.require(faithful, || {
            format!("kilocore: replaying batch {batches} did not reproduce its chip power")
        });
        batches += 1;
    }
    let rounds = (batches * BATCH as u64) as f64;
    let per_round_us = |d: Duration| d.as_secs_f64() * 1e6 / rounds;
    let p = totals.lock().unwrap_or_else(PoisonError::into_inner);
    let (decide, sense, actuate) = (
        per_round_us(p.decide),
        per_round_us(p.sense),
        per_round_us(p.actuate),
    );
    let chip_step = per_round_us(layers.chip_step);
    let (phases, core_power, thermal) = (
        per_round_us(layers.phases),
        per_round_us(layers.core_power),
        per_round_us(layers.thermal),
    );
    let bookkeeping = sense - chip_step;
    report.set("core.decide_us", decide);
    report.set("core.sense_us", sense);
    report.set("core.actuate_us", actuate);
    report.set("core.bookkeeping_us", bookkeeping);
    report.set("sim.chip_step_us", chip_step);
    report.set("workloads.phase_advance_us", phases);
    report.set("sim.core_power_us", core_power);
    report.set("thermal.step_us", thermal);
    report.set(
        "core.pic_invokes",
        (counter(&traced, "pic.invocations") - pic0) as f64,
    );
    report.set(
        "core.gpm_rounds",
        (counter(&traced, "coordinator.gpm_rounds") - gpm0) as f64,
    );
    report.set("sim.dvfs_transitions", (transitions(&traced) - tr0) as f64);
    // Leaf layers: decide, actuate, bookkeeping, and the chip step's
    // phases, core/power and thermal parts.
    let leaves = decide + actuate + bookkeeping + phases + core_power + thermal;
    let round_us = traced_s * 1e6 / rounds;
    let attributed = leaves / round_us * 100.0;
    report.set("kilocore.attributed_pct", attributed);
    crate::reconcile(report, "kilocore", attributed);
    report.fact("kilocore_trace_rounds", rounds);
    Ok(crate::PassTotals {
        traced_s,
        untraced_s: bare_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_trajectory_pin_is_a_failure() {
        let (_, o) = segment(config(PIN_SEED), BATCH).expect("kilocore set-up");
        let digest = outcome_digest(&o);
        let mut good = Report::default();
        check_pin(&mut good, &digest, PIN_DIGEST);
        assert!(good.tally.correct(), "{:?}", good.tally.problems);
        let corrupted = PIN_DIGEST.replace('f', "e");
        let mut bad = Report::default();
        check_pin(&mut bad, &digest, &corrupted);
        assert_eq!(bad.tally.failed, BATCH as u64 + 1);
        assert!(!bad.tally.correct());
    }
}
