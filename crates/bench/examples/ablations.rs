//! Ablation quality table for the design choices DESIGN.md §5 calls out.
//!
//! Runs a short coordinated window (15 GPM intervals) per variant against
//! its unmanaged baseline and prints the *quality* numbers — mean
//! |tracking error| and performance degradation — for:
//!
//! 1. P vs PI vs PID control,
//! 2. transducer vs oracle power sensing,
//! 3. island width 1/2/4,
//! 4. fixed vs adaptive plant gain (under deliberate misidentification).
//!
//! ```text
//! cargo run --release -p cpm-bench --example ablations
//! ```

use cpm_control::PidGains;
use cpm_core::coordinator::run_with_baseline;
use cpm_core::prelude::*;
use cpm_workloads::WorkloadAssignment;

fn quality(cfg: ExperimentConfig) -> (f64, f64) {
    let (m, b) = run_with_baseline(cfg, 15).expect("valid");
    (
        m.chip_tracking_error().mean_abs_error_percent,
        m.degradation_vs(&b),
    )
}

fn main() {
    println!("--- ablation quality (mean |tracking error| %, degradation %) ---");
    for (label, gains) in [
        ("P   (0.4, 0, 0)", PidGains::p_only(0.4)),
        ("PI  (0.4, 0.4, 0)", PidGains::pi(0.4, 0.4)),
        ("PID (0.4, 0.4, 0.3)", PidGains::paper()),
    ] {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.pid_gains = gains;
        let (track, deg) = quality(cfg);
        println!("  control {label}: tracking {track:.2} %, degradation {deg:.2} %");
    }
    for sensor in [SensorMode::Transducer, SensorMode::Oracle] {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.sensor = sensor;
        let (track, deg) = quality(cfg);
        println!("  sensor {sensor:?}: tracking {track:.2} %, degradation {deg:.2} %");
    }
    for width in [1usize, 2, 4] {
        let base = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
        let cfg = ExperimentConfig::paper_default()
            .with_assignment(WorkloadAssignment::new(base.profiles().to_vec(), width));
        let (track, deg) = quality(cfg);
        println!("  width {width} cores/island: tracking {track:.2} %, degradation {deg:.2} %");
    }
    for (label, gain, adaptive) in [
        ("fixed a=0.79 (nominal)", 0.79, false),
        ("fixed a=0.40 (misidentified)", 0.40, false),
        ("adaptive from a=0.40", 0.40, true),
    ] {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.plant_gain = gain;
        cfg.adaptive_gain = adaptive;
        let (track, deg) = quality(cfg);
        println!("  gain {label}: tracking {track:.2} %, degradation {deg:.2} %");
    }
    println!("-----------------------------------------------------------------");
}
