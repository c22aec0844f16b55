//! Ablation: which part of the sorting criterion matters?
//!
//! Compares the paper's `sign_first` and `mag_first` criteria against a
//! magnitude-only sort (no sign information) and a random-but-fixed
//! permutation, to separate "any deterministic reorder" from the sign-aware
//! orderings the paper proposes.

use accel_sim::ArrayConfig;
use read_bench::experiments::layer_report;
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 4,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);

    let criteria = [
        ("baseline (no reorder)", Algorithm::Baseline),
        ("sign_first", Algorithm::Reorder(SortCriterion::SignFirst)),
        ("mag_first", Algorithm::Reorder(SortCriterion::MagFirst)),
        (
            "magnitude only",
            Algorithm::Reorder(SortCriterion::MagnitudeOnly),
        ),
        (
            "random permutation",
            Algorithm::Reorder(SortCriterion::Random { seed: 7 }),
        ),
    ];

    report::section(
        "Ablation: sorting criterion (aging 10y + 5% VT, geometric mean over VGG-16 layers)",
    );
    let workloads = vgg16_workloads(&config);
    let mut rows = Vec::new();
    for (label, algorithm) in criteria {
        let mut log_ter = 0.0;
        let mut log_sfr = 0.0;
        let mut n = 0usize;
        for workload in &workloads {
            let hist = layer_report(workload, algorithm, &array);
            let ter = hist.ter(&delay, &condition);
            if ter > 0.0 && hist.sign_flip_rate() > 0.0 {
                log_ter += ter.ln();
                log_sfr += hist.sign_flip_rate().ln();
                n += 1;
            }
        }
        let gm_ter = (log_ter / n.max(1) as f64).exp();
        let gm_sfr = (log_sfr / n.max(1) as f64).exp();
        rows.push(vec![
            label.to_string(),
            report::sci(gm_sfr),
            report::sci(gm_ter),
        ]);
    }
    report::table(
        &["criterion", "geo-mean sign-flip rate", "geo-mean TER"],
        &rows,
    );
    println!();
    println!("(expected: sign_first < mag_first < magnitude-only ~ random ~ baseline)");
}
