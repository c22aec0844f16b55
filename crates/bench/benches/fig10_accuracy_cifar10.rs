//! Fig. 10: inference accuracy of VGG-16 and ResNet-18 on a CIFAR-10-class
//! task under the six PVTA corners, for the baseline, reorder and
//! cluster-then-reorder schedules.
//!
//! Layer TERs come from the full-size layer workloads; they are converted to
//! per-layer BERs via Eq. (1) and injected into a width-scaled executable
//! model (the substitution documented in DESIGN.md).  The paper's result to
//! reproduce is the *shape*: the baseline collapses as PVTA stress grows
//! while the READ schedules hold their accuracy over a much wider range.

use accel_sim::ArrayConfig;
use qnn::fit::fit_classifier_head;
use qnn::models;
use qnn::SyntheticDatasetBuilder;
use read_bench::experiments::accuracy_sweep;
use read_bench::report;
use read_pipeline::{resnet18_workloads, vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{paper_conditions, DelayModel};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 3,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let conditions = paper_conditions();
    let algorithms = Algorithm::paper_set();

    let dataset = SyntheticDatasetBuilder::new(10, [3, 32, 32])
        .samples_per_class(4)
        .noise(30.0)
        .seed(0xC1FA)
        .build()
        .expect("dataset builds");

    let networks: Vec<(&str, qnn::Model, Vec<read_pipeline::LayerWorkload>)> = vec![
        (
            "VGG-16 (CIFAR-10 classes)",
            models::vgg16_cifar_scaled(8, 10, 41).expect("model builds"),
            vgg16_workloads(&config),
        ),
        (
            "ResNet-18 (CIFAR-10 classes)",
            models::resnet18_cifar_scaled(8, 10, 42).expect("model builds"),
            resnet18_workloads(&config),
        ),
    ];

    for (name, mut model, workloads) in networks {
        let clean = fit_classifier_head(&mut model, &dataset).expect("head fits");
        let sweep = accuracy_sweep(
            &model,
            &dataset,
            &workloads,
            &algorithms,
            &conditions,
            &array,
            &delay,
            3,
            3,
        )
        .expect("sweep runs");

        report::section(&format!(
            "Fig. 10: top-1 accuracy of {name} under PVTA corners (clean accuracy {})",
            report::pct(clean)
        ));
        let mut rows = Vec::new();
        for condition in &conditions {
            let mut cells = vec![condition.name.to_string()];
            for algorithm in &algorithms {
                let p = sweep
                    .point(condition.name, &algorithm.name())
                    .expect("point exists");
                cells.push(format!(
                    "{} (BER {})",
                    report::pct(p.top1),
                    report::sci(p.mean_ber)
                ));
            }
            rows.push(cells);
        }
        report::table(
            &["corner", "baseline", "reorder", "cluster-then-reorder"],
            &rows,
        );
        println!();
        println!(
            "(paper: baseline accuracy collapses under aging / combined corners; READ keeps it)"
        );
    }
}
