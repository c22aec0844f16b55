//! Fig. 11: top-3 accuracy of VGG-16 on a CIFAR-100-style task and
//! ResNet-34 on an ImageNet-style task under the six PVTA corners.
//!
//! As in the paper, errors are injected only into the vulnerable early
//! layers (the ones closest to the input) to keep the large-network
//! simulation tractable; the class count and input resolution are reduced
//! per the substitutions documented in DESIGN.md.

use accel_sim::ArrayConfig;
use qnn::fit::fit_classifier_head;
use qnn::models;
use qnn::SyntheticDatasetBuilder;
use read_bench::experiments::accuracy_sweep;
use read_bench::report;
use read_pipeline::{resnet34_workloads, vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{paper_conditions, DelayModel};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let conditions = paper_conditions();
    let algorithms = Algorithm::paper_set();

    // Only the first (most vulnerable) layers receive injected errors.
    let vulnerable = 6usize;

    let cifar100_like = SyntheticDatasetBuilder::new(20, [3, 32, 32])
        .samples_per_class(2)
        .noise(30.0)
        .seed(0xC1F1)
        .build()
        .expect("dataset builds");
    let imagenet_like = SyntheticDatasetBuilder::new(20, [3, 48, 48])
        .samples_per_class(2)
        .noise(25.0)
        .seed(0x13A6)
        .build()
        .expect("dataset builds");

    let runs: Vec<(
        &str,
        qnn::Model,
        Vec<read_pipeline::LayerWorkload>,
        qnn::Dataset,
    )> = vec![
        (
            "VGG-16 (CIFAR-100-style, 20 classes)",
            models::vgg16_cifar_scaled(8, 20, 51).expect("model builds"),
            vgg16_workloads(&config)
                .into_iter()
                .take(vulnerable)
                .collect(),
            cifar100_like,
        ),
        (
            "ResNet-34 (ImageNet-style, 20 classes)",
            models::resnet34_imagenet_scaled(16, 20, 52).expect("model builds"),
            resnet34_workloads(&config)
                .into_iter()
                .take(vulnerable)
                .collect(),
            imagenet_like,
        ),
    ];

    for (name, mut model, workloads, dataset) in runs {
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
            "Fig. 11: top-3 accuracy of {name} under PVTA corners (clean top-1 {})",
            report::pct(clean)
        ));
        let mut rows = Vec::new();
        for condition in &conditions {
            let mut cells = vec![condition.name.to_string()];
            for algorithm in &algorithms {
                let p = sweep
                    .point(condition.name, &algorithm.name())
                    .expect("point exists");
                cells.push(report::pct(p.topk));
            }
            rows.push(cells);
        }
        report::table(
            &["corner", "baseline", "reorder", "cluster-then-reorder"],
            &rows,
        );
        println!();
        println!(
            "(paper: same trend as Fig. 10 — READ withstands a much wider range of fluctuations)"
        );
    }
}
