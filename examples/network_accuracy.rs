//! Network accuracy under timing errors: an end-to-end miniature of the
//! paper's Fig. 10 pipeline, driven entirely by `ReadPipeline`.
//!
//! 1. Build a (width-scaled) VGG-16 with synthetic weights and fit its
//!    classifier head on a synthetic 10-class dataset.
//! 2. Measure per-layer TERs of the full-size layers on the systolic array
//!    under a stressed PVTA corner, for the baseline and READ schedules.
//! 3. Convert the TERs to activation BERs (Eq. (1)), inject bit flips into
//!    the scaled model, and compare accuracy.
//!
//! Run with: `cargo run --release --example network_accuracy`

use qnn::fit::fit_classifier_head;
use qnn::models;
use read_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scaled executable model + synthetic dataset.
    let mut model = models::vgg16_cifar_scaled(8, 10, 99)?;
    let dataset = SyntheticDatasetBuilder::new(10, [3, 32, 32])
        .samples_per_class(3)
        .noise(28.0)
        .seed(5)
        .build()?;
    let clean = fit_classifier_head(&mut model, &dataset)?;
    println!("clean accuracy of the fitted model: {:.1}%", clean * 100.0);

    // Full-size layer workloads whose names match the scaled model's conv
    // layers (the pipeline matches BERs to layers by name).
    let config = WorkloadConfig {
        pixels_per_layer: 3,
        ..WorkloadConfig::default()
    };
    let workloads = vgg16_workloads(&config);

    let condition = OperatingCondition::aging_vt(10.0, 0.05);
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(condition)
        .model(model)
        .top_k(3)
        .parallel()
        .build()?;

    // Per-layer TER/BER table (one simulation pass per schedule).
    let ter_report = pipeline.run_ter("vgg16", &workloads)?;
    for workload in &workloads {
        let rows: Vec<_> = ter_report
            .rows
            .iter()
            .filter(|r| r.layer == workload.name())
            .collect();
        let base = rows.iter().find(|r| r.algorithm == "baseline").unwrap();
        let opt = rows.iter().find(|r| r.algorithm != "baseline").unwrap();
        println!(
            "  {:<10} baseline TER {:.2e} -> BER {:.2e} | READ TER {:.2e} -> BER {:.2e}",
            workload.name(),
            base.ter,
            base.ber,
            opt.ter,
            opt.ber
        );
    }

    // Error-injection evaluation (paper protocol: random flips at the BER,
    // averaged over seeds).
    let accuracy = pipeline.run_accuracy("vgg16", &dataset, &workloads, 3)?;
    let base = accuracy
        .point(condition.name, "baseline")
        .expect("baseline point");
    let opt = accuracy
        .point(condition.name, &read.name())
        .expect("READ point");
    println!();
    println!("accuracy under {condition} (mean of {} seeds):", base.seeds);
    println!("  baseline dataflow : {:.1}%", base.top1 * 100.0);
    println!("  READ dataflow     : {:.1}%", opt.top1 * 100.0);
    println!("  (clean reference  : {:.1}%)", clean * 100.0);
    Ok(())
}
