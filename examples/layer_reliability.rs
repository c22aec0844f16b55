//! Layer reliability: map one VGG-16 layer onto the paper's 16x4
//! output-stationary systolic array and estimate its timing error rate under
//! every PVTA corner, with and without READ — all through the pipeline API.
//!
//! Run with: `cargo run --release --example layer_reliability`

use read_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Take a middle VGG-16 layer (256 -> 256 channels, 3x3 filters) as a
    // synthetic trained workload with 8 output pixels.
    let config = WorkloadConfig {
        pixels_per_layer: 8,
        ..WorkloadConfig::default()
    };
    let workload = vgg16_workloads(&config)
        .into_iter()
        .find(|w| w.name() == "conv3_6")
        .expect("VGG-16 plan contains conv3_6");
    println!("layer {}: {}", workload.name(), workload.shape());

    // Baseline vs READ over all six paper corners from one simulation pass
    // per schedule.
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .conditions(paper_conditions())
        .build()?;
    let report = pipeline.run_ter("conv3_6", std::slice::from_ref(&workload))?;

    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>10}  {:>12} {:>12}",
        "corner", "baseline TER", "READ TER", "reduction", "baseline BER", "READ BER"
    );
    for condition in paper_conditions() {
        let base = report
            .rows_at(condition.name)
            .find(|r| r.algorithm == "baseline")
            .expect("baseline row");
        let opt = report
            .rows_at(condition.name)
            .find(|r| r.algorithm != "baseline")
            .expect("READ row");
        let reduction = if opt.ter > 0.0 {
            base.ter / opt.ter
        } else {
            f64::INFINITY
        };
        println!(
            "{:<14} {:>12.3e} {:>12.3e} {:>9.1}x  {:>12.3e} {:>12.3e}",
            condition.name, base.ter, opt.ter, reduction, base.ber, opt.ber,
        );
    }
    println!();
    println!("READ pushes the layer's error rate down by an order of magnitude or more at the");
    println!("stressed corners, which is what keeps the network accuracy alive in Fig. 10.");

    // The same experiment with the other two error-model stages — only the
    // builder line changes, the schedules and simulation passes are shared
    // semantics (and the reports stay deterministic and seed-stable).
    let worst = OperatingCondition::aging_vt(10.0, 0.05);

    // Monte-Carlo: seeded sampling with a trial-to-trial spread.
    let mc = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(worst)
        .monte_carlo(32, 7)
        .build()?;
    let mc_report = mc.run_ter("conv3_6-mc", std::slice::from_ref(&workload))?;
    println!();
    println!("Monte-Carlo error model (32 trials, seed 7) at {worst}:");
    for row in &mc_report.rows {
        println!(
            "  {:<28} TER {:.3e} ± {:.1e}",
            row.algorithm,
            row.ter,
            row.ter_stddev.unwrap_or(0.0)
        );
    }

    // Per-PE process variation: one specific die, PE-to-PE spread.
    let die = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(worst)
        .pe_variation(3)
        .build()?;
    let die_report = die.run_ter("conv3_6-die", std::slice::from_ref(&workload))?;
    println!();
    println!(
        "per-PE variation model ({}) at {worst}:",
        die_report.rows[0].corner.as_deref().unwrap_or("typical")
    );
    for row in &die_report.rows {
        println!(
            "  {:<28} TER {:.3e} (PE-to-PE spread {:.1e})",
            row.algorithm,
            row.ter,
            row.ter_stddev.unwrap_or(0.0)
        );
    }
    Ok(())
}
