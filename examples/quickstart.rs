//! Quickstart: optimize the computation order of one convolution layer with
//! READ through the unified pipeline API and inspect what it buys.
//!
//! Run with: `cargo run --release --example quickstart`

use read_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic "trained" 576x128 layer (64 input channels x 3x3 filter by
    // 128 output channels) with a few activation pixels.
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    let workload = LayerWorkload::generate(
        "demo_conv",
        ConvShape::new(1, 64, 16, 16, 128, 3, 3, 1, 1)?,
        &config,
        0,
    );

    // The whole flow as one object: baseline vs READ on the paper's 16x4
    // array, evaluated at the worst PVTA corner.
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .build()?;

    let report = pipeline.run_ter("quickstart", std::slice::from_ref(&workload))?;
    let base = &report.rows[0];
    let opt = &report.rows[1];

    println!("partial-sum sign flips (the critical input pattern):");
    println!(
        "  baseline schedule : {} of {} cycles ({:.1}%)",
        base.sign_flips,
        base.total_cycles,
        base.sign_flip_rate * 100.0
    );
    println!(
        "  READ schedule     : {} of {} cycles ({:.1}%)",
        opt.sign_flips,
        opt.total_cycles,
        opt.sign_flip_rate * 100.0
    );
    println!(
        "  TER at the worst corner: {:.3e} -> {:.3e} ({:.1}x lower)",
        base.ter,
        opt.ter,
        base.ter / opt.ter.max(1e-300)
    );

    // The hardware cost is a small address LUT in front of the activation
    // buffer; the LayerSchedule (the pipeline's schedule source output in
    // schedule form) describes it.
    let schedule = ReadOptimizer::new(ReadConfig {
        criterion: SortCriterion::SignFirst,
        clustering: ClusteringMode::ClusterThenReorder,
        ..ReadConfig::default()
    })
    .optimize(workload.weights(), pipeline.array().cols())?;
    let lut = schedule.lut()?;
    println!();
    println!(
        "hardware support: {} clusters x {} entries x {} bits = {} bytes of LUT SRAM",
        lut.num_clusters(),
        lut.channels(),
        lut.entry_bits(),
        lut.size_bytes()
    );
    println!(
        "  overhead vs a 2 MB activation buffer: {:.4}%",
        lut.overhead_fraction(2 * 1024 * 1024) * 100.0
    );

    // Changing the order never changes the result.
    let baseline_out = pipeline.layer_outputs(&workload, &Algorithm::Baseline)?;
    let read_out = pipeline.layer_outputs(&workload, &read)?;
    assert_eq!(baseline_out, read_out);
    println!();
    println!(
        "outputs verified bit-exact across schedules for all {} output channels",
        workload.weights().cols()
    );
    Ok(())
}
