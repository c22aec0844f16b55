//! Fig. 5: where the non-negative weights end up after reordering, and how
//! the output-channel clustering converges.
//!
//! (a) the initial weight matrix has a uniform sign distribution over
//! positions; (b) `mag_first` and (c) `sign_first` concentrate the
//! non-negative weights at the front; (d) the clustering further increases
//! the non-negative ratio in the top 25 % / 50 % of the matrix and
//! converges within a few tens of iterations.

use read_bench::report;
use read_core::{
    nonneg_quantile_profile, nonneg_ratio_in_top, sort_input_channels, BalancedKMeans,
    DistanceMetric, SortCriterion,
};
use read_pipeline::{vgg16_workloads, WorkloadConfig};

fn main() {
    let config = WorkloadConfig::default();
    // A middle VGG-16 layer (256 -> 256 channels), as in the paper's example.
    let workload = vgg16_workloads(&config)
        .into_iter()
        .find(|w| w.name() == "conv3_6")
        .expect("vgg16 plan contains conv3_6");
    let weights = workload.weights();
    let all_cols: Vec<usize> = (0..weights.cols()).collect();
    let natural: Vec<usize> = (0..weights.rows()).collect();
    let buckets = 10;

    let profile = |order: &[usize]| {
        nonneg_quantile_profile(weights, &all_cols, order, buckets).expect("valid order")
    };

    let initial = profile(&natural);
    let mag = profile(
        &sort_input_channels(weights, &all_cols, SortCriterion::MagFirst).expect("sortable"),
    );
    let sign = profile(
        &sort_input_channels(weights, &all_cols, SortCriterion::SignFirst).expect("sortable"),
    );

    report::section(&format!(
        "Fig. 5(a-c): non-negative weight ratio by position decile ({} layer {})",
        "VGG-16",
        workload.name()
    ));
    let rows: Vec<Vec<String>> = (0..buckets)
        .map(|b| {
            vec![
                format!("{}-{}%", b * 10, (b + 1) * 10),
                report::pct(initial[b]),
                report::pct(mag[b]),
                report::pct(sign[b]),
            ]
        })
        .collect();
    report::table(
        &["position decile", "initial", "mag_first", "sign_first"],
        &rows,
    );

    // Fig. 5(d): clustering convergence — non-negative ratio in the top 25%
    // and 50% of each cluster's reordered sub-matrix, per iteration.
    let cluster_size = 4;
    let result = BalancedKMeans::new(cluster_size, DistanceMetric::SignManhattan)
        .with_max_iterations(30)
        .run(weights)
        .expect("clusterable");

    report::section("Fig. 5(d): clustering convergence (ratio of non-negative weights)");
    let mut rows = Vec::new();
    for (iter, clusters) in result.history.iter().enumerate() {
        let mut top25 = 0.0;
        let mut top50 = 0.0;
        for cluster in clusters {
            let order =
                sort_input_channels(weights, cluster, SortCriterion::SignFirst).expect("sortable");
            top25 += nonneg_ratio_in_top(weights, cluster, &order, 0.25).expect("valid");
            top50 += nonneg_ratio_in_top(weights, cluster, &order, 0.50).expect("valid");
        }
        let n = clusters.len() as f64;
        rows.push(vec![
            format!("{}", iter + 1),
            report::pct(top25 / n),
            report::pct(top50 / n),
            format!("{:.0}", result.cost_history[iter]),
        ]);
    }
    report::table(
        &["iteration", "top 25%", "top 50%", "cluster SD cost"],
        &rows,
    );
    println!();
    println!(
        "converged after {} iterations (paper: converges well within ~30 iterations)",
        result.iterations
    );
}
