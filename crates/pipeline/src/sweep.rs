//! The corner/die sweep subsystem: evaluate one pipeline across a grid of
//! operating corners and silicon dies in a single run.
//!
//! A [`SweepPlan`] describes the grid — operating conditions crossed with
//! dies ([`DieSpec::Typical`] silicon or specific [`DieSpec::PerPe`] dies)
//! — plus an optional Monte-Carlo trial budget
//! ([`SweepPlan::monte_carlo`]).  [`crate::ReadPipeline::run_sweep`] expands
//! the plan into a typed [`crate::WorkPlan`] of position-independent work
//! units executed by any [`crate::Executor`] (serial, threaded, or worker
//! subprocesses), so every execution strategy produces byte-identical
//! reports.
//!
//! The contract every consumer can rely on:
//!
//! * **Cell ≡ standalone run.**  Each cell of the grid produces exactly the
//!   [`LayerReport`] rows an equivalent single-condition
//!   [`crate::ReadPipeline`] run would — same error-model stage, same field
//!   values, byte-identical `to_json()` rows.  Typical-silicon cells use
//!   [`crate::DelayErrorModel`] (or [`crate::MonteCarloErrorModel`] when a
//!   trial budget is set); per-PE die cells use
//!   [`crate::VariationErrorModel`].  Analytic and per-PE cells are folded
//!   during aggregation over one [`timing::CornerTable`] per cell, which
//!   evaluates the die's offsets and per-depth probabilities once for all
//!   of the cell's (workload, source) pairs and folds each histogram as
//!   the stage would.
//! * **Sharded == unsharded.**  A cell's Monte-Carlo trials are split into
//!   shards of [`MonteCarloSweep::trials_per_shard`] trials, each an
//!   independent work unit; the per-shard samples are concatenated in trial
//!   order and aggregated once
//!   ([`timing::TerEstimate::from_trials`]), which reproduces the unsharded
//!   estimate bit for bit because trial `t`'s RNG stream depends only on
//!   `(seed, t)`.
//! * **Schedules and histograms are computed once.**  Histograms are
//!   corner-independent, so a sweep emits one histogram work unit per
//!   (workload, source) pair and every grid cell reuses it; the schedule
//!   cache and the histogram cache ([`crate::CacheStats`]) additionally
//!   amortize repeated runs on the same pipeline.
//!
//! The work-unit expansion is also the seam for distributing a sweep
//! across processes or machines: a unit is identified by its
//! [`crate::WorkUnit`] id alone (`(cell, pair)` for histograms,
//! `(cell, trial range)` for Monte-Carlo shards), its result is
//! position-independent, and [`crate::SubprocessExecutor`] already ships
//! both over a line-oriented stdin/stdout wire protocol.

use accel_sim::ArrayConfig;
use dataflow_sim::json::{push_json_f64, push_json_str};
use timing::{DelayModel, OperatingCondition, OperatingCorner, Variation};

use crate::error::PipelineError;
use crate::report::{push_layer_rows, LayerReport, NetworkReport};
use crate::stage::{DelayErrorModel, ErrorModel, MonteCarloErrorModel, VariationErrorModel};

/// The silicon of one sweep-grid die axis entry.
///
/// The array geometry is deliberately absent: it is resolved against the
/// pipeline's configured array when the sweep runs, so one plan works for
/// any pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DieSpec {
    /// Typical silicon (process sigma folded into per-cycle noise).  Cells
    /// on this die use the analytic [`DelayErrorModel`] — or the
    /// [`MonteCarloErrorModel`] when the plan carries a trial budget.
    #[default]
    Typical,
    /// A specific die: per-PE Gaussian delay offsets drawn with this seed.
    /// Cells on this die use the [`VariationErrorModel`] (the Monte-Carlo
    /// budget does not apply; the per-PE model already reports the
    /// PE-to-PE spread).
    PerPe {
        /// Seed of the per-PE process-offset draw.
        seed: u64,
    },
}

impl DieSpec {
    /// The [`Variation`] this die resolves to on `array`.
    pub fn variation(&self, array: &ArrayConfig) -> Variation {
        match *self {
            DieSpec::Typical => Variation::Typical,
            DieSpec::PerPe { seed } => Variation::per_pe(array, seed),
        }
    }
}

/// Monte-Carlo trial budget of a sweep's typical-silicon cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloSweep {
    /// Total sampling trials per (layer, source, condition) row.
    pub trials: u32,
    /// Base RNG seed (trial `t` derives its stream from `(seed, t)`).
    pub seed: u64,
    /// Maximum trials evaluated by one work unit; `0` keeps all trials in a
    /// single shard.  Sharding never changes the result — only how the
    /// trial range is split across workers.
    pub trials_per_shard: u32,
}

impl MonteCarloSweep {
    /// Number of work units a cell's trial range expands into.
    pub fn shards(&self) -> u32 {
        if self.trials_per_shard == 0 || self.trials_per_shard >= self.trials {
            1
        } else {
            self.trials.div_ceil(self.trials_per_shard)
        }
    }

    /// The global trial range of shard `shard` (of [`Self::shards`]).
    pub fn shard_range(&self, shard: u32) -> std::ops::Range<u32> {
        let per = if self.trials_per_shard == 0 {
            self.trials
        } else {
            self.trials_per_shard
        };
        let lo = shard * per;
        lo..(lo.saturating_add(per)).min(self.trials)
    }
}

/// A sweep grid: operating conditions crossed with dies, plus an optional
/// Monte-Carlo trial budget for the typical-silicon cells.
///
/// Cells run die-major (all conditions of the first die, then the next) —
/// the order [`timing::OperatingCorner::grid`] produces.  With no die
/// configured the plan sweeps typical silicon only.
///
/// # Example
///
/// ```
/// use read_pipeline::SweepPlan;
/// use timing::paper_conditions;
///
/// let plan = SweepPlan::new()
///     .conditions(paper_conditions())
///     .typical()
///     .dies([3, 4])
///     .monte_carlo(256, 9)
///     .trials_per_shard(64);
/// assert_eq!(plan.cell_count(), 6 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepPlan {
    conditions: Vec<OperatingCondition>,
    dies: Vec<DieSpec>,
    // (trials, seed); the shard cap lives apart so that setting it without
    // a budget is inert rather than conjuring a zero-trial budget.
    monte_carlo: Option<(u32, u64)>,
    trials_per_shard: u32,
}

impl SweepPlan {
    /// An empty plan; add at least one condition before running it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one operating condition.
    pub fn condition(mut self, condition: OperatingCondition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Adds several operating conditions.
    pub fn conditions(mut self, conditions: impl IntoIterator<Item = OperatingCondition>) -> Self {
        self.conditions.extend(conditions);
        self
    }

    /// Adds the typical-silicon die.
    pub fn typical(mut self) -> Self {
        self.dies.push(DieSpec::Typical);
        self
    }

    /// Adds one per-PE die with the given offset seed.
    pub fn die(mut self, seed: u64) -> Self {
        self.dies.push(DieSpec::PerPe { seed });
        self
    }

    /// Adds one per-PE die per seed.
    pub fn dies(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.dies
            .extend(seeds.into_iter().map(|seed| DieSpec::PerPe { seed }));
        self
    }

    /// Sets the Monte-Carlo trial budget of the typical-silicon cells
    /// (unsharded unless [`Self::trials_per_shard`] is also set).
    pub fn monte_carlo(mut self, trials: u32, seed: u64) -> Self {
        self.monte_carlo = Some((trials, seed));
        self
    }

    /// Caps the trials one work unit evaluates (`0` = single shard).  Only
    /// meaningful alongside [`Self::monte_carlo`]; without a trial budget
    /// the cap is inert.
    pub fn trials_per_shard(mut self, trials_per_shard: u32) -> Self {
        self.trials_per_shard = trials_per_shard;
        self
    }

    /// The configured dies, in cell order ([`DieSpec::Typical`] when none
    /// was configured).
    pub fn die_set(&self) -> Vec<DieSpec> {
        if self.dies.is_empty() {
            vec![DieSpec::Typical]
        } else {
            self.dies.clone()
        }
    }

    /// The Monte-Carlo budget, if any, with the shard cap resolved.
    pub fn monte_carlo_spec(&self) -> Option<MonteCarloSweep> {
        self.monte_carlo.map(|(trials, seed)| MonteCarloSweep {
            trials,
            seed,
            trials_per_shard: self.trials_per_shard,
        })
    }

    /// Number of grid cells the plan expands into.
    pub fn cell_count(&self) -> usize {
        self.conditions.len() * self.die_set().len()
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Builder`] when no condition is configured or
    /// a Monte-Carlo budget requests zero trials.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.conditions.is_empty() {
            return Err(PipelineError::builder(
                "a sweep plan needs at least one operating condition (use .condition(..))",
            ));
        }
        if let Some((0, _)) = self.monte_carlo {
            return Err(PipelineError::builder(
                "a sweep's Monte-Carlo budget needs at least one trial",
            ));
        }
        Ok(())
    }

    /// The corner grid the plan expands into on `array`, in cell order —
    /// the single encoding of that order
    /// ([`timing::OperatingCorner::grid`], die-major).
    pub fn corners(&self, array: &ArrayConfig) -> Vec<OperatingCorner> {
        let variations: Vec<Variation> = self
            .die_set()
            .iter()
            .map(|die| die.variation(array))
            .collect();
        OperatingCorner::grid(&self.conditions, &variations)
    }

    /// The error-model stage the cell at `corner` uses — derived from the
    /// corner's variation alone, so the stage always matches the grid.
    /// Every cell evaluates with [`DelayModel::nangate15_like`].
    pub(crate) fn cell_model(&self, corner: &OperatingCorner) -> DieModel {
        let delay = DelayModel::nangate15_like();
        match (corner.variation, self.monte_carlo_spec()) {
            (Variation::PerPe { rows, cols, seed }, _) => DieModel::PerPe(VariationErrorModel {
                delay,
                rows,
                cols,
                seed,
            }),
            (Variation::Typical, Some(mc)) => DieModel::MonteCarlo(
                MonteCarloErrorModel::with_delay(delay, mc.trials, mc.seed),
                mc,
            ),
            (Variation::Typical, None) => DieModel::Analytic(DelayErrorModel::new(delay)),
        }
    }
}

/// The resolved error-model stage of one die of a sweep — the same stage
/// types a standalone pipeline would be built with, which is what makes a
/// cell byte-identical to the equivalent single-condition run.
#[derive(Clone)]
pub(crate) enum DieModel {
    /// Typical silicon, analytic expectation.
    Analytic(DelayErrorModel),
    /// Typical silicon, sampled: the model plus the shard layout.
    MonteCarlo(MonteCarloErrorModel, MonteCarloSweep),
    /// One specific die.
    PerPe(VariationErrorModel),
}

impl DieModel {
    /// The stage as a trait object (for estimates, BER conversion, names).
    pub(crate) fn as_error_model(&self) -> &dyn ErrorModel {
        match self {
            DieModel::Analytic(m) => m,
            DieModel::MonteCarlo(m, _) => m,
            DieModel::PerPe(m) => m,
        }
    }

    /// The delay model every cell of this die evaluates with.
    pub(crate) fn delay(&self) -> DelayModel {
        match self {
            DieModel::Analytic(m) => m.delay,
            DieModel::MonteCarlo(m, _) => m.delay,
            DieModel::PerPe(m) => m.delay,
        }
    }

    /// The Monte-Carlo model and shard layout, when this die samples.
    pub(crate) fn monte_carlo(&self) -> Option<(&MonteCarloErrorModel, MonteCarloSweep)> {
        match self {
            DieModel::MonteCarlo(m, mc) => Some((m, *mc)),
            _ => None,
        }
    }

    /// Work units this die's cells expand into (shards for Monte-Carlo
    /// dies, one otherwise).
    pub(crate) fn shards(&self) -> u32 {
        self.monte_carlo().map(|(_, mc)| mc.shards()).unwrap_or(1)
    }
}

/// One (die, condition) cell of a sweep: the rows the equivalent
/// single-condition pipeline run would produce, plus the cell's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Die label (`"typical"` or `"pe-var[16x4,seed=3]"`).
    pub die: String,
    /// Operating-condition name.
    pub condition: String,
    /// Error-model stage name the cell was evaluated with.
    pub error_model: String,
    /// Work units the cell's Monte-Carlo trials were split across (`1` for
    /// unsharded or non-sampling cells).  Informational only: the rows are
    /// independent of the shard count.
    pub shards: u32,
    /// Rows in (layer-major, then source) order — exactly the order and
    /// content of the equivalent single-condition
    /// [`crate::ReadPipeline::run_ter`] report.
    pub rows: Vec<LayerReport>,
}

impl SweepCell {
    /// The cell's rows wrapped as a standalone [`NetworkReport`] — renders
    /// byte-identically to the equivalent single-condition run's report.
    pub fn as_network_report(&self, network: &str) -> NetworkReport {
        NetworkReport {
            network: network.to_string(),
            rows: self.rows.clone(),
        }
    }
}

/// The worst (highest-TER) row of one algorithm across a whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCase {
    /// Schedule-source name.
    pub algorithm: String,
    /// The worst TER observed.
    pub ter: f64,
    /// Layer of the worst row.
    pub layer: String,
    /// Operating condition of the worst row.
    pub condition: String,
    /// Die label of the worst row.
    pub die: String,
}

/// A full corner/die sweep: per-cell [`LayerReport`]s plus the cross-corner
/// summary (worst case per algorithm), with a stable, deterministic
/// [`SweepReport::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Network / experiment label.
    pub network: String,
    /// Cells in deterministic order: die-major, then condition (the order
    /// the plan was configured with), independent of execution mode and
    /// shard layout.
    pub cells: Vec<SweepCell>,
    /// Per-algorithm worst case across all cells, in source order.
    pub worst: Vec<WorstCase>,
}

impl SweepReport {
    /// The cell for a (die label, condition name) pair, if present.
    ///
    /// Name-keyed: with duplicate (die, condition) pairs configured this
    /// returns the first match — consume [`SweepReport::cells`] positionally
    /// in that case.
    pub fn cell(&self, die: &str, condition: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.die == die && c.condition == condition)
    }

    /// The worst case recorded for `algorithm`, if present.
    pub fn worst_case(&self, algorithm: &str) -> Option<&WorstCase> {
        self.worst.iter().find(|w| w.algorithm == algorithm)
    }

    /// The TER-vs-corner curve of one (layer, algorithm) pair: the matching
    /// row's TER per cell, in cell order — the sweep-level analogue of the
    /// paper's accuracy-vs-corner curves.
    pub fn ter_curve<'a>(
        &'a self,
        layer: &'a str,
        algorithm: &'a str,
    ) -> impl Iterator<Item = (&'a SweepCell, f64)> {
        self.cells.iter().filter_map(move |cell| {
            cell.rows
                .iter()
                .find(|r| r.layer == layer && r.algorithm == algorithm)
                .map(|r| (cell, r.ter))
        })
    }

    /// Geometric-mean and maximum TER reduction of `algorithm` relative to
    /// `baseline` across every cell (see [`NetworkReport::ter_reduction`]).
    pub fn ter_reduction(&self, algorithm: &str, baseline: &str) -> (f64, f64) {
        let mut log_sum = 0.0;
        let mut count = 0usize;
        let mut max = 0.0f64;
        for cell in &self.cells {
            for row in cell.rows.iter().filter(|r| r.algorithm == algorithm) {
                if let Some(base) = cell
                    .rows
                    .iter()
                    .find(|r| r.layer == row.layer && r.algorithm == baseline)
                {
                    if row.ter > 0.0 && base.ter > 0.0 {
                        let reduction = base.ter / row.ter;
                        log_sum += reduction.ln();
                        count += 1;
                        max = max.max(reduction);
                    }
                }
            }
        }
        if count == 0 {
            (1.0, 1.0)
        } else {
            ((log_sum / count as f64).exp(), max)
        }
    }

    /// Deterministic JSON rendering of the sweep (stable key order; cell
    /// rows share the [`NetworkReport::to_json`] row layout byte for byte).
    pub fn to_json(&self) -> String {
        let rows: usize = self.cells.iter().map(|c| c.rows.len()).sum();
        let mut out = String::with_capacity(256 + rows * 192 + self.worst.len() * 128);
        out.push_str("{\"network\":");
        push_json_str(&mut out, &self.network);
        out.push_str(",\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"die\":");
            push_json_str(&mut out, &cell.die);
            out.push_str(",\"condition\":");
            push_json_str(&mut out, &cell.condition);
            out.push_str(",\"error_model\":");
            push_json_str(&mut out, &cell.error_model);
            out.push_str(",\"shards\":");
            out.push_str(&cell.shards.to_string());
            out.push_str(",\"rows\":[");
            push_layer_rows(&mut out, &cell.rows);
            out.push_str("]}");
        }
        out.push_str("],\"worst\":[");
        for (i, w) in self.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"algorithm\":");
            push_json_str(&mut out, &w.algorithm);
            push_json_f64(&mut out, ",\"ter\":", w.ter);
            out.push_str(",\"layer\":");
            push_json_str(&mut out, &w.layer);
            out.push_str(",\"condition\":");
            push_json_str(&mut out, &w.condition);
            out.push_str(",\"die\":");
            push_json_str(&mut out, &w.die);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timing::OperatingCondition;

    #[test]
    fn plan_builders_compose_in_any_order() {
        let a = SweepPlan::new()
            .conditions([OperatingCondition::ideal()])
            .monte_carlo(64, 3)
            .trials_per_shard(16);
        let b = SweepPlan::new()
            .trials_per_shard(16)
            .monte_carlo(64, 3)
            .condition(OperatingCondition::ideal());
        assert_eq!(a, b);
        assert_eq!(
            a.monte_carlo_spec().unwrap(),
            MonteCarloSweep {
                trials: 64,
                seed: 3,
                trials_per_shard: 16
            }
        );
    }

    #[test]
    fn plan_defaults_to_the_typical_die() {
        let plan = SweepPlan::new().condition(OperatingCondition::ideal());
        assert_eq!(plan.die_set(), vec![DieSpec::Typical]);
        assert_eq!(plan.cell_count(), 1);
        let with_dies = plan.typical().dies([1, 2]);
        assert_eq!(with_dies.die_set().len(), 3);
        assert_eq!(with_dies.cell_count(), 3);
    }

    #[test]
    fn plan_validation_catches_empty_and_zero_trials() {
        assert!(SweepPlan::new().validate().is_err());
        let zero_trials = SweepPlan::new()
            .condition(OperatingCondition::ideal())
            .monte_carlo(0, 1);
        assert!(zero_trials.validate().is_err());
        assert!(SweepPlan::new()
            .condition(OperatingCondition::ideal())
            .validate()
            .is_ok());
    }

    #[test]
    fn shard_cap_without_a_budget_is_inert() {
        // A shard cap alone must not conjure a (zero-trial) Monte-Carlo
        // budget: the plan stays analytic and valid.
        let plan = SweepPlan::new()
            .condition(OperatingCondition::ideal())
            .trials_per_shard(8);
        assert!(plan.validate().is_ok());
        assert_eq!(plan.monte_carlo_spec(), None);
        // Adding the budget afterwards picks the cap up.
        let with_budget = plan.monte_carlo(32, 1);
        assert_eq!(
            with_budget.monte_carlo_spec().unwrap(),
            MonteCarloSweep {
                trials: 32,
                seed: 1,
                trials_per_shard: 8
            }
        );
    }

    #[test]
    fn plan_corners_enumerate_the_die_major_grid() {
        use accel_sim::ArrayConfig;
        let plan = SweepPlan::new()
            .conditions([
                OperatingCondition::ideal(),
                OperatingCondition::aging_vt(10.0, 0.05),
            ])
            .typical()
            .die(3);
        let corners = plan.corners(&ArrayConfig::paper_default());
        let labels: Vec<String> = corners.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "Ideal",
                "Aging&VT-5%",
                "Ideal+pe-var[16x4,seed=3]",
                "Aging&VT-5%+pe-var[16x4,seed=3]",
            ]
        );
    }

    #[test]
    fn shard_layout_partitions_the_trial_range() {
        let mc = MonteCarloSweep {
            trials: 10,
            seed: 0,
            trials_per_shard: 4,
        };
        assert_eq!(mc.shards(), 3);
        assert_eq!(mc.shard_range(0), 0..4);
        assert_eq!(mc.shard_range(1), 4..8);
        assert_eq!(mc.shard_range(2), 8..10);
        // Unsharded layouts.
        let single = MonteCarloSweep {
            trials: 10,
            seed: 0,
            trials_per_shard: 0,
        };
        assert_eq!(single.shards(), 1);
        assert_eq!(single.shard_range(0), 0..10);
        let oversized = MonteCarloSweep {
            trials: 10,
            seed: 0,
            trials_per_shard: 32,
        };
        assert_eq!(oversized.shards(), 1);
        assert_eq!(oversized.shard_range(0), 0..10);
    }

    #[test]
    fn empty_sweep_report_renders_stably() {
        let report = SweepReport {
            network: "n".into(),
            cells: vec![],
            worst: vec![],
        };
        assert_eq!(
            report.to_json(),
            "{\"network\":\"n\",\"cells\":[],\"worst\":[]}"
        );
        assert!(report.cell("typical", "Ideal").is_none());
        assert!(report.worst_case("baseline").is_none());
    }
}
