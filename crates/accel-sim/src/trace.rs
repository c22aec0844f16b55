//! Observers that collect per-cycle statistics and traces from a simulation.

use crate::bitplane::{self, DEPTH_PLANES};
use crate::mac::MacCycle;

/// Identifies where in the layer a MAC cycle occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleContext {
    /// Index of the column group (cluster) being processed.
    pub group: usize,
    /// Output-channel index (column of the weight matrix).
    pub channel: usize,
    /// Output-pixel index (column of the activation matrix).
    pub pixel: usize,
    /// Position of this cycle within the output's reduction sequence
    /// (0-based).
    pub step: usize,
    /// The reduction-row index (input channel x filter tap) consumed this
    /// cycle.
    pub reduction_index: usize,
}

/// Up to 64 lanes' worth of per-cycle depth/sign statistics, produced by the
/// word-parallel simulation kernel (one word of outputs per reduction step;
/// a lane is one `(group, channel, pixel)` output, and one word may mix
/// groups, channels and pixels).
///
/// Lane `l` of every field is bit `l`.  `depth_planes` is a packed per-lane
/// counter (little-endian bit planes, see [`crate::bitplane`]) holding each
/// lane's triggered depth ([`MacCycle::triggered_depth`], with idle cycles
/// naturally reporting depth 0); `sign_flips` flags the lanes whose
/// partial-sum sign bit flipped.  Only lanes set in `lane_mask` are valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthWord {
    /// Packed per-lane triggered depths (bit plane `k` = bit `k` of every
    /// lane's depth).
    pub depth_planes: [u64; DEPTH_PLANES],
    /// Lanes whose partial-sum sign flipped this step (already restricted to
    /// `lane_mask`).
    pub sign_flips: u64,
    /// Mask of the valid (simulated) lanes of this word.
    pub lane_mask: u64,
}

impl DepthWord {
    /// Number of valid lanes in this word.
    pub fn lanes(&self) -> u32 {
        self.lane_mask.count_ones()
    }

    /// Unpacks one lane's triggered depth (scalar reference accessor; the
    /// packed consumers never need per-lane extraction).
    pub fn depth(&self, lane: usize) -> u32 {
        bitplane::lane_value(&self.depth_planes, lane) as u32
    }

    /// Whether the given lane's partial-sum sign flipped this step.
    pub fn sign_flip(&self, lane: usize) -> bool {
        (self.sign_flips >> lane) & 1 == 1
    }
}

/// Consumes packed depth/sign statistics from the word-parallel simulation
/// kernel — the bulk counterpart of [`CycleObserver::on_cycle`] for
/// observers that only need depth and sign-flip counts.
pub trait DepthWordSink {
    /// Called once per reduction step with up to 64 lanes of statistics.
    fn on_depth_word(&mut self, word: &DepthWord);
}

/// Receives every simulated MAC cycle.
///
/// Implementations range from cheap counters ([`SignFlipStats`]) to full
/// partial-sum recorders ([`PsumTraceRecorder`]).  The simulator drives the
/// observer synchronously, so implementations should be O(1) per cycle.
pub trait CycleObserver {
    /// Called once per simulated MAC cycle.
    fn on_cycle(&mut self, ctx: &CycleContext, cycle: &MacCycle);

    /// Called when all cycles of one output activation have been issued.
    /// The default implementation does nothing.
    fn on_output_done(&mut self, _ctx: &CycleContext, _final_psum: i32) {}

    /// Opt-in hook for the word-parallel simulation path: an observer that
    /// only needs depth/sign statistics returns `Some(self)` here and the
    /// simulator feeds it packed [`DepthWord`]s (64 outputs per reduction
    /// step) instead of scalar cycles.  The aggregate it accumulates is
    /// byte-identical to the scalar path because depth and sign-flip
    /// tallies are integer counts, insensitive to cycle order and to which
    /// outputs share a word.
    ///
    /// The default returns `None`, keeping full-trace observers (and any
    /// float-accumulating analyzer, where summation order matters) on the
    /// exact scalar path.
    fn depth_word_sink(&mut self) -> Option<&mut dyn DepthWordSink> {
        None
    }
}

/// A no-op observer for purely functional simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl CycleObserver for NullObserver {
    fn on_cycle(&mut self, _ctx: &CycleContext, _cycle: &MacCycle) {}
}

/// Aggregate switching statistics over a simulation: total MACs, sign flips,
/// carry-chain activity.
///
/// The *sign-flip rate* (`sign_flips / total_macs`) is the quantity the READ
/// paper correlates with the timing error rate (Fig. 2), and the quantity its
/// optimizer minimizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignFlipStats {
    /// Total number of MAC cycles observed.
    pub total_macs: u64,
    /// Cycles in which the partial-sum sign bit flipped.
    pub sign_flips: u64,
    /// Cycles whose carry chain reached at least 3/4 of the accumulator
    /// width (a long-path proxy independent of the timing model).
    pub long_carry_cycles: u64,
    /// Sum of carry-chain lengths (for mean carry length).
    pub carry_len_sum: u64,
    /// Sum of toggled accumulator bits (switching-activity proxy).
    pub toggled_bits_sum: u64,
    /// Number of completed output activations.
    pub outputs: u64,
    /// Number of completed outputs whose final value was negative.
    pub negative_outputs: u64,
}

impl SignFlipStats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of MAC cycles that flipped the partial-sum sign.
    pub fn sign_flip_rate(&self) -> f64 {
        if self.total_macs == 0 {
            0.0
        } else {
            self.sign_flips as f64 / self.total_macs as f64
        }
    }

    /// Mean carry-chain length per MAC cycle.
    pub fn mean_carry_len(&self) -> f64 {
        if self.total_macs == 0 {
            0.0
        } else {
            self.carry_len_sum as f64 / self.total_macs as f64
        }
    }

    /// Mean number of sign flips per output activation.
    pub fn sign_flips_per_output(&self) -> f64 {
        if self.outputs == 0 {
            0.0
        } else {
            self.sign_flips as f64 / self.outputs as f64
        }
    }

    /// Fraction of completed outputs whose final value was negative.  With
    /// the READ ordering this is a lower bound on the achievable sign-flip
    /// count per output (Section III, "sign flip optimality").
    pub fn negative_output_fraction(&self) -> f64 {
        if self.outputs == 0 {
            0.0
        } else {
            self.negative_outputs as f64 / self.outputs as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &SignFlipStats) {
        self.total_macs += other.total_macs;
        self.sign_flips += other.sign_flips;
        self.long_carry_cycles += other.long_carry_cycles;
        self.carry_len_sum += other.carry_len_sum;
        self.toggled_bits_sum += other.toggled_bits_sum;
        self.outputs += other.outputs;
        self.negative_outputs += other.negative_outputs;
    }
}

impl CycleObserver for SignFlipStats {
    fn on_cycle(&mut self, _ctx: &CycleContext, cycle: &MacCycle) {
        self.total_macs += 1;
        if cycle.sign_flip {
            self.sign_flips += 1;
        }
        if cycle.carry_len * 4 >= crate::mac::ACC_BITS * 3 {
            self.long_carry_cycles += 1;
        }
        self.carry_len_sum += u64::from(cycle.carry_len);
        self.toggled_bits_sum += u64::from(cycle.toggled_bits);
    }

    fn on_output_done(&mut self, _ctx: &CycleContext, final_psum: i32) {
        self.outputs += 1;
        if final_psum < 0 {
            self.negative_outputs += 1;
        }
    }
}

/// Records the full partial-sum time series of selected output activations
/// (used to reproduce Fig. 9 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PsumTraceRecorder {
    /// Restrict recording to this output channel, if set.
    channel_filter: Option<usize>,
    /// Restrict recording to this output pixel, if set.
    pixel_filter: Option<usize>,
    /// Maximum number of cycles to record (0 = unlimited).
    max_cycles: usize,
    trace: Vec<i32>,
    sign_flip_cycles: Vec<usize>,
}

impl PsumTraceRecorder {
    /// Records every cycle of every output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records only cycles belonging to the given output channel.
    pub fn for_channel(channel: usize) -> Self {
        PsumTraceRecorder {
            channel_filter: Some(channel),
            ..Self::default()
        }
    }

    /// Records only cycles belonging to the given output channel and pixel.
    pub fn for_output(channel: usize, pixel: usize) -> Self {
        PsumTraceRecorder {
            channel_filter: Some(channel),
            pixel_filter: Some(pixel),
            ..Self::default()
        }
    }

    /// Limits the number of recorded cycles.
    pub fn with_max_cycles(mut self, max_cycles: usize) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The recorded partial-sum sequence (one entry per recorded cycle).
    pub fn trace(&self) -> &[i32] {
        &self.trace
    }

    /// Indices (into [`PsumTraceRecorder::trace`]) of the cycles where the
    /// partial-sum sign flipped.
    pub fn sign_flip_cycles(&self) -> &[usize] {
        &self.sign_flip_cycles
    }

    /// Number of recorded sign flips.
    pub fn sign_flip_count(&self) -> usize {
        self.sign_flip_cycles.len()
    }

    fn matches(&self, ctx: &CycleContext) -> bool {
        self.channel_filter.is_none_or(|c| c == ctx.channel)
            && self.pixel_filter.is_none_or(|p| p == ctx.pixel)
    }
}

impl CycleObserver for PsumTraceRecorder {
    fn on_cycle(&mut self, ctx: &CycleContext, cycle: &MacCycle) {
        if !self.matches(ctx) {
            return;
        }
        if self.max_cycles != 0 && self.trace.len() >= self.max_cycles {
            return;
        }
        if cycle.sign_flip {
            self.sign_flip_cycles.push(self.trace.len());
        }
        self.trace.push(cycle.psum_after);
    }
}

/// Fans one cycle stream out to two observers.
///
/// Useful when an experiment needs both aggregate statistics and a detailed
/// trace from a single simulation pass.
#[derive(Debug, Default)]
pub struct TeeObserver<A, B> {
    /// First observer.
    pub first: A,
    /// Second observer.
    pub second: B,
}

impl<A, B> TeeObserver<A, B> {
    /// Combines two observers.
    pub fn new(first: A, second: B) -> Self {
        TeeObserver { first, second }
    }
}

impl<A: CycleObserver, B: CycleObserver> CycleObserver for TeeObserver<A, B> {
    fn on_cycle(&mut self, ctx: &CycleContext, cycle: &MacCycle) {
        self.first.on_cycle(ctx, cycle);
        self.second.on_cycle(ctx, cycle);
    }

    fn on_output_done(&mut self, ctx: &CycleContext, final_psum: i32) {
        self.first.on_output_done(ctx, final_psum);
        self.second.on_output_done(ctx, final_psum);
    }
}

/// Forces the exact scalar simulation path for an observer that would
/// otherwise opt into the word-parallel kernel: `on_cycle`/`on_output_done`
/// are forwarded, but [`CycleObserver::depth_word_sink`] stays `None`.
///
/// Used by the equivalence tests and benches to compare the packed path
/// against the scalar reference on the *same* observer type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarPath<O>(pub O);

impl<O: CycleObserver> CycleObserver for ScalarPath<O> {
    fn on_cycle(&mut self, ctx: &CycleContext, cycle: &MacCycle) {
        self.0.on_cycle(ctx, cycle);
    }

    fn on_output_done(&mut self, ctx: &CycleContext, final_psum: i32) {
        self.0.on_output_done(ctx, final_psum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacUnit;

    fn ctx() -> CycleContext {
        CycleContext {
            group: 0,
            channel: 0,
            pixel: 0,
            step: 0,
            reduction_index: 0,
        }
    }

    #[test]
    fn stats_count_sign_flips() {
        let mut stats = SignFlipStats::new();
        let mut mac = MacUnit::new();
        // +4, -8 (flip), +16 (flip)
        for (w, a) in [(2i8, 2i8), (-2, 4), (4, 4)] {
            let c = mac.mac(w, a);
            stats.on_cycle(&ctx(), &c);
        }
        stats.on_output_done(&ctx(), mac.psum());
        assert_eq!(stats.total_macs, 3);
        assert_eq!(stats.sign_flips, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.negative_outputs, 0);
        assert!((stats.sign_flip_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.sign_flips_per_output() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_rates_are_zero() {
        let stats = SignFlipStats::new();
        assert_eq!(stats.sign_flip_rate(), 0.0);
        assert_eq!(stats.mean_carry_len(), 0.0);
        assert_eq!(stats.sign_flips_per_output(), 0.0);
        assert_eq!(stats.negative_output_fraction(), 0.0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = SignFlipStats {
            total_macs: 10,
            sign_flips: 2,
            outputs: 1,
            ..Default::default()
        };
        let b = SignFlipStats {
            total_macs: 5,
            sign_flips: 1,
            negative_outputs: 1,
            outputs: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_macs, 15);
        assert_eq!(a.sign_flips, 3);
        assert_eq!(a.outputs, 2);
        assert_eq!(a.negative_outputs, 1);
    }

    #[test]
    fn trace_recorder_filters_by_output() {
        let mut rec = PsumTraceRecorder::for_output(1, 2);
        let mut mac = MacUnit::new();
        let c = mac.mac(1, 1);
        rec.on_cycle(&ctx(), &c); // wrong channel/pixel: ignored
        let right = CycleContext {
            group: 0,
            channel: 1,
            pixel: 2,
            step: 0,
            reduction_index: 0,
        };
        rec.on_cycle(&right, &c);
        assert_eq!(rec.trace().len(), 1);
    }

    #[test]
    fn trace_recorder_tracks_sign_flips_and_caps_length() {
        let mut rec = PsumTraceRecorder::new().with_max_cycles(2);
        let mut mac = MacUnit::new();
        for (w, a) in [(1i8, 1i8), (-2, 1), (5, 5)] {
            let c = mac.mac(w, a);
            rec.on_cycle(&ctx(), &c);
        }
        assert_eq!(rec.trace().len(), 2);
        assert_eq!(rec.sign_flip_count(), 1);
        assert_eq!(rec.sign_flip_cycles(), &[1]);
    }

    #[test]
    fn tee_observer_forwards_to_both() {
        let mut tee = TeeObserver::new(SignFlipStats::new(), PsumTraceRecorder::new());
        let mut mac = MacUnit::new();
        let c = mac.mac(3, 3);
        tee.on_cycle(&ctx(), &c);
        tee.on_output_done(&ctx(), 9);
        assert_eq!(tee.first.total_macs, 1);
        assert_eq!(tee.second.trace(), &[9]);
    }
}
