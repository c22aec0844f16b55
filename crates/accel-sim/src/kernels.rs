//! The word-parallel GEMM simulation kernel: 64 outputs per step.
//!
//! When an observer only needs triggered-depth and sign-flip statistics (it
//! returns a [`DepthWordSink`] from
//! [`CycleObserver::depth_word_sink`](crate::trace::CycleObserver::depth_word_sink)),
//! the simulator routes through this kernel instead of the scalar MAC loop.
//! Every output `(group, channel, pixel)` of the layer is one lane, and 64
//! lanes share one reduction step, whichever groups, channels and pixels
//! they come from: the 64 products are packed into 16 bit planes
//! ([`crate::bitplane`]) and a single bit-sliced pass over the 24
//! accumulator planes computes, for every lane at once,
//!
//! * the wrapped 24-bit partial sum (ripple-carry addition),
//! * the longest carry-propagation run (the bit-sliced transcription of
//!   [`carry_chain_length`](crate::mac::carry_chain_length)),
//! * the most significant toggled accumulator bit, and
//! * the partial-sum sign flip (sign-plane XOR),
//!
//! so one step costs `O(ACC_BITS)` word operations for 64 simulated MAC
//! cycles, against ~10 operations *per accumulator bit per cycle* in the
//! scalar path.  The per-lane triggered depths (`max(carry_run, msb)`) are
//! handed to the sink as packed [`DepthWord`]s.
//!
//! Lanes are laid out group by group, channel by channel, pixel by pixel,
//! so a word may straddle groups and the last one may end mid-group.  A
//! lane gathers its products through its own group's row order; lanes of
//! different groups still step in lockstep because
//! [`ComputeSchedule::validate`] (run before the kernel) makes every row
//! order a permutation of `0..R`, so every output takes exactly `R` steps.
//!
//! # Equivalence with the scalar path
//!
//! Both dataflows perform, for every `(channel, pixel)` output, the same
//! additions in the same `row_order` — weight-stationary tiling only
//! interleaves outputs and round-trips partial sums through
//! `MacUnit::load(psum)`, which is idempotent on already-wrapped values — so
//! the multiset of simulated MAC cycles is dataflow-independent, and a
//! single packed routine serves both.  Any observer whose aggregate is a
//! cycle-order-insensitive integer tally therefore accumulates results
//! byte-identical to the scalar path; the in-crate exhaustive tests and the
//! cross-crate property tests pin this for every `(weight, activation)`
//! pair and for random problems whose words straddle groups.

use crate::bitplane::{self, DEPTH_PLANES};
use crate::mac::{sign_extend, ACC_BITS};
use crate::matrix::Matrix;
use crate::schedule::ComputeSchedule;
use crate::trace::{DepthWord, DepthWordSink};

const ACC_PLANES: usize = ACC_BITS as usize;

/// One lane of a word: the output `(channel, pixel)` it accumulates and the
/// row order of the group that output belongs to.
struct Lane<'a> {
    order: &'a [u32],
    channel: usize,
    pixel: usize,
}

/// Runs the full GEMM through the packed depth kernel, filling `outputs`
/// and streaming one [`DepthWord`] per (reduction step, 64-output word) to
/// the sink.  Every output pixel is simulated; a partial trailing word runs
/// with a narrowed lane mask.  The schedule must have passed
/// [`ComputeSchedule::validate`] for this problem.
pub(crate) fn run_depth_words(
    weights: &Matrix<i8>,
    activations: &Matrix<i8>,
    schedule: &ComputeSchedule,
    sink: &mut dyn DepthWordSink,
    outputs: &mut Matrix<i32>,
    total_cycles: &mut u64,
) {
    let reduction_len = weights.rows();
    let (w, w_stride) = (weights.as_slice(), weights.cols());
    let (a, a_stride) = (activations.as_slice(), activations.cols());
    let mut lanes = schedule.groups().iter().flat_map(|group| {
        group.columns.iter().flat_map(move |&channel| {
            (0..activations.cols()).map(move |pixel| Lane {
                order: &group.row_order,
                channel,
                pixel,
            })
        })
    });
    let mut word: Vec<Lane> = Vec::with_capacity(64);
    let mut products = [0i16; 64];
    loop {
        word.clear();
        word.extend(lanes.by_ref().take(64));
        if word.is_empty() {
            return;
        }
        let mask = bitplane::lane_mask(word.len());
        let mut acc = [0u64; ACC_PLANES];
        for step in 0..reduction_len {
            for (product, lane) in products.iter_mut().zip(&word) {
                let r = lane.order[step] as usize;
                // i8 x i8 products fit i16 exactly.
                *product = (i32::from(w[r * w_stride + lane.channel])
                    * i32::from(a[r * a_stride + lane.pixel])) as i16;
            }
            let addend = bitplane::planes_from_i16(&products[..word.len()]);
            sink.on_depth_word(&depth_step(&mut acc, &addend, mask));
        }
        *total_cycles += (word.len() * reduction_len) as u64;
        for (l, lane) in word.iter().enumerate() {
            outputs[(lane.channel, lane.pixel)] = extract_psum(&acc, l);
        }
    }
}

/// One bit-sliced reduction step: accumulates the packed 16-bit products
/// into the 24-plane accumulator and returns every lane's triggered depth
/// and sign flip.
fn depth_step(acc: &mut [u64; ACC_PLANES], addend: &[u64; 16], lane_mask: u64) -> DepthWord {
    let sign_ext = addend[15];
    let before_sign = acc[ACC_PLANES - 1];
    let mut carry = 0u64;
    // Packed per-lane counters: the current carry run, the best (longest)
    // run so far, and the most significant toggled bit position.
    let mut run = [0u64; DEPTH_PLANES];
    let mut best = [0u64; DEPTH_PLANES];
    let mut msb = [0u64; DEPTH_PLANES];
    for (i, slot) in acc.iter_mut().enumerate() {
        let a = *slot;
        let b = if i < addend.len() {
            addend[i]
        } else {
            sign_ext
        };
        let generate = a & b;
        let propagate = a ^ b;
        let sum = propagate ^ carry;

        // Carry-run tracking, the bit-sliced transcription of
        // `carry_chain_length`: lanes whose incoming carry propagates extend
        // their run by one, lanes that freshly generate restart at 1
        // (generate and extend are disjoint: `generate & propagate == 0`),
        // every other lane resets to 0.
        let extend = carry & propagate;
        let mut inc_carry = !0u64;
        for plane in run.iter_mut() {
            let incremented = *plane ^ inc_carry;
            inc_carry &= *plane;
            *plane = incremented & extend;
        }
        run[0] |= generate;
        let keep_run = bitplane::lanes_ge(&run, &best);
        for (b_plane, r_plane) in best.iter_mut().zip(&run) {
            *b_plane = (r_plane & keep_run) | (*b_plane & !keep_run);
        }

        // Lanes whose accumulator bit `i` toggled have their msb counter
        // overwritten with the constant `i + 1` (one-based, like
        // `MacCycle::msb_toggled`); ascending `i` leaves the highest.
        let toggled = a ^ sum;
        if toggled != 0 {
            let position = (i + 1) as u64;
            for (k, plane) in msb.iter_mut().enumerate() {
                if (position >> k) & 1 == 1 {
                    *plane |= toggled;
                } else {
                    *plane &= !toggled;
                }
            }
        }

        *slot = sum;
        carry = generate | (carry & propagate);
    }

    // depth = max(best carry run, msb toggled), per lane.
    let msb_wins = bitplane::lanes_ge(&msb, &best);
    let mut depth_planes = [0u64; DEPTH_PLANES];
    for (k, plane) in depth_planes.iter_mut().enumerate() {
        *plane = (msb[k] & msb_wins) | (best[k] & !msb_wins);
    }
    DepthWord {
        depth_planes,
        sign_flips: (before_sign ^ acc[ACC_PLANES - 1]) & lane_mask,
        lane_mask,
    }
}

/// Reads back one lane's sign-extended 24-bit partial sum.
fn extract_psum(acc: &[u64; ACC_PLANES], lane: usize) -> i32 {
    sign_extend(bitplane::lane_value(acc, lane) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayConfig;
    use crate::dataflow::Dataflow;
    use crate::gemm::GemmProblem;
    use crate::mac::{MacCycle, MacUnit};
    use crate::schedule::ColumnGroup;
    use crate::trace::{CycleContext, CycleObserver, ScalarPath};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Packs 64 arbitrary 24-bit accumulator values into bit planes.
    fn pack_psums(psums: &[i32]) -> [u64; ACC_PLANES] {
        let mut acc = [0u64; ACC_PLANES];
        for (l, &p) in psums.iter().enumerate() {
            let raw = (p as u32) & 0xFF_FFFF;
            for (k, plane) in acc.iter_mut().enumerate() {
                *plane |= u64::from((raw >> k) & 1) << l;
            }
        }
        acc
    }

    /// Order-insensitive depth/flip tally implementing both observer sides,
    /// so the packed and scalar paths can be compared inside this crate
    /// (the real histogram consumer lives in the `timing` crate).
    #[derive(Debug, Default, PartialEq, Eq)]
    struct DepthCounts {
        by_depth: [u64; 32],
        flips: u64,
        total: u64,
    }

    impl CycleObserver for DepthCounts {
        fn on_cycle(&mut self, _ctx: &CycleContext, cycle: &MacCycle) {
            let depth = if cycle.is_idle() {
                0
            } else {
                cycle.triggered_depth()
            };
            self.by_depth[depth as usize] += 1;
            self.flips += u64::from(cycle.sign_flip);
            self.total += 1;
        }

        fn depth_word_sink(&mut self) -> Option<&mut dyn DepthWordSink> {
            Some(self)
        }
    }

    impl DepthWordSink for DepthCounts {
        fn on_depth_word(&mut self, word: &DepthWord) {
            for lane in 0..64 {
                if (word.lane_mask >> lane) & 1 == 1 {
                    self.by_depth[word.depth(lane) as usize] += 1;
                    self.flips += u64::from(word.sign_flip(lane));
                    self.total += 1;
                }
            }
        }
    }

    /// Every (weight, activation) pair, 64 lanes at a time with random
    /// partial sums: the packed step reproduces the scalar MAC's psum,
    /// triggered depth and sign flip exactly.
    #[test]
    fn packed_step_matches_mac_unit_exhaustively() {
        let mut rng = StdRng::seed_from_u64(0x57E9);
        let pairs: Vec<(i8, i8)> = (-128i32..=127)
            .flat_map(|w| (-128i32..=127).map(move |a| (w as i8, a as i8)))
            .collect();
        for block in pairs.chunks(64) {
            let psums: Vec<i32> = block
                .iter()
                .map(|_| super::sign_extend(rng.gen::<u32>()))
                .collect();
            let mut acc = pack_psums(&psums);
            let products: Vec<i16> = block
                .iter()
                .map(|&(w, a)| (i32::from(w) * i32::from(a)) as i16)
                .collect();
            let addend = bitplane::planes_from_i16(&products);
            let mask = bitplane::lane_mask(block.len());
            let word = depth_step(&mut acc, &addend, mask);
            for (l, (&(w, a), &psum)) in block.iter().zip(&psums).enumerate() {
                let mut mac = MacUnit::new();
                mac.load(psum);
                let cycle = mac.mac(w, a);
                let expected_depth = if cycle.is_idle() {
                    0
                } else {
                    cycle.triggered_depth()
                };
                assert_eq!(extract_psum(&acc, l), cycle.psum_after, "psum w={w} a={a}");
                assert_eq!(word.depth(l), expected_depth, "depth w={w} a={a} p={psum}");
                assert_eq!(word.sign_flip(l), cycle.sign_flip, "flip w={w} a={a}");
            }
        }
    }

    /// A random schedule over `r` rows and `k` channels: the channels
    /// shuffled into groups of uneven widths (1 to 4), each group with its
    /// own random row order.
    fn random_schedule(rng: &mut StdRng, r: usize, k: usize) -> ComputeSchedule {
        use rand::seq::SliceRandom;
        let mut channels: Vec<usize> = (0..k).collect();
        channels.shuffle(rng);
        let mut groups = Vec::new();
        let mut rest = channels.as_slice();
        while !rest.is_empty() {
            let width = rng.gen_range(1..5usize).min(rest.len());
            let mut row_order: Vec<u32> = (0..r as u32).collect();
            row_order.shuffle(rng);
            groups.push(ColumnGroup {
                columns: rest[..width].to_vec(),
                row_order: row_order.into(),
            });
            rest = &rest[width..];
        }
        ComputeSchedule::new(groups)
    }

    /// Full simulations through the public API: the packed path produces the
    /// same outputs, cycle counts and depth/flip tallies as the scalar path,
    /// for both dataflows and schedules of several groups with distinct row
    /// orders and uneven widths, so that words straddle groups and end
    /// mid-group at every pixel count.  Two random problems per pixel count.
    #[test]
    fn packed_simulation_matches_scalar_path() {
        let mut rng = StdRng::seed_from_u64(0x90A7);
        let array = ArrayConfig::new(4, 2);
        for m in [1usize, 3, 4, 5, 17, 64, 65, 70] {
            for draw in 0..2 {
                let r = rng.gen_range(1..40);
                let k = rng.gen_range(1..12);
                let weights = Matrix::from_fn(r, k, |_, _| rng.gen::<u64>() as i8);
                let activations = Matrix::from_fn(r, m, |_, _| rng.gen::<u64>() as i8);
                let problem = GemmProblem::new(weights, activations).unwrap();
                let schedule = random_schedule(&mut rng, r, k);
                for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
                    let mut packed = DepthCounts::default();
                    let mut scalar = ScalarPath(DepthCounts::default());
                    let fast = problem
                        .simulate_with_schedule(&array, dataflow, &schedule, &mut packed)
                        .unwrap();
                    let slow = problem
                        .simulate_with_schedule(&array, dataflow, &schedule, &mut scalar)
                        .unwrap();
                    let case = format!("m={m} draw={draw} r={r} k={k} {dataflow:?}");
                    assert_eq!(fast.outputs, slow.outputs, "{case}");
                    assert_eq!(fast.total_cycles, slow.total_cycles, "{case}");
                    assert_eq!(fast.total_cycles, (r * k * m) as u64, "{case}");
                    assert_eq!(packed, scalar.0, "tallies {case}");
                    assert_eq!(packed.total, (r * k * m) as u64);
                }
            }
        }
    }

    /// The packed path also matches the problem's order-independent
    /// reference output (functional correctness independent of the scalar
    /// simulator).
    #[test]
    fn packed_outputs_match_reference_gemm() {
        let weights = Matrix::from_fn(33, 5, |r, c| (((r * 7 + c * 13) % 19) as i8) - 9);
        let activations = Matrix::from_fn(33, 70, |r, c| (((r * 3 + c) % 11) as i8) - 5);
        let problem = GemmProblem::new(weights, activations).unwrap();
        let mut counts = DepthCounts::default();
        let result = problem
            .simulate(
                &ArrayConfig::new(4, 2),
                Dataflow::OutputStationary,
                &mut counts,
            )
            .unwrap();
        assert_eq!(result.outputs, problem.reference_output().unwrap());
        assert_eq!(counts.total, 33 * 5 * 70);
    }
}
