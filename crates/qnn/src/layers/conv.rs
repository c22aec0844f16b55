//! 2-D convolution with int8 operands and i32 accumulation.

use accel_sim::{ConvShape, Matrix};

use crate::error::QnnError;
use crate::quant::requantize;
use crate::tensor::Tensor;

use super::AccumulatorHook;

/// A 2-D convolution layer (square kernels, equal stride and padding in both
/// spatial dimensions, no groups).
///
/// Weights are stored in KCHW order (output-channel major), matching the
/// accelerator's weight-matrix lowering, and the layer exposes its weight
/// matrix in the `(C*F*F) x K` form the READ optimizer consumes.
///
/// # Example
///
/// ```
/// use qnn::layers::Conv2d;
/// use qnn::Tensor;
///
/// # fn main() -> Result<(), qnn::QnnError> {
/// let conv = Conv2d::new("conv1", 3, 8, 3, 1, 1, |k, c, dy, dx| {
///     (((k + c + dy + dx) % 5) as i8) - 2
/// })?;
/// let input = Tensor::from_fn([3, 8, 8], |c, y, x| ((c + y + x) % 4) as i8);
/// let output = conv.forward(&input, true)?;
/// assert_eq!(output.shape(), [8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    name: String,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// KCHW weights.
    weights: Vec<i8>,
    /// Per-output-channel bias added to the accumulator.
    bias: Vec<i32>,
    /// Requantization scale applied to the accumulator.
    out_scale: f32,
}

impl Conv2d {
    /// Creates a convolution layer, initialising every weight via
    /// `init(k, c, dy, dx)`.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::InvalidConfig`] for zero-sized dimensions or a
    /// zero stride.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        mut init: impl FnMut(usize, usize, usize, usize) -> i8,
    ) -> Result<Self, QnnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(QnnError::config(
                "convolution dimensions and stride must be non-zero",
            ));
        }
        let mut weights = Vec::with_capacity(out_channels * in_channels * kernel * kernel);
        for k in 0..out_channels {
            for c in 0..in_channels {
                for dy in 0..kernel {
                    for dx in 0..kernel {
                        weights.push(init(k, c, dy, dx));
                    }
                }
            }
        }
        Ok(Conv2d {
            name: name.into(),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weights,
            bias: vec![0; out_channels],
            out_scale: 1.0 / 64.0,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (square).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Number of MAC operations per output activation (`C * F * F`).
    pub fn macs_per_output(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// The requantization scale applied to accumulator outputs.
    pub fn out_scale(&self) -> f32 {
        self.out_scale
    }

    /// Sets the requantization scale.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::InvalidConfig`] for non-positive or non-finite
    /// scales.
    pub fn set_out_scale(&mut self, scale: f32) -> Result<(), QnnError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QnnError::config(format!("invalid output scale {scale}")));
        }
        self.out_scale = scale;
        Ok(())
    }

    /// Sets the per-output-channel bias.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::ShapeMismatch`] if the length differs from the
    /// output channel count.
    pub fn set_bias(&mut self, bias: Vec<i32>) -> Result<(), QnnError> {
        if bias.len() != self.out_channels {
            return Err(QnnError::shape(format!(
                "bias length {} != output channels {}",
                bias.len(),
                self.out_channels
            )));
        }
        self.bias = bias;
        Ok(())
    }

    /// Borrow the per-output-channel bias.
    pub fn bias(&self) -> &[i32] {
        &self.bias
    }

    /// Borrow the KCHW weight storage.
    pub fn weights(&self) -> &[i8] {
        &self.weights
    }

    /// Mutably borrow the KCHW weight storage.
    pub fn weights_mut(&mut self) -> &mut [i8] {
        &mut self.weights
    }

    /// The weight matrix in `(C*F*F) x K` form — the matrix the READ
    /// optimizer reorders.
    pub fn weight_matrix(&self) -> Matrix<i8> {
        let rows = self.macs_per_output();
        Matrix::from_fn(rows, self.out_channels, |r, k| self.weights[k * rows + r])
    }

    /// The [`ConvShape`] of this layer for a given input spatial size, used
    /// to drive the accelerator simulator.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::InvalidConfig`] if the filter does not fit the
    /// padded input.
    pub fn conv_shape(&self, input_h: usize, input_w: usize) -> Result<ConvShape, QnnError> {
        ConvShape::new(
            1,
            self.in_channels,
            input_h,
            input_w,
            self.out_channels,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )
        .map_err(|e| QnnError::config(e.to_string()))
    }

    /// Output spatial size for a given input spatial size.
    fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), QnnError> {
        let padded_h = h + 2 * self.padding;
        let padded_w = w + 2 * self.padding;
        if self.kernel > padded_h || self.kernel > padded_w {
            return Err(QnnError::shape(format!(
                "kernel {} larger than padded input {padded_h}x{padded_w}",
                self.kernel
            )));
        }
        Ok((
            (padded_h - self.kernel) / self.stride + 1,
            (padded_w - self.kernel) / self.stride + 1,
        ))
    }

    /// Runs the convolution, applying ReLU when `relu` is true.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::ShapeMismatch`] if the input channel count does
    /// not match the layer.
    pub fn forward(&self, input: &Tensor<i8>, relu: bool) -> Result<Tensor<i8>, QnnError> {
        self.forward_with(input, relu, &mut super::identity_hook)
    }

    /// Runs the convolution with an accumulator hook invoked on every
    /// pre-activation accumulator value (the fault-injection point used by
    /// the paper's error-injection protocol).  The hook sees the
    /// accumulators in `(k, oy, ox)` order, once each.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::ShapeMismatch`] if the input channel count does
    /// not match the layer.
    pub fn forward_with(
        &self,
        input: &Tensor<i8>,
        relu: bool,
        hook: AccumulatorHook<'_>,
    ) -> Result<Tensor<i8>, QnnError> {
        self.accumulate(input, |acc| {
            let v = requantize(hook(acc), self.out_scale);
            if relu {
                v.max(0)
            } else {
                v
            }
        })
    }

    /// Runs the convolution and returns the raw accumulator tensor (no
    /// requantization, no activation).  Used for calibration.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::ShapeMismatch`] if the input channel count does
    /// not match the layer.
    pub fn forward_accumulators(&self, input: &Tensor<i8>) -> Result<Tensor<i32>, QnnError> {
        self.accumulate(input, |acc| acc)
    }

    /// The convolution as im2col dot products, mapping every accumulator
    /// through `map` into the output tensor.
    ///
    /// The input is lowered once into `out_h·out_w` rows of `C·F·F` taps in
    /// `c, dy, dx` order — the KCHW weight-row order — with padding taps
    /// left 0.  Output `(k, oy, ox)` is then `bias[k]` plus one contiguous
    /// i8·i8→i32 dot product of weight row `k` with row `oy·out_w + ox`.
    /// `map` is called once per output in `(k, oy, ox)` order, the tensor's
    /// own layout, so a fault hook draws its RNG stream in the same order
    /// as a direct loop.  Accumulators are exact integer sums, so the
    /// summation order changes no bit.
    fn accumulate<T: Copy + Default>(
        &self,
        input: &Tensor<i8>,
        mut map: impl FnMut(i32) -> T,
    ) -> Result<Tensor<T>, QnnError> {
        if input.channels() != self.in_channels {
            return Err(QnnError::shape(format!(
                "layer {} expects {} input channels, got {}",
                self.name,
                self.in_channels,
                input.channels()
            )));
        }
        let (out_h, out_w) = self.output_hw(input.height(), input.width())?;
        let (in_h, in_w) = (input.height(), input.width());
        let f = self.kernel;
        let taps = self.macs_per_output();
        let mut rows = vec![0i8; out_h * out_w * taps];
        for (p, row) in rows.chunks_exact_mut(taps).enumerate() {
            let (oy, ox) = (p / out_w, p % out_w);
            for c in 0..self.in_channels {
                for dy in 0..f {
                    let Some(iy) = (oy * self.stride + dy)
                        .checked_sub(self.padding)
                        .filter(|&iy| iy < in_h)
                    else {
                        continue;
                    };
                    for dx in 0..f {
                        if let Some(ix) = (ox * self.stride + dx)
                            .checked_sub(self.padding)
                            .filter(|&ix| ix < in_w)
                        {
                            row[(c * f + dy) * f + dx] = input.get(c, iy, ix);
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.out_channels * out_h * out_w);
        for (weights, &bias) in self.weights.chunks_exact(taps).zip(&self.bias) {
            for row in rows.chunks_exact(taps) {
                let dot: i32 = weights
                    .iter()
                    .zip(row)
                    .map(|(&w, &a)| i32::from(w) * i32::from(a))
                    .sum();
                out.push(map(bias + dot));
            }
        }
        Tensor::from_vec([self.out_channels, out_h, out_w], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_conv() -> Conv2d {
        Conv2d::new("c", 2, 3, 3, 1, 1, |k, c, dy, dx| {
            (((k * 7 + c * 5 + dy * 3 + dx) % 9) as i8) - 4
        })
        .unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(Conv2d::new("c", 0, 1, 3, 1, 1, |_, _, _, _| 0).is_err());
        assert!(Conv2d::new("c", 1, 0, 3, 1, 1, |_, _, _, _| 0).is_err());
        assert!(Conv2d::new("c", 1, 1, 0, 1, 1, |_, _, _, _| 0).is_err());
        assert!(Conv2d::new("c", 1, 1, 3, 0, 1, |_, _, _, _| 0).is_err());
    }

    #[test]
    fn output_shape_same_padding() {
        let conv = small_conv();
        let input = Tensor::from_fn([2, 6, 6], |c, y, x| ((c + y + x) % 3) as i8);
        let out = conv.forward(&input, false).unwrap();
        assert_eq!(out.shape(), [3, 6, 6]);
    }

    #[test]
    fn output_shape_stride_two() {
        let conv = Conv2d::new("c", 2, 4, 3, 2, 1, |_, _, _, _| 1).unwrap();
        let input = Tensor::from_fn([2, 8, 8], |_, _, _| 1i8);
        let out = conv.forward(&input, false).unwrap();
        assert_eq!(out.shape(), [4, 4, 4]);
    }

    #[test]
    fn input_channel_mismatch_rejected() {
        let conv = small_conv();
        let input = Tensor::from_fn([3, 6, 6], |_, _, _| 1i8);
        assert!(conv.forward(&input, false).is_err());
        assert!(conv.forward_accumulators(&input).is_err());
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A 1x1 conv with weight 1 (and out_scale 1) copies the channel.
        let mut conv = Conv2d::new("id", 1, 1, 1, 1, 0, |_, _, _, _| 1).unwrap();
        conv.set_out_scale(1.0).unwrap();
        let input = Tensor::from_fn([1, 4, 4], |_, y, x| (y * 4 + x) as i8 - 8);
        let out = conv.forward(&input, false).unwrap();
        assert_eq!(out, input);
        let relu_out = conv.forward(&input, true).unwrap();
        assert!(relu_out.as_slice().iter().all(|&v| v >= 0));
    }

    #[test]
    fn accumulators_match_forward_before_requantization() {
        let mut conv = small_conv();
        conv.set_out_scale(1.0).unwrap();
        let input = Tensor::from_fn([2, 5, 5], |c, y, x| ((c * 3 + y * 2 + x) % 5) as i8 - 2);
        let acc = conv.forward_accumulators(&input).unwrap();
        let out = conv.forward(&input, false).unwrap();
        for (a, o) in acc.as_slice().iter().zip(out.as_slice()) {
            let expected = (*a).clamp(-128, 127) as i8;
            assert_eq!(*o, expected);
        }
    }

    #[test]
    fn bias_shifts_accumulator() {
        let mut conv = Conv2d::new("b", 1, 2, 1, 1, 0, |_, _, _, _| 0).unwrap();
        conv.set_bias(vec![10, -20]).unwrap();
        conv.set_out_scale(1.0).unwrap();
        let input = Tensor::from_fn([1, 2, 2], |_, _, _| 0i8);
        let out = conv.forward(&input, false).unwrap();
        assert!(out.as_slice()[..4].iter().all(|&v| v == 10));
        assert!(out.as_slice()[4..].iter().all(|&v| v == -20));
        assert!(conv.set_bias(vec![1]).is_err());
    }

    #[test]
    fn hook_sees_every_accumulator() {
        let conv = small_conv();
        let input = Tensor::from_fn([2, 4, 4], |_, _, _| 1i8);
        let mut count = 0usize;
        let mut hook = |acc: i32| {
            count += 1;
            acc
        };
        let out = conv.forward_with(&input, false, &mut hook).unwrap();
        assert_eq!(count, out.len());
    }

    #[test]
    fn hook_corruption_changes_output() {
        let conv = small_conv();
        let input = Tensor::from_fn([2, 4, 4], |c, y, x| ((c + y * x) % 5) as i8);
        let clean = conv.forward(&input, false).unwrap();
        let mut hook = |_acc: i32| 1 << 20;
        let corrupted = conv.forward_with(&input, false, &mut hook).unwrap();
        assert_ne!(clean, corrupted);
        assert!(corrupted.as_slice().iter().all(|&v| v == 127));
    }

    #[test]
    fn weight_matrix_layout_matches_kchw() {
        let conv = small_conv();
        let m = conv.weight_matrix();
        assert_eq!(m.rows(), 2 * 9);
        assert_eq!(m.cols(), 3);
        // Element (r, k) must equal weights[k][c][dy][dx] with r = c*9+dy*3+dx.
        assert_eq!(m[(0, 0)], conv.weights()[0]);
        assert_eq!(m[(9, 1)], conv.weights()[18 + 9]);
    }

    #[test]
    fn conv_shape_roundtrip() {
        let conv = small_conv();
        let shape = conv.conv_shape(32, 32).unwrap();
        assert_eq!(shape.k, 3);
        assert_eq!(shape.reduction_len(), conv.macs_per_output());
        assert!(conv.conv_shape(0, 32).is_err());
    }

    #[test]
    fn scale_validation() {
        let mut conv = small_conv();
        assert!(conv.set_out_scale(0.0).is_err());
        assert!(conv.set_out_scale(f32::INFINITY).is_err());
        assert!(conv.set_out_scale(0.25).is_ok());
        assert_eq!(conv.out_scale(), 0.25);
    }

    /// The direct convolution loop, the reference the im2col path
    /// ([`Conv2d::accumulate`]) is tested against: `map` sees each
    /// accumulator in `(k, oy, ox)` order.
    fn naive_accumulate<T: Copy + Default>(
        conv: &Conv2d,
        input: &Tensor<i8>,
        mut map: impl FnMut(i32) -> T,
    ) -> Tensor<T> {
        let (out_h, out_w) = conv.output_hw(input.height(), input.width()).unwrap();
        let mut output = Tensor::<T>::zeros([conv.out_channels, out_h, out_w]);
        let k_area = conv.kernel * conv.kernel;
        let per_out_channel = conv.in_channels * k_area;
        for k in 0..conv.out_channels {
            let w_base = k * per_out_channel;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = conv.bias[k];
                    for c in 0..conv.in_channels {
                        for dy in 0..conv.kernel {
                            let iy = (oy * conv.stride + dy) as isize - conv.padding as isize;
                            if iy < 0 || iy >= input.height() as isize {
                                continue;
                            }
                            for dx in 0..conv.kernel {
                                let ix = (ox * conv.stride + dx) as isize - conv.padding as isize;
                                if ix < 0 || ix >= input.width() as isize {
                                    continue;
                                }
                                let w = conv.weights[w_base + c * k_area + dy * conv.kernel + dx];
                                let a = input.get(c, iy as usize, ix as usize);
                                acc += i32::from(w) * i32::from(a);
                            }
                        }
                    }
                    output.set(k, oy, ox, map(acc));
                }
            }
        }
        output
    }

    /// Seeded layers and inputs over every combination of stride 1 and 2,
    /// padding 0 and 1, kernel 1 and 3 and 1 and 3 input channels, on odd
    /// and non-square spatial sizes.  Weights and activations span the
    /// full i8 range and biases are large, so accumulators exercise wide
    /// sums.
    fn im2col_cases() -> Vec<(Conv2d, Tensor<i8>)> {
        let mut rng = StdRng::seed_from_u64(0x12c0);
        let mut cases = Vec::new();
        for stride in [1, 2] {
            for padding in [0, 1] {
                for kernel in [1, 3] {
                    for channels in [1, 3] {
                        for (h, w) in [(5, 7), (7, 4)] {
                            let mut conv = Conv2d::new(
                                "case",
                                channels,
                                4,
                                kernel,
                                stride,
                                padding,
                                |_, _, _, _| rng.gen_range(-128i32..128) as i8,
                            )
                            .unwrap();
                            conv.set_bias((0..4).map(|_| rng.gen_range(-5000i32..5000)).collect())
                                .unwrap();
                            conv.set_out_scale(1.0 / 32.0).unwrap();
                            let input = Tensor::from_fn([channels, h, w], |_, _, _| {
                                rng.gen_range(-128i32..128) as i8
                            });
                            cases.push((conv, input));
                        }
                    }
                }
            }
        }
        cases
    }

    /// A fault hook that logs every accumulator it sees and corrupts every
    /// fifth one, as a fault session would.
    fn logging_hook(log: &mut Vec<i32>) -> impl FnMut(i32) -> i32 + '_ {
        move |acc| {
            log.push(acc);
            if log.len().is_multiple_of(5) {
                acc ^ (1 << 12)
            } else {
                acc
            }
        }
    }

    #[test]
    fn im2col_matches_the_naive_loop_hook_call_for_hook_call() {
        for (conv, input) in im2col_cases() {
            let case = format!(
                "stride {} padding {} kernel {} channels {} input {:?}",
                conv.stride,
                conv.padding,
                conv.kernel,
                conv.in_channels,
                input.shape()
            );
            assert_eq!(
                conv.forward_accumulators(&input).unwrap(),
                naive_accumulate(&conv, &input, |acc| acc),
                "{case}"
            );
            for relu in [false, true] {
                let mut log = Vec::new();
                let out = conv
                    .forward_with(&input, relu, &mut logging_hook(&mut log))
                    .unwrap();
                let mut reference_log = Vec::new();
                let reference = {
                    let mut hook = logging_hook(&mut reference_log);
                    naive_accumulate(&conv, &input, |acc| {
                        let mut v = requantize(hook(acc), conv.out_scale);
                        if relu {
                            v = v.max(0);
                        }
                        v
                    })
                };
                assert_eq!(out, reference, "{case} relu {relu}");
                assert_eq!(log.len(), out.len(), "{case}: one hook call per output");
                assert_eq!(log, reference_log, "{case} relu {relu}");
            }
        }
    }
}
