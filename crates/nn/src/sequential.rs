//! Layer containers: the indexed [`Sequential`] graph and the
//! [`Residual`] skip-connection wrapper.

use crate::fused;
use crate::layer::{EvalOp, Layer, Mode};
use crate::param::Param;
use crate::shape::{ShapeError, ShapeStep, ShapeTrace};
use nshd_tensor::{Shape, Tensor};

/// Opens a per-layer profiling span labelled `l<index>.<kind>` (e.g.
/// `l0.conv2d`), where `<kind>` is the layer name truncated at its first
/// parameter bracket; `suffix` distinguishes backward passes. Returns
/// `None` (no formatting, no allocation) when no recorder is installed.
pub(crate) fn layer_span(
    index: usize,
    layer: &dyn Layer,
    suffix: &str,
) -> Option<nshd_obs::SpanGuard> {
    if !nshd_obs::enabled() {
        return None;
    }
    let name = layer.name();
    let kind = name.split(['(', '[']).next().unwrap_or("layer");
    Some(nshd_obs::span(&format!("l{index}.{kind}{suffix}")))
}

/// An ordered stack of layers, indexed the way the NSHD paper indexes
/// feature extractors ("VGG16 at layer 27", "EfficientNet-b0 block 6", …).
///
/// `Sequential` supports running a prefix only ([`forward_to`]), which is
/// how NSHD truncates a CNN into a feature extractor while the remaining
/// layers stay available as the distillation teacher's tail.
///
/// [`forward_to`]: Sequential::forward_to
#[derive(Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for builder-style chaining.
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer(&self, index: usize) -> &dyn Layer {
        self.layers[index].as_ref()
    }

    /// Mutable access to the layer at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer_mut(&mut self, index: usize) -> &mut dyn Layer {
        self.layers[index].as_mut()
    }

    /// Runs the full stack.
    pub fn forward_all(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_to(input, self.layers.len(), mode)
    }

    /// Runs layers `0..end` and returns the activation after layer
    /// `end - 1` (the paper's "features at layer *end-1*"). `end == 0`
    /// returns the input unchanged. [`Mode::Eval`] touches no layer
    /// state, so it runs the fused pass of
    /// [`infer_to`](Sequential::infer_to).
    ///
    /// # Panics
    ///
    /// Panics if `end > self.len()`.
    pub fn forward_to(&mut self, input: &Tensor, end: usize, mode: Mode) -> Tensor {
        assert!(end <= self.layers.len(), "end {end} exceeds {} layers", self.layers.len());
        if mode == Mode::Eval {
            return self.infer_to(input, end);
        }
        let mut x = input.clone();
        for (index, layer) in self.layers[..end].iter_mut().enumerate() {
            let _sp = layer_span(index, &**layer, "");
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Runs layers `start..len` — the "remaining layers" used as the
    /// distillation teacher's tail after truncating at `start`.
    /// [`Mode::Eval`] runs the fused pass of
    /// [`infer_from`](Sequential::infer_from).
    ///
    /// # Panics
    ///
    /// Panics if `start > self.len()`.
    pub fn forward_from(&mut self, input: &Tensor, start: usize, mode: Mode) -> Tensor {
        assert!(start <= self.layers.len(), "start {start} exceeds {} layers", self.layers.len());
        if mode == Mode::Eval {
            return self.infer_from(input, start);
        }
        let mut x = input.clone();
        for (offset, layer) in self.layers[start..].iter_mut().enumerate() {
            let _sp = layer_span(start + offset, &**layer, "");
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Runs the full stack in evaluation mode without mutating any layer —
    /// the `&self` counterpart of [`forward_all`](Sequential::forward_all)
    /// used by the thread-shared serving path.
    pub fn infer_all(&self, input: &Tensor) -> Tensor {
        self.infer_to(input, self.layers.len())
    }

    /// Runs layers `0..end` in evaluation mode without mutating any layer —
    /// the `&self` counterpart of [`forward_to`](Sequential::forward_to),
    /// bit-identical to chaining each layer's [`Layer::infer`].
    ///
    /// This is the fused eval pass: an `N×C×H×W` batch runs image by
    /// image, each run of conv/depthwise → batch norm → activation (→ a
    /// residual's `+ skip`) as one kernel plus one per-element epilogue,
    /// in buffers reused across calls on the same thread. Layers without
    /// an [`EvalOp`] view, and inputs of any other rank, run the layers'
    /// own `infer`.
    ///
    /// # Panics
    ///
    /// Panics if `end > self.len()`.
    pub fn infer_to(&self, input: &Tensor, end: usize) -> Tensor {
        assert!(end <= self.layers.len(), "end {end} exceeds {} layers", self.layers.len());
        fused::infer_range(self, input, 0..end)
    }

    /// Runs layers `start..len` in evaluation mode without mutating any
    /// layer — the `&self` counterpart of
    /// [`forward_from`](Sequential::forward_from).
    ///
    /// # Panics
    ///
    /// Panics if `start > self.len()`.
    pub fn infer_from(&self, input: &Tensor, start: usize) -> Tensor {
        assert!(start <= self.layers.len(), "start {start} exceeds {} layers", self.layers.len());
        fused::infer_range(self, input, start..self.layers.len())
    }

    /// Backwards through the full stack (training-mode forward required).
    pub fn backward_all(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for (index, layer) in self.layers.iter_mut().enumerate().rev() {
            let _sp = layer_span(index, &**layer, ".bwd");
            g = layer.backward(&g);
        }
        g
    }

    /// Shape (excluding batch) after running the first `end` layers on
    /// `in_shape`.
    ///
    /// # Panics
    ///
    /// Panics if `end > self.len()`.
    pub fn out_shape_at(&self, in_shape: &[usize], end: usize) -> Vec<usize> {
        assert!(end <= self.layers.len());
        let mut shape = in_shape.to_vec();
        for layer in &self.layers[..end] {
            shape = layer.out_shape(&shape);
        }
        shape
    }

    /// Per-layer MAC counts for one sample of the given input shape.
    pub fn macs_per_layer(&self, in_shape: &[usize]) -> Vec<u64> {
        let mut shape = in_shape.to_vec();
        let mut macs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            macs.push(layer.macs(&shape));
            shape = layer.out_shape(&shape);
        }
        macs
    }

    /// Total MACs for one sample.
    pub fn total_macs(&self, in_shape: &[usize]) -> u64 {
        self.macs_per_layer(in_shape).iter().sum()
    }

    /// MACs for the first `end` layers only.
    pub fn macs_to(&self, in_shape: &[usize], end: usize) -> u64 {
        self.macs_per_layer(in_shape)[..end].iter().sum()
    }

    /// Total parameters in the first `end` layers.
    ///
    /// # Panics
    ///
    /// Panics if `end > self.len()`.
    pub fn param_count_to(&self, end: usize) -> usize {
        self.layers[..end].iter().map(|l| l.param_count()).sum()
    }

    /// Statically traces a per-sample input shape through every layer,
    /// producing the full per-layer shape, MAC, and parameter accounting
    /// without running any tensor arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::InLayer`] naming the first layer (index and
    /// name) that rejects its input shape.
    pub fn infer_shapes(&self, in_shape: &[usize]) -> Result<ShapeTrace, ShapeError> {
        let mut steps = Vec::with_capacity(self.layers.len());
        let mut shape = in_shape.to_vec();
        for (index, layer) in self.layers.iter().enumerate() {
            let out = layer.shape_of(&shape).map_err(|source| ShapeError::InLayer {
                index,
                layer: layer.name(),
                source: Box::new(source),
            })?;
            // `macs` is only well-defined once `shape_of` accepted the
            // input, so it is computed after the check above.
            let macs = layer.macs(&shape);
            let out_shape = out.dims().to_vec();
            steps.push(ShapeStep {
                index,
                name: layer.name(),
                in_shape: shape,
                out_shape: out_shape.clone(),
                macs,
                params: layer.param_count(),
            });
            shape = out_shape;
        }
        Ok(ShapeTrace { input: in_shape.to_vec(), steps })
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("sequential[{}]", self.layers.len())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_all(input, mode)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_all(input)
    }

    fn eval_op(&self) -> Option<EvalOp<'_>> {
        Some(EvalOp::Sequential(self))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_all(grad)
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError> {
        let mut shape = Shape::from(in_shape);
        for (index, layer) in self.layers.iter().enumerate() {
            shape = layer.shape_of(shape.dims()).map_err(|source| ShapeError::InLayer {
                index,
                layer: layer.name(),
                source: Box::new(source),
            })?;
        }
        Ok(shape)
    }

    fn macs(&self, in_shape: &[usize]) -> u64 {
        self.total_macs(in_shape)
    }

    fn eval_ready(&self) -> Result<(), String> {
        for layer in &self.layers {
            layer.eval_ready()?;
        }
        Ok(())
    }

    fn collect_state(&self, out: &mut Vec<Vec<f32>>) {
        for layer in &self.layers {
            layer.collect_state(out);
        }
    }

    fn restore_state(&mut self, state: &mut std::vec::IntoIter<Vec<f32>>) {
        for layer in &mut self.layers {
            layer.restore_state(state);
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.layers.iter().map(|l| l.name())).finish()
    }
}

/// A residual wrapper: `y = body(x) + x`.
///
/// Used by MobileNetV2's inverted-residual blocks (stride 1, equal channel
/// counts) and EfficientNet's MBConv blocks. The body must preserve shape.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps `body` in a skip connection.
    pub fn new(body: Sequential) -> Self {
        Residual { body }
    }
}

impl Layer for Residual {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("residual({:?})", self.body)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let y = self.body.forward_all(input, mode);
        assert_eq!(
            y.shape(),
            input.shape(),
            "residual body must preserve shape ({} vs {})",
            y.shape(),
            input.shape()
        );
        y.add(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let y = self.body.infer_all(input);
        assert_eq!(
            y.shape(),
            input.shape(),
            "residual body must preserve shape ({} vs {})",
            y.shape(),
            input.shape()
        );
        y.add(input)
    }

    fn eval_op(&self) -> Option<EvalOp<'_>> {
        Some(EvalOp::Residual(&self.body))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.body.backward_all(grad).add(grad)
    }

    fn params(&self) -> Vec<&Param> {
        self.body.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.body.params_mut()
    }

    fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError> {
        let body = self.body.shape_of(in_shape)?;
        if body.dims() != in_shape {
            return Err(ShapeError::NotShapePreserving {
                layer: "residual".into(),
                input: in_shape.to_vec(),
                body: body.dims().to_vec(),
            });
        }
        Ok(body)
    }

    fn macs(&self, in_shape: &[usize]) -> u64 {
        self.body.total_macs(in_shape)
    }

    fn eval_ready(&self) -> Result<(), String> {
        self.body.eval_ready()
    }

    fn collect_state(&self, out: &mut Vec<Vec<f32>>) {
        self.body.collect_state(out);
    }

    fn restore_state(&mut self, state: &mut std::vec::IntoIter<Vec<f32>>) {
        self.body.restore_state(state);
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Residual({:?})", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::{ActKind, Activation};
    use crate::linear::Linear;
    use nshd_tensor::Rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new()
            .with(Linear::new(4, 8, &mut rng))
            .with(Activation::new(ActKind::Relu))
            .with(Linear::new(8, 3, &mut rng))
    }

    #[test]
    fn forward_to_prefix_matches_manual_composition() {
        let mut seq = tiny_mlp(1);
        let x = Tensor::from_fn([2, 4], |i| (i as f32 * 0.3).sin());
        let full = seq.forward_all(&x, Mode::Eval);
        assert_eq!(full.dims(), &[2, 3]);
        let mid = seq.forward_to(&x, 2, Mode::Eval);
        assert_eq!(mid.dims(), &[2, 8]);
        let tail = seq.forward_from(&mid, 2, Mode::Eval);
        for (a, b) in tail.as_slice().iter().zip(full.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        // end == 0 is the identity.
        assert_eq!(seq.forward_to(&x, 0, Mode::Eval), x);
    }

    #[test]
    fn backward_chains_through_all_layers() {
        let mut seq = tiny_mlp(2);
        let x = Tensor::from_fn([1, 4], |i| (i as f32 + 1.0) * 0.1);
        let y = seq.forward_all(&x, Mode::Train);
        let dx = seq.backward_all(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.dims(), x.dims());
        // Finite-difference check on the input gradient.
        let eps = 1e-2;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (seq.forward_all(&xp, Mode::Eval).sum()
                - seq.forward_all(&xm, Mode::Eval).sum())
                / (2.0 * eps);
            assert!((numeric - dx.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn shape_and_stat_propagation() {
        let seq = tiny_mlp(3);
        assert_eq!(seq.out_shape_at(&[4], 1), vec![8]);
        assert_eq!(seq.out_shape(&[4]), vec![3]);
        assert_eq!(seq.macs_per_layer(&[4]), vec![32, 0, 24]);
        assert_eq!(seq.total_macs(&[4]), 56);
        assert_eq!(seq.macs_to(&[4], 1), 32);
        assert_eq!(seq.param_count_to(1), 4 * 8 + 8);
        assert_eq!(seq.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn residual_adds_identity() {
        let mut rng = Rng::new(4);
        let mut fc = Linear::new(3, 3, &mut rng);
        // Zero the body so the residual is pure identity.
        for p in fc.params_mut() {
            for v in p.value.as_mut_slice() {
                *v = 0.0;
            }
        }
        let mut res = Residual::new(Sequential::new().with(fc));
        let x = Tensor::from_fn([2, 3], |i| i as f32);
        let y = res.forward(&x, Mode::Eval);
        assert_eq!(y, x);
    }

    #[test]
    fn residual_backward_adds_skip_gradient() {
        let mut rng = Rng::new(5);
        let mut res = Residual::new(Sequential::new().with(Linear::new(2, 2, &mut rng)));
        let x = Tensor::from_fn([1, 2], |i| 0.5 + i as f32);
        let y = res.forward(&x, Mode::Train);
        let dx = res.backward(&Tensor::ones(y.shape().clone()));
        let eps = 1e-2;
        for idx in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (res.forward(&xp, Mode::Eval).sum() - res.forward(&xm, Mode::Eval).sum())
                / (2.0 * eps);
            assert!((numeric - dx.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn residual_rejects_shape_changing_body() {
        let mut rng = Rng::new(6);
        let mut res = Residual::new(Sequential::new().with(Linear::new(2, 3, &mut rng)));
        res.forward(&Tensor::zeros([1, 2]), Mode::Eval);
    }
}
