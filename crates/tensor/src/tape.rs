//! The autograd tape: forward construction and reverse-mode backward.

use crate::params::{ParamId, Params};
use fia_linalg::Matrix;
use rand::Rng;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Raw node index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Differentiable operations recorded on the tape.
///
/// Variants that need saved state for their backward pass (dropout masks,
/// LayerNorm statistics) carry it inline so backward never recomputes
/// stochastic or expensive quantities.
enum Op {
    /// Constant leaf (no gradient collected, but gradients still flow
    /// through ops that consume it).
    Input,
    /// Trainable leaf bound from a [`Params`] store.
    Param(ParamId),
    MatMul(VarId, VarId),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Hadamard(VarId, VarId),
    /// `a[m×n] + bias[1×n]` broadcast over rows.
    AddRowBroadcast(VarId, VarId),
    Scale(VarId, f64),
    /// `x + c`; the constant is baked into the forward value and its
    /// gradient is the identity, so only the input id is stored.
    AddScalar(VarId),
    Relu(VarId),
    LeakyRelu(VarId, f64),
    Sigmoid(VarId),
    Tanh(VarId),
    /// Row-wise softmax; backward uses the saved output value.
    SoftmaxRows(VarId),
    /// Natural log (inputs must be positive).
    Log(VarId),
    /// Column means: `[m×n] → [1×n]`.
    ColMean(VarId),
    SumAll(VarId),
    MeanAll(VarId),
    /// Fused mean-squared-error `mean((pred − target)²)`; scalar output.
    MseLoss(VarId, VarId),
    /// Fused softmax + cross-entropy against a one-hot (or soft) target
    /// distribution, averaged over rows; saves the softmax output.
    CrossEntropyLogits {
        logits: VarId,
        target: VarId,
        softmax: Matrix,
    },
    LayerNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        /// Saved normalized activations x̂.
        xhat: Matrix,
        /// Saved per-row 1/σ.
        inv_std: Vec<f64>,
    },
    /// Inverted dropout; `mask` already contains 0 or 1/(1−p).
    Dropout {
        x: VarId,
        mask: Matrix,
    },
    ConcatCols(VarId, VarId),
    SliceCols {
        x: VarId,
        start: usize,
        end: usize,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// `true` when this node is a parameter or (transitively) consumes one;
    /// backward skips gradient propagation into subgraphs that cannot
    /// reach a parameter *unless* the caller asked for input gradients.
    needs_grad: bool,
}

/// A dynamic computation graph. See the crate docs for the usage pattern.
pub struct Tape {
    nodes: Vec<Node>,
    /// When `true`, [`Tape::input`] leaves also receive gradients. The GRN
    /// attack needs this switched on for nothing — inputs it cares about
    /// are generator outputs — but diagnostic tooling (saliency, the
    /// gradient-checker) wants input grads, so it is configurable.
    grad_for_inputs: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            grad_for_inputs: false,
        }
    }

    /// Creates a tape that also accumulates gradients for [`Tape::input`]
    /// leaves (used by the gradient checker and saliency tooling).
    pub fn with_input_grads() -> Self {
        Tape {
            nodes: Vec::new(),
            grad_for_inputs: true,
        }
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> VarId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    fn needs(&self, v: VarId) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` when no
    /// gradient reached it.
    pub fn grad(&self, v: VarId) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// The [`ParamId`] a node was bound from, if it is a parameter leaf.
    pub fn param_id(&self, v: VarId) -> Option<ParamId> {
        match self.nodes[v.0].op {
            Op::Param(id) => Some(id),
            _ => None,
        }
    }

    /// Collects `(ParamId, gradient)` pairs for every parameter leaf that
    /// received a gradient — the exact shape optimizers consume.
    pub fn param_grads(&self) -> Vec<(ParamId, Matrix)> {
        self.nodes
            .iter()
            .filter_map(|n| match (&n.op, &n.grad) {
                (Op::Param(id), Some(g)) => Some((*id, g.clone())),
                _ => None,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Records a constant input leaf. Gradients flow *through* consumers
    /// of this value but are not accumulated at the leaf itself (unless
    /// the tape was built with [`Tape::with_input_grads`]).
    pub fn input(&mut self, value: Matrix) -> VarId {
        let ng = self.grad_for_inputs;
        self.push(value, Op::Input, ng)
    }

    /// Binds a trainable parameter from `params` onto the tape (copies the
    /// current value). After backward, collect its gradient with
    /// [`Tape::grad`] and feed it to an optimizer.
    pub fn param(&mut self, params: &Params, id: ParamId) -> VarId {
        self.push(params.get(id).clone(), Op::Param(id), true)
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch — tapes are built by library
    /// code with statically known layer shapes, so a mismatch is a bug.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .matmul(&self.nodes[b.0].value)
            .expect("tape matmul: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Element-wise sum of two same-shape values.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .add(&self.nodes[b.0].value)
            .expect("tape add: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Element-wise difference `a − b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .sub(&self.nodes[b.0].value)
            .expect("tape sub: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .hadamard(&self.nodes[b.0].value)
            .expect("tape hadamard: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Hadamard(a, b), ng)
    }

    /// Adds a `1 × n` bias row to every row of an `m × n` value.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let mut out = av.clone();
        for i in 0..out.rows() {
            let brow = bv.row(0).to_vec();
            for (o, b) in out.row_mut(i).iter_mut().zip(brow.iter()) {
                *o += b;
            }
        }
        let ng = self.needs(a) || self.needs(bias);
        self.push(out, Op::AddRowBroadcast(a, bias), ng)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a.0].value.scale(c);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, c), ng)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x + c);
        let ng = self.needs(a);
        self.push(v, Op::AddScalar(a), ng)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit `max(0, x)`.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: VarId, alpha: f64) -> VarId {
        let v = self.nodes[a.0]
            .value
            .map(|x| if x > 0.0 { x } else { alpha * x });
        let ng = self.needs(a);
        self.push(v, Op::LeakyRelu(a, alpha), ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(fia_linalg::vecops::sigmoid);
        let ng = self.needs(a);
        self.push(v, Op::Sigmoid(a), ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(f64::tanh);
        let ng = self.needs(a);
        self.push(v, Op::Tanh(a), ng)
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(av.rows(), av.cols());
        for i in 0..av.rows() {
            let s = fia_linalg::vecops::softmax(av.row(i));
            out.row_mut(i).copy_from_slice(&s);
        }
        let ng = self.needs(a);
        self.push(out, Op::SoftmaxRows(a), ng)
    }

    /// Natural logarithm. Values are clamped to `≥ 1e-300` before the log
    /// so a zero confidence score produced by an aggressive rounding
    /// defense degrades gracefully instead of emitting `-inf`.
    pub fn log(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x.max(1e-300).ln());
        let ng = self.needs(a);
        self.push(v, Op::Log(a), ng)
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Column means: `[m×n] → [1×n]`.
    pub fn col_mean(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let (m, n) = av.shape();
        let mut out = Matrix::zeros(1, n);
        for i in 0..m {
            for (j, &x) in av.row(i).iter().enumerate() {
                out[(0, j)] += x;
            }
        }
        for j in 0..n {
            out[(0, j)] /= m as f64;
        }
        let ng = self.needs(a);
        self.push(out, Op::ColMean(a), ng)
    }

    /// Sum of all elements; `1 × 1` output.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let s: f64 = self.nodes[a.0].value.as_slice().iter().sum();
        let ng = self.needs(a);
        self.push(Matrix::filled(1, 1, s), Op::SumAll(a), ng)
    }

    /// Mean of all elements; `1 × 1` output.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let slice = self.nodes[a.0].value.as_slice();
        let s: f64 = slice.iter().sum::<f64>() / slice.len() as f64;
        let ng = self.needs(a);
        self.push(Matrix::filled(1, 1, s), Op::MeanAll(a), ng)
    }

    /// Mean-squared-error loss `mean((pred − target)²)`; `1 × 1` output.
    pub fn mse_loss(&mut self, pred: VarId, target: VarId) -> VarId {
        let p = &self.nodes[pred.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(p.shape(), t.shape(), "mse_loss: shape mismatch");
        let n = p.as_slice().len() as f64;
        let s: f64 = p
            .as_slice()
            .iter()
            .zip(t.as_slice().iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        let ng = self.needs(pred) || self.needs(target);
        self.push(Matrix::filled(1, 1, s), Op::MseLoss(pred, target), ng)
    }

    /// Fused softmax + cross-entropy against a target distribution
    /// (one-hot or soft labels), averaged over rows; `1 × 1` output.
    pub fn cross_entropy_logits(&mut self, logits: VarId, target: VarId) -> VarId {
        let z = &self.nodes[logits.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(z.shape(), t.shape(), "cross_entropy_logits: shape mismatch");
        let (m, n) = z.shape();
        let mut soft = Matrix::zeros(m, n);
        let mut loss = 0.0;
        for i in 0..m {
            let s = fia_linalg::vecops::softmax(z.row(i));
            for (j, &p) in s.iter().enumerate() {
                loss -= t[(i, j)] * p.max(1e-300).ln();
            }
            soft.row_mut(i).copy_from_slice(&s);
        }
        loss /= m as f64;
        let ng = self.needs(logits) || self.needs(target);
        self.push(
            Matrix::filled(1, 1, loss),
            Op::CrossEntropyLogits {
                logits,
                target,
                softmax: soft,
            },
            ng,
        )
    }

    // ------------------------------------------------------------------
    // Normalization & regularization
    // ------------------------------------------------------------------

    /// Layer normalization over each row, with learnable `gamma`/`beta`
    /// (`1 × n` each): `y = gamma ⊙ (x − μ_row)/√(σ²_row + eps) + beta`.
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f64) -> VarId {
        let xv = &self.nodes[x.0].value;
        let (m, n) = xv.shape();
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        assert_eq!(gv.shape(), (1, n), "layer_norm: gamma must be 1×n");
        assert_eq!(bv.shape(), (1, n), "layer_norm: beta must be 1×n");
        let mut xhat = Matrix::zeros(m, n);
        let mut inv_std = vec![0.0; m];
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let row = xv.row(i);
            let mu = fia_linalg::vecops::mean(row);
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
            let istd = 1.0 / (var + eps).sqrt();
            inv_std[i] = istd;
            for j in 0..n {
                let h = (row[j] - mu) * istd;
                xhat[(i, j)] = h;
                out[(i, j)] = gv[(0, j)] * h + bv[(0, j)];
            }
        }
        let ng = self.needs(x) || self.needs(gamma) || self.needs(beta);
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            },
            ng,
        )
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// scales survivors by `1/(1−p)`. Call only during training; at
    /// inference simply skip the op.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: VarId, p: f64, rng: &mut R) -> VarId {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let xv = &self.nodes[x.0].value;
        let keep = 1.0 - p;
        let mask = Matrix::from_fn(xv.rows(), xv.cols(), |_, _| {
            if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = xv.hadamard(&mask).expect("same shape by construction");
        let ng = self.needs(x);
        self.push(out, Op::Dropout { x, mask }, ng)
    }

    // ------------------------------------------------------------------
    // Shape plumbing
    // ------------------------------------------------------------------

    /// Horizontal concatenation `[a | b]` of two values with equal row
    /// counts. This is how the GRN generator input `x_adv ∪ r` and the
    /// generated sample `x_adv ∪ x̂_target` are assembled.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .hstack(&self.nodes[b.0].value)
            .expect("concat_cols: row mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let av = &self.nodes[a.0].value;
        assert!(start < end && end <= av.cols(), "slice_cols: bad range");
        let cols: Vec<usize> = (start..end).collect();
        let v = av.select_columns(&cols).expect("validated range");
        let ng = self.needs(a);
        self.push(v, Op::SliceCols { x: a, start, end }, ng)
    }

    // ------------------------------------------------------------------
    // Composite helpers
    // ------------------------------------------------------------------

    /// Column-variance hinge penalty
    /// `Σ_j max(0, Var_rows(x)_j − threshold)`, the GRN regularizer that
    /// keeps generated features from diverging (Section V-A). Built from
    /// primitive ops so it needs no bespoke backward rule.
    pub fn variance_penalty(&mut self, x: VarId, threshold: f64) -> VarId {
        let mu = self.col_mean(x); // 1×n
        let neg_mu = self.scale(mu, -1.0);
        let centered = self.add_row_broadcast(x, neg_mu); // x − μ
        let sq = self.hadamard(centered, centered);
        let var = self.col_mean(sq); // 1×n column variances
        let shifted = self.add_scalar(var, -threshold);
        let hinged = self.relu(shifted);
        self.sum_all(hinged)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation seeding `d loss / d loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 × 1` scalar node.
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        self.nodes[loss.0].grad = Some(Matrix::filled(1, 1, 1.0));

        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[idx].grad.take() else {
                continue;
            };
            self.propagate(idx, &g);
            // Restore the gradient so callers can read it afterwards.
            self.nodes[idx].grad = Some(g);
        }
    }

    /// Adds `delta` into the gradient buffer of `target` if that node
    /// participates in differentiation. The first contribution moves the
    /// buffer in; later ones accumulate in place — no per-contribution
    /// allocation.
    fn accumulate(&mut self, target: VarId, delta: Matrix) {
        let node = &mut self.nodes[target.0];
        if !node.needs_grad {
            return;
        }
        match &mut node.grad {
            Some(g) => {
                debug_assert_eq!(g.shape(), delta.shape(), "gradient shape stable");
                // Dispatched axpy with α = 1 — exact (1.0·x rounds to x),
                // so gradient accumulation stays backend-independent.
                fia_linalg::vecops::axpy(1.0, delta.as_slice(), g.as_mut_slice());
            }
            None => node.grad = Some(delta),
        }
    }

    /// Like [`Tape::accumulate`] but borrows the upstream gradient,
    /// cloning only when `target` has no buffer yet. This is the fast path
    /// for pass-through ops (`Add`, `Sub`, `AddScalar`,
    /// `AddRowBroadcast`) whose local Jacobian is the identity: fan-out
    /// nodes accumulate in place instead of cloning the gradient per
    /// branch.
    fn accumulate_ref(&mut self, target: VarId, delta: &Matrix) {
        let node = &mut self.nodes[target.0];
        if !node.needs_grad {
            return;
        }
        match &mut node.grad {
            Some(g) => {
                debug_assert_eq!(g.shape(), delta.shape(), "gradient shape stable");
                fia_linalg::vecops::axpy(1.0, delta.as_slice(), g.as_mut_slice());
            }
            None => node.grad = Some(delta.clone()),
        }
    }

    fn propagate(&mut self, idx: usize, g: &Matrix) {
        // Clone the cheap metadata out of the op to avoid aliasing;
        // heavyweight saved matrices are borrowed immutably first.
        match &self.nodes[idx].op {
            Op::Input | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let bt = self.nodes[b.0].value.transpose();
                    let da = g.matmul(&bt).expect("shapes consistent");
                    self.accumulate(a, da);
                }
                if self.needs(b) {
                    let at = self.nodes[a.0].value.transpose();
                    let db = at.matmul(g).expect("shapes consistent");
                    self.accumulate(b, db);
                }
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate_ref(a, g);
                self.accumulate_ref(b, g);
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate_ref(a, g);
                if self.needs(b) {
                    self.accumulate(b, g.scale(-1.0));
                }
            }
            Op::Hadamard(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let da = g.hadamard(&self.nodes[b.0].value).expect("shape");
                    self.accumulate(a, da);
                }
                if self.needs(b) {
                    let db = g.hadamard(&self.nodes[a.0].value).expect("shape");
                    self.accumulate(b, db);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                let (a, bias) = (*a, *bias);
                self.accumulate_ref(a, g);
                if self.needs(bias) {
                    let mut db = Matrix::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        for (j, &v) in g.row(i).iter().enumerate() {
                            db[(0, j)] += v;
                        }
                    }
                    self.accumulate(bias, db);
                }
            }
            Op::Scale(a, c) => {
                let (a, c) = (*a, *c);
                self.accumulate(a, g.scale(c));
            }
            Op::AddScalar(a) => {
                let a = *a;
                self.accumulate_ref(a, g);
            }
            Op::Relu(a) => {
                let a = *a;
                let da = Matrix::from_fn(g.rows(), g.cols(), |i, j| {
                    if self.nodes[a.0].value[(i, j)] > 0.0 {
                        g[(i, j)]
                    } else {
                        0.0
                    }
                });
                self.accumulate(a, da);
            }
            Op::LeakyRelu(a, alpha) => {
                let (a, alpha) = (*a, *alpha);
                let da = Matrix::from_fn(g.rows(), g.cols(), |i, j| {
                    if self.nodes[a.0].value[(i, j)] > 0.0 {
                        g[(i, j)]
                    } else {
                        alpha * g[(i, j)]
                    }
                });
                self.accumulate(a, da);
            }
            Op::Sigmoid(a) => {
                let a = *a;
                let y = &self.nodes[idx].value;
                let da = Matrix::from_fn(g.rows(), g.cols(), |i, j| {
                    let s = y[(i, j)];
                    g[(i, j)] * s * (1.0 - s)
                });
                self.accumulate(a, da);
            }
            Op::Tanh(a) => {
                let a = *a;
                let y = &self.nodes[idx].value;
                let da = Matrix::from_fn(g.rows(), g.cols(), |i, j| {
                    let t = y[(i, j)];
                    g[(i, j)] * (1.0 - t * t)
                });
                self.accumulate(a, da);
            }
            Op::SoftmaxRows(a) => {
                let a = *a;
                let s = &self.nodes[idx].value;
                let mut da = Matrix::zeros(g.rows(), g.cols());
                for i in 0..g.rows() {
                    let dot: f64 = g
                        .row(i)
                        .iter()
                        .zip(s.row(i).iter())
                        .map(|(&gv, &sv)| gv * sv)
                        .sum();
                    for j in 0..g.cols() {
                        da[(i, j)] = s[(i, j)] * (g[(i, j)] - dot);
                    }
                }
                self.accumulate(a, da);
            }
            Op::Log(a) => {
                let a = *a;
                let x = &self.nodes[a.0].value;
                let da =
                    Matrix::from_fn(g.rows(), g.cols(), |i, j| g[(i, j)] / x[(i, j)].max(1e-300));
                self.accumulate(a, da);
            }
            Op::ColMean(a) => {
                let a = *a;
                let m = self.nodes[a.0].value.rows();
                let scale = 1.0 / m as f64;
                let da = Matrix::from_fn(m, g.cols(), |_, j| g[(0, j)] * scale);
                self.accumulate(a, da);
            }
            Op::SumAll(a) => {
                let a = *a;
                let (m, n) = self.nodes[a.0].value.shape();
                let da = Matrix::filled(m, n, g[(0, 0)]);
                self.accumulate(a, da);
            }
            Op::MeanAll(a) => {
                let a = *a;
                let (m, n) = self.nodes[a.0].value.shape();
                let da = Matrix::filled(m, n, g[(0, 0)] / (m * n) as f64);
                self.accumulate(a, da);
            }
            Op::MseLoss(p, t) => {
                let (p, t) = (*p, *t);
                let n = self.nodes[p.0].value.as_slice().len() as f64;
                let coeff = 2.0 * g[(0, 0)] / n;
                let diff = {
                    let pv = &self.nodes[p.0].value;
                    let tv = &self.nodes[t.0].value;
                    pv.sub(tv).expect("mse shapes equal").scale(coeff)
                };
                if self.needs(p) {
                    self.accumulate(p, diff.clone());
                }
                if self.needs(t) {
                    self.accumulate(t, diff.scale(-1.0));
                }
            }
            Op::CrossEntropyLogits {
                logits,
                target,
                softmax,
            } => {
                let (logits, target) = (*logits, *target);
                let soft = softmax.clone();
                let tv = self.nodes[target.0].value.clone();
                let m = soft.rows() as f64;
                let coeff = g[(0, 0)] / m;
                if self.needs(logits) {
                    // For soft targets with Σ_j t_ij = s_i,
                    // dL/dz_ij = (s_i · softmax_ij − t_ij) / m.
                    let mut dz = Matrix::zeros(soft.rows(), soft.cols());
                    for i in 0..soft.rows() {
                        let tsum: f64 = tv.row(i).iter().sum();
                        for j in 0..soft.cols() {
                            dz[(i, j)] = coeff * (tsum * soft[(i, j)] - tv[(i, j)]);
                        }
                    }
                    self.accumulate(logits, dz);
                }
                if self.needs(target) {
                    let dt = Matrix::from_fn(soft.rows(), soft.cols(), |i, j| {
                        -coeff * soft[(i, j)].max(1e-300).ln()
                    });
                    self.accumulate(target, dt);
                }
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            } => {
                let (x, gamma, beta) = (*x, *gamma, *beta);
                let xhat = xhat.clone();
                let inv_std = inv_std.clone();
                let gv = self.nodes[gamma.0].value.clone();
                let (m, n) = xhat.shape();
                if self.needs(gamma) {
                    let mut dg = Matrix::zeros(1, n);
                    for i in 0..m {
                        for j in 0..n {
                            dg[(0, j)] += g[(i, j)] * xhat[(i, j)];
                        }
                    }
                    self.accumulate(gamma, dg);
                }
                if self.needs(beta) {
                    let mut db = Matrix::zeros(1, n);
                    for i in 0..m {
                        for j in 0..n {
                            db[(0, j)] += g[(i, j)];
                        }
                    }
                    self.accumulate(beta, db);
                }
                if self.needs(x) {
                    // Standard LayerNorm backward:
                    // dx̂ = g ⊙ γ;
                    // dx = (dx̂ − mean(dx̂) − x̂ ⊙ mean(dx̂ ⊙ x̂)) · invσ
                    let mut dx = Matrix::zeros(m, n);
                    for i in 0..m {
                        let mut sum_dxhat = 0.0;
                        let mut sum_dxhat_xhat = 0.0;
                        for j in 0..n {
                            let dxh = g[(i, j)] * gv[(0, j)];
                            sum_dxhat += dxh;
                            sum_dxhat_xhat += dxh * xhat[(i, j)];
                        }
                        let mean_dxhat = sum_dxhat / n as f64;
                        let mean_dxhat_xhat = sum_dxhat_xhat / n as f64;
                        for j in 0..n {
                            let dxh = g[(i, j)] * gv[(0, j)];
                            dx[(i, j)] =
                                (dxh - mean_dxhat - xhat[(i, j)] * mean_dxhat_xhat) * inv_std[i];
                        }
                    }
                    self.accumulate(x, dx);
                }
            }
            Op::Dropout { x, mask } => {
                let x = *x;
                let da = g.hadamard(mask).expect("mask shape matches");
                self.accumulate(x, da);
            }
            Op::ConcatCols(a, b) => {
                let (a, b) = (*a, *b);
                let ac = self.nodes[a.0].value.cols();
                if self.needs(a) {
                    let cols: Vec<usize> = (0..ac).collect();
                    let da = g.select_columns(&cols).expect("in range");
                    self.accumulate(a, da);
                }
                if self.needs(b) {
                    let cols: Vec<usize> = (ac..g.cols()).collect();
                    let db = g.select_columns(&cols).expect("in range");
                    self.accumulate(b, db);
                }
            }
            Op::SliceCols { x, start, end } => {
                let (x, start, end) = (*x, *start, *end);
                let xv = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                for i in 0..g.rows() {
                    for (off, j) in (start..end).enumerate() {
                        dx[(i, j)] = g[(i, off)];
                    }
                }
                self.accumulate(x, dx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn scalar(tape: &Tape, v: VarId) -> f64 {
        tape.value(v)[(0, 0)]
    }

    #[test]
    fn matmul_gradients() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap());
        let wv = tape.param(&params, w);
        let y = tape.matmul(x, wv); // [1×2]
        let loss = tape.sum_all(y);
        tape.backward(loss);
        // y = [1·1 + (−1)·3, 1·2 + (−1)·4] = [−2, −2]; dL/dW = xᵀ·1 = [[1,1],[−1,−1]]
        assert_eq!(scalar(&tape, loss), -4.0);
        let gw = tape.grad(wv).unwrap();
        assert_eq!(gw.as_slice(), &[1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn input_gets_no_grad_by_default() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::filled(1, 2, 2.0));
        let s = tape.sum_all(x);
        tape.backward(s);
        assert!(tape.grad(x).is_none());
    }

    #[test]
    fn input_grads_when_enabled() {
        let mut tape = Tape::with_input_grads();
        let x = tape.input(Matrix::filled(2, 2, 3.0));
        let s = tape.mean_all(x);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        assert!(g.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-15));
    }

    #[test]
    fn sigmoid_grad_matches_closed_form() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 0.3));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.sigmoid(wv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let s = fia_linalg::vecops::sigmoid(0.3);
        let expect = s * (1.0 - s);
        assert!((tape.grad(wv).unwrap()[(0, 0)] - expect).abs() < 1e-12);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let mut params = Params::new();
        let p = params.insert(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        let mut tape = Tape::new();
        let pv = tape.param(&params, p);
        let t = tape.input(Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap());
        let loss = tape.mse_loss(pv, t);
        tape.backward(loss);
        assert!((scalar(&tape, loss) - 2.5).abs() < 1e-12); // (1 + 4)/2
        let g = tape.grad(pv).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 2.0]); // 2(p−t)/2
    }

    #[test]
    fn cross_entropy_grad_is_softmax_minus_onehot() {
        let mut params = Params::new();
        let z = params.insert(Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap());
        let mut tape = Tape::new();
        let zv = tape.param(&params, z);
        let t = tape.input(Matrix::from_rows(&[vec![0.0, 1.0, 0.0]]).unwrap());
        let loss = tape.cross_entropy_logits(zv, t);
        tape.backward(loss);
        let s = fia_linalg::vecops::softmax(&[1.0, 2.0, 3.0]);
        let g = tape.grad(zv).unwrap();
        assert!((g[(0, 0)] - s[0]).abs() < 1e-12);
        assert!((g[(0, 1)] - (s[1] - 1.0)).abs() < 1e-12);
        assert!((g[(0, 2)] - s[2]).abs() < 1e-12);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![5.0, 1.0], vec![-2.0, 4.0]]).unwrap());
        let s = tape.softmax_rows(x);
        for i in 0..2 {
            let sum: f64 = tape.value(s).row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn concat_and_slice_roundtrip_grads() {
        let mut params = Params::new();
        let a = params.insert(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        let b = params.insert(Matrix::from_rows(&[vec![3.0]]).unwrap());
        let mut tape = Tape::new();
        let av = tape.param(&params, a);
        let bv = tape.param(&params, b);
        let cat = tape.concat_cols(av, bv); // [1×3]
        assert_eq!(tape.value(cat).as_slice(), &[1.0, 2.0, 3.0]);
        // Take only the b-slice so a receives zero gradient via slice.
        let sl = tape.slice_cols(cat, 2, 3);
        let loss = tape.sum_all(sl);
        tape.backward(loss);
        assert_eq!(tape.grad(bv).unwrap()[(0, 0)], 1.0);
        let ga = tape.grad(av).unwrap();
        assert_eq!(ga.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn add_row_broadcast_bias_grad_is_column_sum() {
        let mut params = Params::new();
        let b = params.insert(Matrix::from_rows(&[vec![0.5, -0.5]]).unwrap());
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_fn(3, 2, |i, j| (i + j) as f64));
        let bv = tape.param(&params, b);
        let y = tape.add_row_broadcast(x, bv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let g = tape.grad(bv).unwrap();
        assert_eq!(g.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![-1.0, 2.0]]).unwrap());
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.relu(wv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(wv).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::filled(50, 50, 1.0));
        let y = tape.dropout(x, 0.5, &mut rng);
        let vals = tape.value(y).as_slice();
        // Survivors are exactly 2.0; dropped are 0.0.
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));
        let survivors = vals.iter().filter(|&&v| v > 0.0).count();
        let frac = survivors as f64 / vals.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "keep fraction {frac}");
    }

    #[test]
    fn layer_norm_rows_are_standardized() {
        let mut params = Params::new();
        let gamma = params.insert(Matrix::filled(1, 4, 1.0));
        let beta = params.insert(Matrix::zeros(1, 4));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]).unwrap());
        let gv = tape.param(&params, gamma);
        let bv = tape.param(&params, beta);
        let y = tape.layer_norm(x, gv, bv, 1e-5);
        let row = tape.value(y).row(0);
        let mean: f64 = row.iter().sum::<f64>() / 4.0;
        let var: f64 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-10);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn variance_penalty_zero_below_threshold() {
        let mut tape = Tape::with_input_grads();
        // Constant columns → zero variance → zero penalty.
        let x = tape.input(Matrix::filled(5, 3, 0.7));
        let pen = tape.variance_penalty(x, 0.1);
        assert_eq!(scalar(&tape, pen), 0.0);
    }

    #[test]
    fn variance_penalty_positive_above_threshold() {
        let mut tape = Tape::with_input_grads();
        let x = tape.input(Matrix::from_rows(&[vec![0.0], vec![10.0]]).unwrap());
        // var = 25; threshold 1 → penalty 24.
        let pen = tape.variance_penalty(x, 1.0);
        assert!((scalar(&tape, pen) - 24.0).abs() < 1e-10);
        tape.backward(pen);
        let g = tape.grad(x).unwrap();
        // Gradient pushes the two entries toward each other.
        assert!(g[(0, 0)] < 0.0 && g[(1, 0)] > 0.0);
    }

    #[test]
    fn scale_add_scalar_chain() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 4.0));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.scale(wv, 3.0);
        let z = tape.add_scalar(y, 1.0);
        let loss = tape.sum_all(z);
        tape.backward(loss);
        assert_eq!(scalar(&tape, loss), 13.0);
        assert_eq!(tape.grad(wv).unwrap()[(0, 0)], 3.0);
    }

    #[test]
    fn grad_accumulates_over_shared_subexpression() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.add(wv, wv); // y = 2w
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(wv).unwrap()[(0, 0)], 2.0);
    }

    #[test]
    fn tanh_and_leaky_relu_grads() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![0.5, -0.5]]).unwrap());
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let t = tape.tanh(wv);
        let l = tape.leaky_relu(t, 0.1);
        let loss = tape.sum_all(l);
        tape.backward(loss);
        let g = tape.grad(wv).unwrap();
        let th = 0.5f64.tanh();
        // Positive branch: d/dw tanh(w) = 1 − tanh².
        assert!((g[(0, 0)] - (1.0 - th * th)).abs() < 1e-12);
        // Negative branch picks up the 0.1 slope.
        assert!((g[(0, 1)] - 0.1 * (1.0 - th * th)).abs() < 1e-12);
    }
}
