"""Dense-tensor engine with reverse-mode differentiation.

Every model in this package is built from the small op set below: conv2d,
batchnorm2d, relu/sigmoid, pooling, linear, and a numerically stable
binary-cross-entropy-with-logits loss.  Ops execute eagerly on numpy arrays;
when a ``Tape`` is active on the current thread, each op appends a record
(inputs, output, backward rule) in execution order, which is a topological
order by construction.  ``backward`` replays the tape in reverse,
accumulates gradients into leaf tensors and consumes the tape: each record
is dropped once its backward rule has run, so a training step's
activations are freed by reference counting before the step ends.

The convolution keeps NCHW throughout.  It multiplies the weight with a
tap-major column matrix built one sample at a time from strided views of
the padded input (a memory-efficient im2col, after Cho & Brand,
arXiv:1706.06873); no column matrix outlives the call, and backward
rebuilds the columns from the saved padded input.  Batchnorm in eval mode
is one per-channel scale and shift.

Precision is parametric: arrays keep whatever float dtype they were created
with.  Training uses float32 by default; gradient-check tests run the same
ops in float64.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    """A dense n-dimensional array with an optional gradient.

    ``grad`` is lazily allocated by ``backward`` and accumulates across calls;
    callers zero it explicitly (``zero_grad``) between optimization steps.
    Gradients are only retained on leaf tensors (parameters and inputs created
    with ``requires_grad=True``); intermediate op outputs stream their
    gradients through the tape without storing them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_record")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOAT_TYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._record: Optional["OpRecord"] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


@dataclass
class OpRecord:
    """One recorded operation: output, inputs and its backward rule."""

    name: str
    output: Tensor
    inputs: tuple
    vjp: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]
    index: int
    tape: "Tape" = None


class Tape:
    """Ordered record of operations for one forward pass.

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = bce_with_logits(model_forward(x), y)
        backward(loss)

    Records are appended in execution order, so every op's inputs precede it
    (topological order).  A tape belongs to the thread that records on it.
    """

    def __init__(self):
        self.records: list[OpRecord] = []

    def append(self, name, output, inputs, vjp) -> None:
        rec = OpRecord(name, output, tuple(inputs), vjp, len(self.records), self)
        output._record = rec
        self.records.append(rec)

    def clear(self) -> None:
        for rec in self.records:
            rec.output._record = None
        self.records.clear()

    def __enter__(self) -> "Tape":
        _push_tape(self)
        return self

    def __exit__(self, *exc) -> None:
        _pop_tape(self)

    def __len__(self) -> int:
        return len(self.records)


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _push_tape(tape: Tape) -> None:
    _tape_stack().append(tape)


def _pop_tape(tape: Tape) -> None:
    stack = _tape_stack()
    if not stack or stack[-1] is not tape:
        raise RuntimeError("tape exited out of order")
    stack.pop()


def active_tape() -> Optional[Tape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def record(name: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Wrap op output in a Tensor, recording on the active tape if needed.

    ``vjp`` maps the output gradient to one gradient per input (None for
    inputs that do not require grad).  Recording happens only when a tape is
    active and at least one input requires grad, so eval-mode forwards build
    no graph.
    """
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.append(name, out, inputs, vjp)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be scalar (size 1).  Repeated calls accumulate into leaf
    gradients; callers zero them explicitly.  Each tape record is visited at
    most once per call.

    The loss's tape is consumed: it is cleared first, and each record is
    dropped once its vjp has run, which frees what the vjp saved.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._record is None:
        if loss.requires_grad:
            _accumulate(loss, np.ones_like(loss.data))
            return
        raise ValueError("loss is not connected to a tape (no recorded operations)")
    tape = loss._record.tape
    records = tape.records[: loss._record.index + 1]
    produced = {id(rec.output) for rec in records}
    tape.clear()
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while records:
        rec = records.pop()
        gout = flows.pop(id(rec.output), None)
        if gout is None:
            continue
        for tin, g in zip(rec.inputs, rec.vjp(gout)):
            if g is None:
                continue
            key = id(tin)
            if key in produced:
                flows[key] = flows[key] + g if key in flows else g
            elif tin.requires_grad:
                _accumulate(tin, g)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g.astype(t.data.dtype, copy=False)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _as_pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """a[N,C,H,W] with ph zero rows and pw zero columns on each side."""
    if not (ph or pw):
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D cross-correlation of x[N,C,H,W] with weight[O,C,kh,kw].

    Output extents follow floor((H + 2p - k)/s) + 1.  No kernel flip.

    One sample at a time, the padded input is copied tap by tap into a
    column matrix of shape (kh*kw*C, Ho*Wo): row ``t*C + c`` holds channel c
    as seen by kernel tap t = i*kw + j, read from a strided view of the
    padded plane.  One GEMM with the tap-major weight matrix (O, kh*kw*C)
    gives that sample's NCHW output.  The column buffer lives for one call
    only: backward keeps the padded input and rebuilds the columns, gets the
    weight gradient by one GEMM per sample and scatters the column gradient
    back into the input tap by tap.
    """
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    if sh < 1 or sw < 1:
        raise ValueError(f"strides must be >= 1, got {(sh, sw)}")
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and weight, got {x.shape} and {weight.shape}")
    n, c, h, w = x.shape
    co, ci, kh, kw = weight.shape
    if ci != c:
        raise ValueError(
            f"conv2d channel mismatch: input shape {x.shape} has {c} channels, "
            f"weight shape {weight.shape} expects {ci}")
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ValueError(
            f"kernel {(kh, kw)} exceeds padded input extents {(h + 2 * ph, w + 2 * pw)}")
    if bias is not None and bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} does not match {co} output channels")

    dtype = np.result_type(x.data, weight.data)
    xp = _pad(x.data, ph, pw)
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    taps = [(slice(i, i + sh * (ho - 1) + 1, sh), slice(j, j + sw * (wo - 1) + 1, sw))
            for i in range(kh) for j in range(kw)]
    wmat = weight.data.transpose(0, 2, 3, 1).reshape(co, kh * kw * c)

    def columns(s: int, cols: np.ndarray) -> np.ndarray:
        planes = cols.reshape(kh * kw, c, ho, wo)
        for t, (rows, cs) in enumerate(taps):
            planes[t] = xp[s, :, rows, cs]
        return cols

    cols = np.empty((kh * kw * c, ho * wo), dtype=dtype)
    out = np.empty((n, co, ho * wo), dtype=dtype)
    for s in range(n):
        np.matmul(wmat, columns(s, cols), out=out[s])
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(n, co, ho, wo)

    inputs = [x, weight] if bias is None else [x, weight, bias]

    def vjp(gout: np.ndarray):
        g = gout.reshape(n, co, ho * wo)
        gx = gw = gb = None
        cols = np.empty((kh * kw * c, ho * wo), dtype=dtype)
        planes = cols.reshape(kh * kw, c, ho, wo)
        gwmat = np.zeros(wmat.shape, dtype=dtype) if weight.requires_grad else None
        gxp = np.zeros(xp.shape, dtype=dtype) if x.requires_grad else None
        for s in range(n):
            if gwmat is not None:
                gwmat += g[s] @ columns(s, cols).T
            if gxp is not None:
                np.matmul(wmat.T, g[s], out=cols)
                for t, (rows, cs) in enumerate(taps):
                    gxp[s, :, rows, cs] += planes[t]
        if gwmat is not None:
            gw = np.ascontiguousarray(gwmat.reshape(co, kh, kw, c).transpose(0, 3, 1, 2))
        if gxp is not None:
            gx = gxp[:, :, ph:ph + h, pw:pw + w]
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(0, 2))
        if bias is None:
            return gx, gw
        return gx, gw, gb

    return record("conv2d", out, inputs, vjp)


BN_MOMENTUM = 0.1


@dataclass
class BatchNormState:
    """Per-channel running statistics for batchnorm2d.

    One update rule: the first update after construction or ``reset``
    copies the batch statistics, and every later one moves them by an
    exponential moving average with momentum ``BN_MOMENTUM``.  The SWA
    refresh (``training.refresh_bn_statistics``) resets the state before
    each batch and averages the copies itself.
    """

    mean: Optional[np.ndarray] = None
    var: Optional[np.ndarray] = None
    initialized: bool = False

    @classmethod
    def identity(cls, channels: int, dtype=DEFAULT_DTYPE) -> "BatchNormState":
        return cls(mean=np.zeros(channels, dtype=dtype),
                   var=np.ones(channels, dtype=dtype), initialized=True)

    def reset(self) -> None:
        self.mean = None
        self.var = None
        self.initialized = False

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        if not self.initialized:
            self.mean = batch_mean.copy()
            self.var = batch_var.copy()
            self.initialized = True
            return
        m = BN_MOMENTUM
        self.mean = (1.0 - m) * self.mean + m * batch_mean
        self.var = (1.0 - m) * self.var + m * batch_var


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                eps: float = 1e-5, mode: str = "train") -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes by biased batch statistics and hands them to
    ``state.update`` (a copy on the first update, an EMA after that): one
    centred copy of x gives the variance and, scaled in place, ``xhat``,
    which backward keeps.  Eval mode uses the running statistics, folded
    into one per-channel scale ``gamma / sqrt(var + eps)`` and shift
    ``beta - mean * scale``, and fails loudly when they were never
    populated.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ValueError(f"batchnorm2d expects a 4-D input, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batchnorm mode {mode!r}")

    m = x.size // c  # values per channel
    if mode == "eval":
        if not state.initialized:
            raise ValueError("batchnorm eval requested but running statistics were never populated")
        mean, xhat = state.mean, None  # backward rebuilds xhat if it needs it
        inv_std = 1.0 / np.sqrt(state.var + eps)
    else:
        mean = np.einsum("nchw->c", x.data) / m
        xhat = x.data - mean[:, None, None]
        var = np.einsum("nchw,nchw->c", xhat, xhat) / m
        state.update(mean, var)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[:, None, None]
    scale = gamma.data * inv_std
    if xhat is None:
        out = x.data * scale[:, None, None]
        out += (beta.data - mean * scale)[:, None, None]
    else:
        out = xhat * gamma.data[:, None, None]
        out += beta.data[:, None, None]

    def vjp(gout: np.ndarray):
        xh = xhat if xhat is not None else (x.data - mean[:, None, None]) * inv_std[:, None, None]
        gg = np.einsum("nchw,nchw->c", gout, xh)
        gb = np.einsum("nchw->c", gout)
        gx = None
        if x.requires_grad and mode == "eval":
            gx = gout * scale[:, None, None]
        elif x.requires_grad:
            # gamma * inv_std * (gout - mean(gout) - xhat * mean(gout * xhat))
            gx = xh * (-gg / m)[:, None, None]
            gx += gout
            gx -= (gb / m)[:, None, None]
            gx *= scale[:, None, None]
        return (gx, gg if gamma.requires_grad else None,
                gb if beta.requires_grad else None)

    return record("batchnorm2d", out, [x, gamma, beta], vjp)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)
    mask = x.data > 0

    def vjp(gout):
        return (gout * mask,) if x.requires_grad else (None,)

    return record("relu", out, [x], vjp)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow of exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def vjp(gout):
        return (gout * out * (1.0 - out),) if x.requires_grad else (None,)

    return record("sigmoid", out, [x], vjp)


def pool2d(x: Tensor, kind: str, kernel=None, stride=None) -> Tensor:
    """Window pooling: max / avg over (kh, kw) windows, or global average.

    ``global_avg`` reduces H, W to 1, 1 and ignores kernel/stride.
    """
    if x.ndim != 4:
        raise ValueError(f"pool2d expects a 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    if kind == "global_avg":
        out = x.data.mean(axis=(2, 3), keepdims=True)

        def vjp_g(gout):
            if not x.requires_grad:
                return (None,)
            return (np.broadcast_to(gout / (h * w), x.shape).astype(x.dtype, copy=True),)

        return record("global_avg_pool", out, [x], vjp_g)

    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pool kind {kind!r}")
    if kernel is None:
        raise ValueError("max/avg pooling requires a kernel")
    kh, kw = _as_pair(kernel)
    sh, sw = _as_pair(stride if stride is not None else kernel)
    if kh > h or kw > w:
        raise ValueError(f"pool kernel {(kh, kw)} exceeds input extents {(h, w)}")

    win = sliding_window_view(x.data, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    ho, wo = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, ho, wo, kh * kw)

    def scatter(taps):
        """Input gradient from one [n, c, ho, wo] gradient per window tap, row-major."""
        gx = np.zeros_like(x.data)
        for (i, j), g in zip(np.ndindex(kh, kw), taps):
            gx[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += g
        return gx

    if kind == "avg":
        out = flat.mean(axis=4)

        def vjp_a(gout):
            return (scatter([gout / (kh * kw)] * (kh * kw)),) if x.requires_grad else (None,)

        return record("avg_pool", out, [x], vjp_a)

    amax = flat.argmax(axis=4)
    out = np.take_along_axis(flat, amax[..., None], axis=4)[..., 0]

    def vjp_m(gout):
        """Each tap takes ``gout`` where it is its window's argmax."""
        if not x.requires_grad:
            return (None,)
        return (scatter(np.where(amax == t, gout, 0) for t in range(kh * kw)),)

    return record("max_pool", out, [x], vjp_m)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x[N,F] @ weight[F,O] + bias[O]."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear expects 2-D input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ValueError(
            f"linear extent mismatch: input {x.shape} vs weight {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[1],):
        raise ValueError(f"bias shape {bias.shape} does not match {weight.shape[1]} outputs")
    out = x.data @ weight.data
    if bias is not None:
        out = out + bias.data

    inputs = [x, weight] if bias is None else [x, weight, bias]

    def vjp(gout):
        gx = gout @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ gout if weight.requires_grad else None
        if bias is None:
            return gx, gw
        gb = gout.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return record("linear", out, inputs, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def vjp(gout):
        return (gout if a.requires_grad else None,
                gout if b.requires_grad else None)

    return record("add", out, [a, b], vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = a.data * b.data

    def vjp(gout):
        return (gout * b.data if a.requires_grad else None,
                gout * a.data if b.requires_grad else None)

    return record("mul", out, [a, b], vjp)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def vjp(gout):
        if not x.requires_grad:
            return (None,)
        return (np.broadcast_to(gout, x.shape).astype(x.dtype, copy=True),)

    return record("sum_all", out, [x], vjp)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def vjp(gout):
        return (gout.reshape(x.shape),) if x.requires_grad else (None,)

    return record("reshape", out, [x], vjp)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross entropy over all cells, stable log-sum-exp form.

    Targets may be soft (mixup mixes label vectors) but must lie in [0, 1].
    """
    if logits.shape != targets.shape:
        raise ValueError(f"bce shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    y = targets.data
    if np.any(y < 0) or np.any(y > 1):
        bad = y[(y < 0) | (y > 1)].reshape(-1)[0]
        raise ValueError(f"targets must lie in [0, 1], found {bad}")
    z = logits.data
    # max(z,0) - z*y + log(1 + exp(-|z|))
    losses = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(losses.mean(), dtype=z.dtype)

    def vjp(gout):
        if not logits.requires_grad:
            return None, None
        g = (_sigmoid(z) - y) / z.size
        return g * gout, None

    return record("bce_with_logits", out, [logits, targets], vjp)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment estimates per named parameter plus step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> AdamState:
    """One Adam update with bias correction, applied in place to params.

    ``params`` maps names to Tensors, ``grads`` maps the same names to
    gradient arrays.  Parameters without a gradient entry are skipped.
    The moment decays are 0.9 and 0.999, and eps is 1e-8.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype, copy=False)
    return state
