"""Dense-tensor engine with reverse-mode differentiation.

Every model in this package is built from the small op set below: conv2d,
batchnorm2d, relu/sigmoid, pooling, linear, and a numerically stable
binary-cross-entropy-with-logits loss.  Ops execute eagerly on numpy arrays;
while a ``Tape`` is active, each op appends a record (inputs, output,
backward rule) in execution order, which is a topological order by
construction.  ``backward`` replays the tape in reverse,
accumulates gradients into leaf tensors and consumes the tape: each record
is dropped once its backward rule has run, so a training step's
activations are freed by reference counting before the step ends.

Forward ops do only forward work, on one code path for training and
eval: what backward needs beyond the op's inputs and output is rebuilt by
its vjp.  The convolution keeps NCHW throughout.  It multiplies the weight
with a tap-major column matrix built one band of output rows and one sample
at a time in one buffer per call, each tap copying the part of the unpadded
input it reads, so zero padding is read in place and never copied (a
memory-efficient im2col, after Cho & Brand, arXiv:1706.06873).  With
``freq_coord`` it reads a frequency-coordinate plane as one more input
channel (CoordConv, arXiv:1807.03247) whose column rows it writes once per
band, so the plane is never materialized as an input.  No column matrix
outlives the call, and backward rebuilds the columns from the input itself.
Max pool combines strided tap views with ``np.maximum`` and relu keeps no
mask.  Batchnorm is one per-channel scale and shift in both modes; only the
source of its statistics differs, and backward rebuilds the normalized
input from x.

``batchnorm2d``, ``relu`` and ``add`` take ``out=``, an array to write the
result into, so a forward need not allocate a copy per op.  With nothing
recording, any array of x's shape and dtype will do (a fresh conv output,
say).  A tape keeps every record's output until backward, so under one
``out=`` must be the output of the tape's last record, which no recorded op
has read yet, and that record must be an op whose vjp never reads its
output (``_OVERWRITABLE``).  Batch norm's vjp reads its input, so it refuses
``out=`` whenever it would record.  This keeps an activation once on the
tape: relu writes over its batch norm's output, as In-Place Activated
BatchNorm does (Rota Bulò et al., arXiv:1712.02616).

Precision is parametric: arrays keep whatever float dtype they were created
with.  Training uses float32 by default; gradient-check tests run the same
ops in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

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

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
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
    (topological order).  Tapes nest: the innermost open tape records, and
    tapes must exit in the reverse order of entry.
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
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _TAPES or _TAPES[-1] is not self:
            raise RuntimeError("tape exited out of order")
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self.records)


_TAPES: list[Tape] = []  # open tapes, innermost last


def active_tape() -> Optional[Tape]:
    return _TAPES[-1] if _TAPES else None


def record(name: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Wrap op output in a Tensor, recording on the active tape if needed.

    ``vjp`` maps the output gradient to one gradient per input (None for
    inputs that do not require grad).  Recording happens only when a tape is
    active and at least one input requires grad, so eval-mode forwards build
    no graph.
    """
    needs = _records(inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        active_tape().append(name, out, inputs, vjp)
    return out


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` would be recorded on the active tape."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


_OVERWRITABLE = frozenset({"batchnorm2d", "shake_combine", "add"})
"""Record names of the ops whose vjps never read their output, so that a
later op may write over it.  Not relu (its vjp reads its output), nor the
pools or sigmoid."""


def _check_out(name: str, out: Optional[np.ndarray], x: Tensor, inputs: Sequence[Tensor],
               reads_x: bool = False) -> None:
    """``out=`` must match x in shape and dtype.  When the op would record,
    ``out`` must also be x's data, x the output of the tape's last record
    (so no recorded op has read it) and that record an ``_OVERWRITABLE`` op;
    an op whose own vjp reads x passes ``reads_x`` and refuses ``out=``
    whenever it would record."""
    if out is None:
        return
    if _records(inputs):
        last = active_tape().records[-1:]
        if reads_x or not (last and x._record is last[0] and last[0].name in _OVERWRITABLE
                           and x.data is out):
            unless = "" if reads_x else (
                f", except over x when x is the output of the tape's last record "
                f"and that is one of {', '.join(sorted(_OVERWRITABLE))}")
            raise ValueError(f"{name} cannot write in place (out=) while a tape records it"
                             + unless)
    if out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(f"{name} out= must be a {x.dtype} array of shape {x.shape}, "
                         f"got {out.dtype} {out.shape}")


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


def _span(k: int, s: int, p: int, n_in: int, n_out: int, first: int = 0):
    """Where kernel offset k reads along one axis, as (output slice, input slice).

    Output a reads input cell k + s*a - p.  The slices cover exactly the
    outputs in [first, n_out) whose read lands inside the unpadded input,
    counted from ``first``; None when every read lands in padding.
    """
    lo = max(first, -((k - p) // s))                # first a with k + s*a >= p
    hi = min(n_out, (n_in - 1 + p - k) // s + 1)    # one past the last a with k + s*a - p < n_in
    if lo >= hi:
        return None
    start = k + s * lo - p
    return slice(lo - first, hi - first), slice(start, start + s * (hi - lo - 1) + 1, s)


def _taps(kernel: tuple, stride: tuple, padding: tuple, extents: tuple, out_extents: tuple,
          first_row: int = 0) -> list:
    """The taps t = i*kw + j that read at least one input cell for output
    rows [first_row, out_extents[0]), in row-major order, each as
    (t, out_rows, out_cols, in_rows, in_cols) with out_rows counted from
    ``first_row``."""
    rows = [_span(i, stride[0], padding[0], extents[0], out_extents[0], first_row)
            for i in range(kernel[0])]
    cols = [_span(j, stride[1], padding[1], extents[1], out_extents[1]) for j in range(kernel[1])]
    return [(i * kernel[1] + j, r[0], c[0], r[1], c[1])
            for i, r in enumerate(rows) if r for j, c in enumerate(cols) if c]


_BAND_BYTES = 8 << 20
"""Bytes of column matrix one conv2d band may hold (at least one output row).

A whole column matrix is kh*kw*C times the input plane: 39 MB per sample
for the 3x3 conv at 32 (+1) channels on 128 x 256 cells, the widest of a
512-frame window.  8 MiB splits that one into five bands and keeps the 1x3
convs of the last stages (6.3 MB at 257 channels on 32 x 64) in one; on a
5-member tagging job, budgets of 1-6 MiB, which split those too, read 12 MB
more peak RSS.  The bands of a split matrix hold at least half the budget
each, so each product stays above the size (about a million multiply-adds) below which OpenBLAS
takes a small-matrix kernel that rounds differently; on OpenBLAS 0.3.31
(Skylake-X kernels) banded and whole-matrix outputs are bit-identical."""


def _bands(rows: int, row_bytes: int) -> list:
    """Output-row bands [lo, hi) of one conv2d call: as few as keep each band
    within ``_BAND_BYTES``, sizes differing by at most one row, larger first."""
    count = -(-rows // max(1, _BAND_BYTES // row_bytes))
    return [(-(-b * rows // count), -(-(b + 1) * rows // count)) for b in range(count)]


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=(1, 1), padding=(0, 0), freq_coord: bool = False) -> Tensor:
    """2-D cross-correlation of x[N,C,H,W] with weight[O,C,kh,kw].

    Output extents follow floor((H + 2p - k)/s) + 1.  No kernel flip.

    With ``freq_coord`` the input has one channel fewer than the weight: the
    last input channel is the frequency coordinate plane, h/(H-1) at row h
    (0 when H == 1), which is never materialized as an input channel.  The
    result is bit for bit that of the weight applied to the input with that
    plane appended (``models.fa_channel``).

    The input is copied tap by tap into a column matrix of shape
    (kh*kw*C, rows*Wo): row ``t*C + c`` holds channel c as seen by kernel
    tap t = i*kw + j.  The output rows are split into bands of at most
    ``_BAND_BYTES`` of columns, and one buffer per call holds a band.  Per
    band the buffer is zeroed and the coordinate plane's rows are written
    once; then, one sample at a time, each tap copies only the
    sub-rectangle of the unpadded input that it reads (the cells it reads
    from padding stay zero, and a tap that lies wholly in padding copies
    nothing), and one GEMM with the tap-major weight matrix (O, kh*kw*C)
    writes that sample's band of the NCHW output.

    No padded copy of the input is made and no column matrix outlives the
    call: backward keeps the input itself and rebuilds the columns for the
    weight gradient in one full-extent band, one GEMM per sample, so the
    weight gradient sums in the same order at any band size.  It scatters
    the column gradient, held in a second buffer so the zero cells survive,
    straight into an array shaped like the input.
    """
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    if sh < 1 or sw < 1:
        raise ValueError(f"strides must be >= 1, got {(sh, sw)}")
    if ph < 0 or pw < 0:
        raise ValueError(f"padding must be >= 0, got {(ph, pw)}")
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and weight, got {x.shape} and {weight.shape}")
    n, c, h, w = x.shape
    co, ci, kh, kw = weight.shape
    if kh < 1 or kw < 1:
        raise ValueError(f"conv2d kernel extents must be >= 1, got weight shape {weight.shape}")
    if ci != c + freq_coord:
        raise ValueError(
            f"conv2d channel mismatch: input shape {x.shape} has {c} channels"
            f"{' plus the frequency coordinate' if freq_coord else ''}, "
            f"weight shape {weight.shape} expects {ci}")
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ValueError(
            f"kernel {(kh, kw)} exceeds padded input extents {(h + 2 * ph, w + 2 * pw)}")
    if bias is not None and bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} does not match {co} output channels")

    dtype = np.result_type(x.data, weight.data)
    xd = x.data
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    depth = kh * kw * ci  # rows of the column matrix
    wmat = weight.data.transpose(0, 2, 3, 1).reshape(co, depth)
    coord = None
    if freq_coord:
        coord = (np.arange(h, dtype=xd.dtype) / (h - 1) if h > 1
                 else np.zeros(1, dtype=xd.dtype))[:, None]

    def taps(lo: int, hi: int) -> list:
        return _taps((kh, kw), (sh, sw), (ph, pw), (h, w), (hi, wo), lo)

    def coordinates(cols: np.ndarray, band: list) -> None:
        planes = cols.reshape(kh * kw, ci, -1, wo)
        for t, orows, ocols, irows, icols in band:
            planes[t, c, orows, ocols] = coord[irows]

    def columns(s: int, cols: np.ndarray, band: list) -> np.ndarray:
        planes = cols.reshape(kh * kw, ci, -1, wo)
        for t, orows, ocols, irows, icols in band:
            planes[t, :c, orows, ocols] = xd[s, :, irows, icols]
        return cols

    bands = _bands(ho, depth * wo * np.dtype(dtype).itemsize)
    buf = np.zeros(depth * (bands[0][1] - bands[0][0]) * wo, dtype=dtype)
    out = np.empty((n, co, ho * wo), dtype=dtype)
    for lo, hi in bands:
        cols = buf[:depth * (hi - lo) * wo].reshape(depth, (hi - lo) * wo)
        if lo:
            cols.fill(0)
        band = taps(lo, hi)
        if freq_coord:
            coordinates(cols, band)
        for s in range(n):
            np.matmul(wmat, columns(s, cols, band), out=out[s, :, lo * wo:hi * wo])
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(n, co, ho, wo)

    inputs = [x, weight] if bias is None else [x, weight, bias]

    def vjp(gout: np.ndarray):
        g = gout.reshape(n, co, ho * wo)
        band = taps(0, ho)
        gw = gb = gx = None
        if weight.requires_grad:
            cols = np.zeros((depth, ho * wo), dtype=dtype)
            if freq_coord:
                coordinates(cols, band)
            gwmat = np.zeros(wmat.shape, dtype=dtype)
            for s in range(n):
                gwmat += g[s] @ columns(s, cols, band).T
            del cols
            gw = np.ascontiguousarray(gwmat.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2))
        if x.requires_grad:
            gcols = np.empty((depth, ho * wo), dtype=dtype)
            gx = np.zeros(xd.shape, dtype=dtype)
            for s in range(n):
                gplanes = np.matmul(wmat.T, g[s], out=gcols).reshape(kh * kw, ci, ho, wo)
                for t, orows, ocols, irows, icols in band:
                    gx[s, :, irows, icols] += gplanes[t, :c, orows, ocols]
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

    @classmethod
    def identity(cls, channels: int) -> "BatchNormState":
        """Zero mean and unit variance in ``DEFAULT_DTYPE``, ready for eval."""
        return cls(mean=np.zeros(channels, dtype=DEFAULT_DTYPE),
                   var=np.ones(channels, dtype=DEFAULT_DTYPE))

    def reset(self) -> None:
        self.mean = None
        self.var = None

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        if self.mean is None:
            self.mean = batch_mean.copy()
            self.var = batch_var.copy()
            return
        m = BN_MOMENTUM
        self.mean = (1.0 - m) * self.mean + m * batch_mean
        self.var = (1.0 - m) * self.var + m * batch_var


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                eps: float = 1e-5, mode: str = "train",
                out: Optional[np.ndarray] = None) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Only the source of the per-channel ``mean`` and ``var`` depends on the
    mode.  Train mode takes the biased batch statistics and hands them to
    ``state.update`` (a copy on the first update, an EMA after that).  Eval
    mode reads the running statistics and fails loudly when they were never
    populated.  Both then apply one per-channel scale
    ``gamma / sqrt(var + eps)`` and shift ``beta - mean * scale``.  Backward
    rebuilds ``xhat = (x - mean) / sqrt(var + eps)`` from x; the input
    gradient follows the batch statistics in train mode and treats the
    statistics as constants in eval mode.

    ``out`` (x's data itself, say) receives the result in place; it is
    refused when the op would record on a tape, since the vjp rebuilds from x.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ValueError(f"batchnorm2d expects a 4-D input, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    if state.mean is not None and (state.mean.shape != (c,) or state.var.shape != (c,)):
        raise ValueError(f"running statistics shapes {state.mean.shape}/{state.var.shape} "
                         f"do not match {c} channels")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    _check_out("batchnorm2d", out, x, [x, gamma, beta], reads_x=True)

    m = x.size // c  # values per channel
    if mode == "eval":
        if state.mean is None:
            raise ValueError("batchnorm eval requested but running statistics were never populated")
        mean, var = state.mean, state.var
    else:
        mean = np.einsum("nchw->c", x.data) / m
        centred = x.data - mean[:, None, None]
        var = np.einsum("nchw,nchw->c", centred, centred) / m
        del centred
        state.update(mean, var)
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv_std
    out = np.multiply(x.data, scale[:, None, None], out=out)
    out += (beta.data - mean * scale)[:, None, None]

    def vjp(gout: np.ndarray):
        xh = (x.data - mean[:, None, None]) * inv_std[:, None, None]
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


def relu(x: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
    """max(x, 0).  Backward passes ``gout`` where the output is positive,
    which is exactly where x > 0 (NaN included), so no mask is kept.
    ``out`` follows ``_check_out``: under a tape it may be the data of x
    when x is the last record's output and that op is a batch norm, say."""
    _check_out("relu", out, x, [x])
    out = np.maximum(x.data, 0, out=out)

    def vjp(gout):
        return (gout * (out > 0),) if x.requires_grad else (None,)

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

    ``global_avg`` reduces H, W to 1, 1 and ignores kernel/stride.  Max and
    avg combine the kh*kw strided tap views of the input elementwise, one
    view per window offset (i, j); backward scatters one gradient per tap
    back through the same views.  Max pool sends each window's gradient to
    its first tap, in row-major order, that equals the window's max, which
    is ``np.argmax``'s rule: the window [[1, 1], [1, 0]] sends all of it to
    the top-left cell.
    """
    if x.ndim != 4:
        raise ValueError(f"pool2d expects a 4-D input, got shape {x.shape}")
    h, w = x.shape[2:]
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
    if kh < 1 or kw < 1:
        raise ValueError(f"pool kernel must be >= 1, got {(kh, kw)}")
    if sh < 1 or sw < 1:
        raise ValueError(f"pool strides must be >= 1, got {(sh, sw)}")
    if kh > h or kw > w:
        raise ValueError(f"pool kernel {(kh, kw)} exceeds input extents {(h, w)}")

    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    spans = [tap[3:] for tap in _taps((kh, kw), (sh, sw), (0, 0), (h, w), (ho, wo))]
    views = [x.data[:, :, rows, cols] for rows, cols in spans]
    combine = np.maximum if kind == "max" else np.add
    out = views[0].copy()
    for v in views[1:]:
        combine(out, v, out=out)

    def scatter(taps):
        """Input gradient from one [n, c, ho, wo] gradient per tap, row-major."""
        gx = np.zeros_like(x.data)
        for (rows, cols), g in zip(spans, taps):
            gx[:, :, rows, cols] += g
        return gx

    if kind == "avg":
        out /= kh * kw

        def vjp_a(gout):
            return (scatter([gout / (kh * kw)] * (kh * kw)),) if x.requires_grad else (None,)

        return record("avg_pool", out, [x], vjp_a)

    def vjp_m(gout):
        """Each tap takes ``gout`` where it is its window's first max."""
        if not x.requires_grad:
            return (None,)

        def routed():
            unrouted = np.ones(out.shape, dtype=bool)
            for v in views:
                first = v == out
                first &= unrouted
                unrouted ^= first
                yield np.where(first, gout, 0)

        return (scatter(routed()),)

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


def add(a: Tensor, b: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
    """a + b.  The vjp reads neither input nor output; ``out`` follows
    ``_check_out`` with b as x."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    _check_out("add", out, b, [a, b])
    out = np.add(a.data, b.data, out=out)

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
