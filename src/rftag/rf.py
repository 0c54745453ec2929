"""Analytic receptive-field calculus for layered CNN architectures.

``compute_rf`` tracks, per axis (frequency f, time t), the receptive field
r and the jump j (product of strides) through a chain of layers with
optional residual skip edges: r_n = r_{n-1} + (k_n - 1) * j_{n-1}, j_n =
j_{n-1} * s_n, seeded at r = j = 1.  Residual merges take the elementwise
maximum over incoming paths, and ``min_input`` walks the chain backwards to
the smallest input per axis.  The calculus is plain Python; its empirical
check, gradient connectivity through an engine-built arch, lives with the
test oracles.

An ``ArchSpec`` is the one description of an architecture: the layer
chain, the skips and the channel plan.  ``TemplateConfig`` is the one
description of the CP-ResNet template, its settings and their defaults;
its ``make`` returns the template's arch at full rho.  ``apply_rho``
realizes receptive-field regularization on any arch: of its ordered
adjustable conv slots, the first rho keep frequency-kernel 3 and the rest
drop to 1, which caps how far the frequency RF can grow.  Only a conv can
be adjustable, so every adjustable layer is a rho slot.  The input width
is not part of an arch (the calculus does not depend on it);
``models.ModelConfig.input_bins`` records it for a built model, and may
not be below the arch's ``min_input`` bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

LAYER_KINDS = ("conv", "pool")


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one conv or pool layer."""

    name: str
    kind: str
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    adjustable: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"layer {self.name}: unknown kind {self.kind!r}")
        for what, least in (("kernel", 1), ("stride", 1), ("padding", 0)):
            value = getattr(self, what)
            if len(value) != 2 or min(value) < least:
                raise ValueError(f"layer {self.name}: {what} must be a (freq, time) pair, "
                                 f"each >= {least}, got {value}")
        if self.adjustable and self.kind != "conv":
            raise ValueError(f"layer {self.name}: only a conv can be adjustable, not a {self.kind}")


@dataclass
class ArchSpec:
    """An ordered layer chain plus residual skip edges (from -> to by name).

    A skip edge adds the output of layer ``from`` to the output of layer
    ``to``; ``from`` must precede ``to``, which keeps the graph acyclic with
    a single source and sink.
    """

    layers: list
    skips: list = field(default_factory=list)
    channel_plan: tuple = ()

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {dup}")
        index = {n: i for i, n in enumerate(names)}
        for src, dst in self.skips:
            if src not in index or dst not in index:
                raise ValueError(f"skip {src}->{dst} references unknown layers")
            if index[src] >= index[dst]:
                raise ValueError(f"skip {src}->{dst} is not forward (graph would be cyclic)")

    def layer_index(self, name: str) -> int:
        for i, l in enumerate(self.layers):
            if l.name == name:
                return i
        raise KeyError(name)

    def adjustable_layers(self) -> list:
        return [l for l in self.layers if l.adjustable]


@dataclass
class RFRow:
    name: str
    r_freq: int
    j_freq: int
    r_time: int
    j_time: int


@dataclass
class RFReport:
    """Per-layer receptive fields and the final per-axis values at the sink."""

    rows: list
    rf_freq: int
    rf_time: int

    def as_table(self) -> str:
        width = max([len("layer")] + [len(r.name) for r in self.rows])
        lines = [f"{'layer':<{width}}  {'rf_f':>6} {'jump_f':>6} {'rf_t':>6} {'jump_t':>6}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.r_freq:>6} {r.j_freq:>6} {r.r_time:>6} {r.j_time:>6}")
        lines.append(f"final receptive field: freq={self.rf_freq} time={self.rf_time}")
        return "\n".join(lines)


def compute_rf(arch: ArchSpec) -> RFReport:
    """Propagate (r, j) per axis through the chain, max-merging at skips."""
    skips_into: dict[str, list[str]] = {}
    for src, dst in arch.skips:
        skips_into.setdefault(dst, []).append(src)

    state: dict[str, tuple[int, int, int, int]] = {}
    prev = (1, 1, 1, 1)  # r_f, j_f, r_t, j_t at the input
    rows = []
    for layer in arch.layers:
        rf, jf, rt, jt = prev
        kf, kt = layer.kernel
        sf, st = layer.stride
        rf = rf + (kf - 1) * jf
        rt = rt + (kt - 1) * jt
        jf = jf * sf
        jt = jt * st
        for src in skips_into.get(layer.name, ()):
            s_rf, s_jf, s_rt, s_jt = state[src]
            rf, jf = max(rf, s_rf), max(jf, s_jf)
            rt, jt = max(rt, s_rt), max(jt, s_jt)
        prev = (rf, jf, rt, jt)
        state[layer.name] = prev
        rows.append(RFRow(layer.name, rf, jf, rt, jt))
    rf, jf, rt, jt = prev
    return RFReport(rows=rows, rf_freq=rf, rf_time=rt)


def min_input(arch: ArchSpec) -> tuple[int, int]:
    """Smallest (bins, frames) input that leaves every layer an output cell.

    One reverse pass from one output cell per axis: a layer with ``need``
    output cells needs ``max(1, (need - 1) * stride + kernel - 2 * padding)``
    input cells.  Pools have zero padding, so the rule is the same for every
    layer kind, and skips do not enter: a residual branch keeps its extent.
    """
    need = (1, 1)
    for layer in reversed(arch.layers):
        need = tuple(max(1, (n - 1) * s + k - 2 * p)
                     for n, k, s, p in zip(need, layer.kernel, layer.stride, layer.padding))
    return need


# ---------------------------------------------------------------------------
# rho sizing
# ---------------------------------------------------------------------------


def apply_rho(arch: ArchSpec, rho: int, rho_time: Optional[int] = None) -> ArchSpec:
    """``arch`` with its adjustable conv slots sized by rho.

    Of the ordered slots (``arch.adjustable_layers()``), the first ``rho``
    get frequency-kernel 3 and the rest frequency-kernel 1.  Time kernels
    keep the arch's value unless an independent ``rho_time`` sizes them the
    same way.  A sized slot's padding is (k - 1) // 2 per axis.
    """
    n = len(arch.adjustable_layers())
    if not (0 <= rho <= n):
        raise ValueError(f"rho must lie in [0, {n}], got {rho}")
    if rho_time is not None and not (0 <= rho_time <= n):
        raise ValueError(f"rho_time must lie in [0, {n}], got {rho_time}")
    new_layers = []
    slot = 0
    for layer in arch.layers:
        if layer.adjustable:
            kf = 3 if slot < rho else 1
            kt = layer.kernel[1] if rho_time is None else (3 if slot < rho_time else 1)
            new_layers.append(replace(layer,
                                      kernel=(kf, kt),
                                      padding=((kf - 1) // 2, (kt - 1) // 2)))
            slot += 1
        else:
            new_layers.append(layer)
    return replace(arch, layers=new_layers, skips=list(arch.skips))


@dataclass
class TemplateConfig:
    """The CP-ResNet template, every adjustable slot at rho max.

    Input stage of two 3x3 convs (stride (2,2) then (1,1)), then ``n_stages``
    stages of ``blocks_per_stage`` residual blocks with two adjustable convs
    each; the first ``pool_stages`` stages open with a 2x2 max pool.
    ``make`` refuses, naming the field, settings that build no working
    model: fewer than one stage or block, a plan width below one, more pool
    stages than stages, and an even time kernel, whose convs would shorten
    the time axis under a residual add.
    """

    n_stages: int = 4
    blocks_per_stage: int = 3
    channel_plan: tuple = (32, 64, 128, 256)
    pool_stages: int = 2
    time_kernel: int = 3

    def make(self) -> ArchSpec:
        plan, kt = tuple(self.channel_plan), self.time_kernel
        for name in ("n_stages", "blocks_per_stage"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(plan) != self.n_stages:
            raise ValueError(f"channel plan {plan} must list one width per stage ({self.n_stages})")
        if min(plan) < 1:
            raise ValueError(f"channel_plan widths must be >= 1, got {plan}")
        if not 0 <= self.pool_stages <= self.n_stages:
            raise ValueError(f"pool_stages must lie in [0, {self.n_stages}], got {self.pool_stages}")
        if kt < 1 or kt % 2 == 0:
            raise ValueError(f"time_kernel must be odd and >= 1, got {kt}")
        layers = [
            LayerSpec("in1", "conv", (3, 3), (2, 2), (1, 1)),
            LayerSpec("in2", "conv", (3, 3), (1, 1), (1, 1)),
        ]
        skips = []
        prev = "in2"
        for s in range(1, self.n_stages + 1):
            if s <= self.pool_stages:
                name = f"s{s}_pool"
                layers.append(LayerSpec(name, "pool", (2, 2), (2, 2)))
                prev = name
            for b in range(1, self.blocks_per_stage + 1):
                c1 = f"s{s}b{b}c1"
                c2 = f"s{s}b{b}c2"
                layers.append(LayerSpec(c1, "conv", (3, kt), (1, 1), (1, (kt - 1) // 2),
                                        adjustable=True))
                layers.append(LayerSpec(c2, "conv", (3, kt), (1, 1), (1, (kt - 1) // 2),
                                        adjustable=True))
                skips.append((prev, c2))
                prev = c2
        return ArchSpec(layers=layers, skips=skips, channel_plan=plan)
