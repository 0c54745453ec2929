"""CP-ResNet variants: RF-regularized, frequency-aware, and shake-shake.

``Model`` realizes the ``ArchSpec`` of a config (``rf.TemplateConfig.make``
sized by ``rf.apply_rho``) as named parameter tensors plus a forward recipe,
walking the arch's layers and skips once:

- a conv layer becomes conv + batchnorm with the layer's kernel, stride and
  padding, followed by relu unless it ends a residual block;
- a pool layer becomes a max pool with the layer's window;
- a skip ``(src, dst)`` becomes one residual block: its branch is the layers
  after ``src`` up to and including ``dst``, its residual is the output of
  ``src`` (through a 1x1 conv + bn projection where the width changes).
  The block returns residual + branch, or, with shake-shake, residual +
  ``shake_combine`` of its two branches.

``Model(config)`` holds zero weights and draws nothing; ``build_model``
draws the He init into it, and ``load_model`` fills it from a checkpoint.

Block widths split ``arch.channel_plan`` evenly over the blocks; a conv
outside a block takes the width of the next block.  A block's layers are
named ``<block>c<i>`` and its parameters ``<block>.br<k>.c<i>.*``.
``rf.min_input`` of the arch is the one extent rule: ``ModelConfig``
refuses ``input_bins`` below its bins, and ``Model.min_input`` holds it,
computed once, for the frames of a forward and a run's ``crop_frames``.

Variant flags thread through every block: ``frequency_aware`` gives every
conv one more input channel holding the bin's coordinate (``fa_channel``),
which the conv reads inside its column bands (``conv2d(freq_coord=True)``)
in train and eval mode alike, so no widened copy of its input is made.
``shake_shake`` doubles each block's branch and mixes the two with convex
weights (the engine op ``autodiff.shake_combine``): in train mode alpha
(forward) then beta (backward), each drawn uniform on [0, 1] from
``Model.rng_shake`` per block per forward; in eval mode 0.5 and 0.5.  The
classifier head is global average pooling into a linear layer producing
one logit per tag.  Sigmoid lives downstream in the loss / evaluation
layers.

Each activation is kept once: relu writes over its batch norm's output, a
shake block mixes into its second branch's output and the residual add
writes over the mix or the lone branch (``out=``, which ``batchnorm2d``,
``relu``, ``add`` and ``shake_combine`` take).  None of those overwritten
outputs is read by its op's vjp, so the engine allows this under a tape
too.  A training step's tape then holds the conv outputs, the batch-norm
outputs (relu, the mix and the add written over them) and the pool
outputs; CHANGES.md lists its bytes per record name.  With nothing
recording, batch norm also writes over the fresh conv output, so a forward
without a tape (eval, or the SWA refresh's) holds about two activations of
its batch and one column band at a time; ``inference.predict_scores`` runs
one window per forward, so scoring holds two activations of one window.

A checkpoint's config echo is one ``key=value`` line per field, in sorted
key order.  Every value, a config field's or an ``extra`` one's, is written
as ``_echo_text`` renders it: ``none`` for None, the items joined by commas
for a tuple or list, and ``str`` of anything else.  ``echo_field`` is the
one reader of a field: it names a missing field, a parse error and a text
that is not the written text of its parsed value.  So an echo loads only as
that text: ``read_checkpoint`` refuses lines that are not the ones written
for the dict they read as, and ``echo_field`` each field's text.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, shake_combine
from .rf import ArchSpec, LayerSpec, TemplateConfig, apply_rho, min_input

CKPT_MAGIC = b"RFCKPT01"


@dataclass
class ModelConfig:
    """A CP-ResNet variant: the template sized by rho, the variant flags, the
    tag and input bin counts and the init seed.  ``n_tags`` or ``input_bins``
    below one, a negative ``seed``, a template or rho that ``arch`` refuses
    and ``input_bins`` below the arch's ``min_input`` bins are refused on
    construction, naming the field."""

    template: TemplateConfig = field(default_factory=TemplateConfig)
    rho: int = 4
    rho_time: Optional[int] = None
    frequency_aware: bool = False
    shake_shake: bool = False
    n_tags: int = 5
    input_bins: int = 256
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_tags", 1), ("input_bins", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        bins = min_input(self.arch())[0]
        if self.input_bins < bins:
            raise ValueError(f"input_bins must be >= {bins}, the bins the stride plan "
                             f"needs, got {self.input_bins}")

    def arch(self) -> ArchSpec:
        return apply_rho(self.template.make(), self.rho, self.rho_time)


def fa_channel(x: Tensor) -> Tensor:
    """Append a frequency-coordinate channel: value f/(F-1) at bin f.

    Constant along batch and time; zero everywhere when F == 1.  This is the
    definition of the plane that ``conv2d(freq_coord=True)`` reads inside
    its bands; no model path calls it.  The test oracle composes it before
    each conv, and the benchmark's tracer wraps it by name.
    """
    n, c, f, t = x.shape
    coord_col = (np.arange(f, dtype=x.dtype) / (f - 1) if f > 1
                 else np.zeros(1, dtype=x.dtype))
    coord = np.broadcast_to(coord_col[None, None, :, None], (n, 1, f, t))
    out = np.concatenate([x.data, coord.astype(x.dtype)], axis=1)

    def vjp(gout):
        return (gout[:, :c],) if x.requires_grad else (None,)

    return ad.record("fa_channel", out, [x], vjp)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------
#
# Every step is called as step(x, mode) and looks its ops up through the
# module attributes at call time, so a caller can rebind ``ad.pool2d`` or
# ``shake_combine`` around a forward to observe or substitute an op.


class _Conv:
    """One conv layer of the arch with its batchnorm, optionally followed by relu."""

    def __init__(self, model: "Model", name: str, layer: LayerSpec, c_in: int, c_out: int,
                 relu: bool):
        kf, kt = layer.kernel
        self.stride, self.padding, self.relu = layer.stride, layer.padding, relu
        self.fa = model.config.frequency_aware
        c_eff = c_in + (1 if self.fa else 0)
        self.weight = model.add_param(f"{name}.weight", np.zeros((c_out, c_eff, kf, kt),
                                                                 dtype=ad.DEFAULT_DTYPE))
        self.gamma = model.add_param(f"{name}.bn.gamma", np.ones(c_out))
        self.beta = model.add_param(f"{name}.bn.beta", np.zeros(c_out))
        self.state = model.add_bn_state(f"{name}.bn", c_out)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        x = ad.conv2d(x, self.weight, None, stride=self.stride, padding=self.padding,
                      freq_coord=self.fa)
        # Batch norm's vjp reads the conv output, so only with nothing
        # recording does it write over it; relu writes over batch norm's.
        x = ad.batchnorm2d(x, self.gamma, self.beta, self.state, mode=mode,
                           out=None if ad.active_tape() else x.data)
        return ad.relu(x, out=x.data) if self.relu else x


class _Pool:
    def __init__(self, layer: LayerSpec):
        self.kernel, self.stride = layer.kernel, layer.stride

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return ad.pool2d(x, "max", kernel=self.kernel, stride=self.stride)


def _layer(model: "Model", name: str, layer: LayerSpec, c_in: int, c_out: int,
           relu: bool) -> tuple:
    """The step realizing one arch layer, and its output width."""
    if layer.kind == "conv":
        return _Conv(model, name, layer, c_in, c_out, relu), c_out
    return _Pool(layer), c_in


def _run(steps: list, x: Tensor, mode: str) -> Tensor:
    for step in steps:
        x = step(x, mode)
    return x


class _Block:
    """The residual block of one skip.

    Its output is the residual (x, or its projection where the width
    changes) plus the branch, or plus ``shake_combine`` of the two branches.
    """

    def __init__(self, model: "Model", name: str, layers: list, c_in: int, c_out: int):
        self.rng = model.rng_shake
        self.branches = []
        for k in range(1, 3 if model.config.shake_shake else 2):
            steps, c = [], c_in
            for layer in layers:
                step, c = _layer(model, f"{name}.br{k}.{layer.name[len(name):]}", layer,
                                 c, c_out, relu=layer is not layers[-1])
                steps.append(step)
            self.branches.append(steps)
        self.proj = None
        if c_in != c_out:
            self.proj = _Conv(model, f"{name}.proj", LayerSpec("proj", "conv"),
                              c_in, c_out, relu=False)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        train = mode == "train"
        residual = x if self.proj is None else self.proj(x, mode)
        out = [_run(steps, x, mode) for steps in self.branches]
        # The branches end in batch norm, the second one last: the mix goes
        # into its output and the residual add into the mix (or the branch).
        if len(out) == 2:
            alpha = float(self.rng.uniform()) if train else 0.5
            beta = float(self.rng.uniform()) if train else 0.5
            out = [shake_combine(out[0], out[1], alpha, beta, out=out[1].data)]
        return ad.add(residual, out[0], out=out[0].data)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class Model:
    """Named parameters plus the forward recipe for one architecture.

    ``Model(config)`` draws nothing: its weights and biases are zero, its
    batch-norm scales one and shifts zero, and its batch-norm statistics the
    identity.  ``build_model`` fills the weights with the He init;
    ``load_model`` and the SWA step of ``training.train`` fill every
    parameter with ``load_state_arrays``.
    """

    def __init__(self, config: ModelConfig):
        """Parameters and statistics of ``config`` in one walk over the arch:
        plain layers and one block per skip."""
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        self.rng_shake = np.random.default_rng(config.seed + 1)
        self._arch = config.arch()
        self.min_input = min_input(self._arch)
        layers, plan = self._arch.layers, self._arch.channel_plan
        n_blocks = len(self._arch.skips)
        block_end = {self._arch.layer_index(src) + 1: self._arch.layer_index(dst)
                     for src, dst in self._arch.skips}
        self.trunk = []
        c, i, done = 1, 0, 0
        while i < len(layers):
            width = plan[done * len(plan) // max(1, n_blocks)]
            if i in block_end:
                end = block_end[i]
                name = layers[end].name.rpartition("c")[0]
                self.trunk.append(_Block(self, name, layers[i:end + 1], c, width))
                c, i, done = width, end + 1, done + 1
            else:
                step, c = _layer(self, layers[i].name, layers[i], c, width, relu=True)
                self.trunk.append(step)
                i += 1
        self.head_w = self.add_param("head.weight",
                                     np.zeros((c, config.n_tags), dtype=ad.DEFAULT_DTYPE))
        self.head_b = self.add_param("head.bias", np.zeros(config.n_tags))

    # -- construction ------------------------------------------------------

    def add_param(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        t = Tensor(np.asarray(values, dtype=ad.DEFAULT_DTYPE), requires_grad=True)
        self.params[name] = t
        return t

    def add_bn_state(self, name: str, channels: int) -> BatchNormState:
        if name in self.bn_states:
            raise ValueError(f"duplicate batchnorm state name {name}")
        state = BatchNormState.identity(channels)
        self.bn_states[name] = state
        return state

    # -- forward -----------------------------------------------------------

    def forward_features(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Trunk feature map before global pooling."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(f"expected input [N,1,bins,frames], got {x.shape}")
        if x.shape[2] != self.config.input_bins:
            raise ValueError(f"expected {self.config.input_bins} frequency bins, got {x.shape[2]}")
        need = self.min_input[1]
        if x.shape[3] < need:
            raise ValueError(f"input has {x.shape[3]} frames but the stride plan "
                             f"needs at least {need}")
        return _run(self.trunk, x, mode)

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Logits [N, n_tags]."""
        h = self.forward_features(x, mode)
        pooled = ad.pool2d(h, "global_avg")
        flat = ad.reshape(pooled, (x.shape[0], pooled.shape[1]))
        return ad.linear(flat, self.head_w, self.head_b)

    # -- parameter plumbing --------------------------------------------------

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameters (used by SWA and checkpointing)."""
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state_arrays(self, arrays: dict) -> None:
        _check_entries("parameter", arrays, {k: p.shape for k, p in self.params.items()})
        for k, p in self.params.items():
            p.data = arrays[k].astype(p.data.dtype)

    def bn_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, st in self.bn_states.items():
            out[f"{name}.mean"] = st.mean.copy()
            out[f"{name}.var"] = st.var.copy()
        return out

    def load_bn_arrays(self, arrays: dict) -> None:
        _check_entries("batchnorm", arrays, {f"{name}.{stat}": st.mean.shape
                                             for name, st in self.bn_states.items()
                                             for stat in ("mean", "var")})
        for name, st in self.bn_states.items():
            st.mean = arrays[f"{name}.mean"].astype(ad.DEFAULT_DTYPE)
            st.var = arrays[f"{name}.var"].astype(ad.DEFAULT_DTYPE)


def _check_entries(section: str, arrays: dict, shapes: dict) -> None:
    """``arrays`` must hold exactly the entries named in ``shapes``, each of
    its shape, finite, and for a ``.var`` entry not negative."""
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"{section} entry {name!r} is missing")
        if arrays[name].shape != shape:
            raise ValueError(f"{section} entry {name!r}: shape {arrays[name].shape} "
                             f"!= model shape {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{section} entry {name!r} holds a non-finite value")
        if name.endswith(".var") and (arrays[name] < 0).any():
            raise ValueError(f"{section} entry {name!r} holds a negative variance")
    for name in arrays:
        if name not in shapes:
            raise ValueError(f"{section} entry {name!r} is not in the model")


def build_model(config: ModelConfig) -> Model:
    """The model of ``config`` with He-normal weights (same seed, same bits).

    One generator seeded with ``config.seed`` draws every weight in
    parameter order, scaled by sqrt(2 / fan-in): ``in*kf*kt`` for a conv
    kernel ``(out, in, kf, kt)``, the rows for the head's ``(in, out)``.
    Biases, batch-norm parameters and statistics stay as ``Model`` made them.
    """
    model = Model(config)
    rng = np.random.default_rng(config.seed)
    for p in model.params.values():
        if p.ndim > 1:
            fan_in = int(np.prod(p.shape[1:])) if p.ndim == 4 else p.shape[0]
            p.data[...] = rng.standard_normal(p.shape) * np.sqrt(2.0 / fan_in)
    return model


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _pack_entries(arrays: dict) -> bytes:
    out = [struct.pack("<I", len(arrays))]
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        nb = name.encode("utf-8")
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        out.append(arr.tobytes())
    return b"".join(out)


def _unpack_entries(raw: bytes, pos: int, section: str) -> tuple[dict, int]:
    """Entries from ``pos``; a short or corrupt buffer names the entry."""
    arrays = {}
    where = f"the {section} entry count"
    try:
        (count,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        for i in range(count):
            where = f"{section} entry {i}"
            (nlen,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + nlen].decode("utf-8")
            pos += nlen
            where = f"{section} entry {name!r}"
            (rank,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", raw, pos) if rank else ()
            pos += 4 * rank
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(raw, dtype="<f4", count=n, offset=pos).reshape(shape)
            pos += 4 * n
            arrays[name] = arr.copy()
    except (struct.error, ValueError) as exc:
        raise ValueError(f"truncated or corrupt at {where}: {exc}") from None
    return arrays, pos


def _echo_text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


# annotation of a config field -> parser of its echo text
_ECHO_PARSERS = {
    "int": int,
    "Optional[int]": lambda text: None if text == "none" else int(text),
    "bool": lambda text: text == "True",
    "tuple": lambda text: tuple(int(v) for v in text.split(",")),
}


def _echo_fields():
    """(echo key, config field) for every field; template fields as ``template.*``."""
    for f in fields(ModelConfig):
        if f.name == "template":
            yield from ((f"template.{t.name}", t) for t in fields(TemplateConfig))
        else:
            yield f.name, f


def config_echo(config: ModelConfig, extra: Optional[dict] = None) -> dict:
    echo = {}
    for key, f in _echo_fields():
        owner = config.template if key.startswith("template.") else config
        echo[key] = _echo_text(getattr(owner, f.name))
    if extra:
        echo.update({str(k): _echo_text(v) for k, v in extra.items()})
    return echo


def echo_field(echo: dict, key: str, parse, section: str = "config echo"):
    """``parse`` of the text of field ``key``; a missing field, a parse error
    or a text other than ``_echo_text`` of the parsed value is refused with a
    ValueError naming ``section`` and the field."""
    if key not in echo:
        raise ValueError(f"{section} has no field {key!r}")
    try:
        value = parse(echo[key])
    except ValueError as exc:
        raise ValueError(f"{section} field {key!r}: {exc}") from None
    if echo[key] != _echo_text(value):
        raise ValueError(f"{section} field {key!r}: {echo[key]!r} is not the written "
                         f"text {_echo_text(value)!r} of its value")
    return value


def config_from_echo(echo: dict) -> ModelConfig:
    template, top = {}, {}
    for key, f in _echo_fields():
        owner = template if key.startswith("template.") else top
        owner[f.name] = echo_field(echo, key, _ECHO_PARSERS[f.type])
    return ModelConfig(template=TemplateConfig(**template), **top)


def save_checkpoint(path, model: Model, extra: Optional[dict] = None) -> None:
    """RFCKPT01: magic, parameter entries, BN running stats, config echo.

    The echo is one ``key=value`` line per field, so a key holding ``=`` or
    a newline, or a value holding a newline, is refused before writing, and
    so is an ``extra`` key that names a config field.  A list or tuple is
    written as its items joined by commas, so one that is empty, or holds
    an item whose text holds a comma, is refused too: it would not read
    back as itself.
    """
    clash = set(map(str, extra or ())) & set(config_echo(model.config))
    if clash:
        raise ValueError(f"{path}: extra field {min(clash)!r} would overwrite the config echo")
    for key, value in (extra or {}).items():
        if isinstance(value, (tuple, list)) and (not value or any("," in str(v) for v in value)):
            raise ValueError(f"{path}: config echo field {str(key)!r} = {value!r}: a list or "
                             f"tuple needs at least one item and no item holding ','")
    echo = config_echo(model.config, extra)
    for key, value in echo.items():
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"{path}: config echo field {key!r} = {value!r}: a key may not "
                             f"hold '=' or a newline, nor a value a newline")
    echo_bytes = "\n".join(f"{k}={v}" for k, v in sorted(echo.items())).encode("utf-8")
    blob = (CKPT_MAGIC
            + _pack_entries(model.state_arrays())
            + _pack_entries(model.bn_arrays())
            + struct.pack("<I", len(echo_bytes)) + echo_bytes)
    Path(path).write_bytes(blob)


def read_checkpoint(path) -> tuple[dict, dict, dict]:
    """Returns (parameter arrays, BN stat arrays, config echo dict).

    A file that is short, corrupt or runs on past the config echo is
    refused with a ValueError naming the path and where it broke, and so is
    an echo that is not the lines ``save_checkpoint`` writes for the dict it
    reads as: the first line without ``=``, or whose key does not sort
    after the key before it, is named.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:8]!r}, expected {CKPT_MAGIC!r}")
    try:
        params, pos = _unpack_entries(raw, 8, "parameter")
        bn, pos = _unpack_entries(raw, pos, "batchnorm")
        elen = struct.unpack_from("<I", raw, pos)[0] if len(raw) >= pos + 4 else -1
        if not 0 <= elen <= len(raw) - pos - 4:
            raise ValueError("truncated at the config echo")
        if len(raw) > pos + 4 + elen:
            raise ValueError(f"{len(raw) - pos - 4 - elen} bytes follow the config echo")
        text = raw[pos + 4:pos + 4 + elen].decode("utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    echo = {}
    for n, line in enumerate(text.split("\n") if text else [], start=1):
        k, eq, v = line.partition("=")
        if not eq or (echo and k <= last):
            raise ValueError(f"{path}: config echo line {n} {line!r} is not as written: one "
                             f"key=value line per field, in sorted key order")
        echo[k], last = v, k
    return params, bn, echo


def load_model(path) -> tuple[Model, dict]:
    """Rebuild the model a checkpoint describes; returns (model, echo).

    An echo field that ``echo_field`` refuses, or an entry that
    ``_check_entries`` refuses, raises a ValueError naming the path too.
    """
    params, bn, echo = read_checkpoint(path)
    try:
        model = Model(config_from_echo(echo))
        model.load_state_arrays(params)
        model.load_bn_arrays(bn)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, echo
