"""Outside-in tracer for the rftag benchmark.

``Tracer.install`` replaces the public functions of ``dsp``, ``autodiff``,
``models``, ``inference``, ``evaluation`` and ``training`` with timing
wrappers, in every ``rftag`` module that holds a reference to them: the
defining module (``ad.conv2d`` looks it up there) and each module that bound
the name with ``from .x import y``.  ``autodiff.record`` is wrapped so that
each recorded op's backward rule (its vjp) is timed as well, which gives
backward time per op without touching the engine.

A span is a name, a parent, a start and a duration; counts are plain
numbers.  The tracer never stores an array or a tensor, so tracing retains
no memory that the untraced program would free.  The only object reference
it keeps is a ``WeakSet`` of tapes, used to count the tapes still alive at
each ``backward`` entry.

``uninstall`` restores every name it replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

_clock = time.perf_counter

LAYERS = ("dsp", "autodiff", "models", "inference", "evaluation", "training")
STAGES = ("in1", "in2", "s1", "s2", "s3", "s4")

# tape record name -> metric family of its backward rule
_VJP_FAMILY = {
    "conv2d": "autodiff.conv2d",
    "batchnorm2d": "autodiff.batchnorm2d",
    "max_pool": "autodiff.pool2d",
    "avg_pool": "autodiff.pool2d",
    "global_avg_pool": "autodiff.pool2d",
    "relu": "autodiff.elementwise",
    "sigmoid": "autodiff.elementwise",
    "add": "autodiff.elementwise",
    "mul": "autodiff.elementwise",
    "fa_channel": "models.fa_channel",
}
_VJP_KEY = {"shake_combine": "models.shake_combine_s"}

MIB = float(1 << 20)


def stage_of(param_name: str) -> str:
    """'in2.weight' -> 'in2'; 's3b1.br2.c1.weight' -> 's3'."""
    head = param_name.split(".", 1)[0]
    if head.startswith("s") and "b" in head:
        return head.split("b", 1)[0]
    return head


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.total = defaultdict(float)       # span name -> summed duration (s)
        self.self_time = defaultdict(float)   # span name -> duration minus child spans
        self.layer_self = defaultdict(float)  # layer -> summed self time
        self.count = defaultdict(float)       # counter name -> value
        self.spans: list = []                 # (name, parent index, start, duration)
        self.hook_s = 0.0                     # time spent computing counters
        self.wrapped_calls = 0                # wrapper invocations, spans or not
        self.tapes = weakref.WeakSet()
        self.param_names: dict = {}           # id(parameter tensor) -> name
        self._stack: list = []                # open spans: [index, start, child time]
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def span(self, keys, fn, args, kwargs):
        """Run fn inside a span; its duration is added to every key.

        The first key names the span and owns its self time; further keys
        are breakdowns (for example, a conv's stage) of the same interval.
        """
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, _clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _clock() - frame[1]
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += dur
            name = keys[0]
            own = dur - frame[2]
            self.self_time[name] += own
            self.layer_self[name.split(".", 1)[0]] += own
            for key in keys:
                self.total[key] += dur
            self.spans[index] = (name, -1 if parent is None else parent[0], frame[1], dur)

    def wrap(self, fn, key, keys_of=None, after=None):
        """A traced stand-in for fn.

        ``keys_of(bound)`` picks the span keys from the call's arguments;
        ``after(result, bound)`` updates counters once the call returned.
        Both get the arguments bound to fn's signature, and their time is
        charged to ``hook_s`` rather than to any span.
        """
        sig = inspect.signature(fn) if (keys_of or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.wrapped_calls += 1
            bound = None
            keys = (key,)
            if sig is not None:
                t0 = _clock()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if keys_of is not None:
                    keys = keys_of(bound.arguments)
                self.hook_s += _clock() - t0
            result = self.span(keys, fn, args, kwargs)
            if after is not None:
                t0 = _clock()
                after(result, bound.arguments)
                self.hook_s += _clock() - t0
            return result

        return traced

    # -- model bookkeeping --------------------------------------------------

    def register_model(self, model) -> None:
        """Remember parameter names so a conv weight maps to its stage."""
        for name, p in model.params.items():
            self.param_names[id(p)] = name

    def stage_of_weight(self, weight) -> str:
        return stage_of(self.param_names.get(id(weight), "other"))

    # -- installation ---------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rftag" or mod_name.startswith("rftag.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from rftag import autodiff, dsp, evaluation, inference, models, training

        plain = {
            dsp: {"logmel": "dsp.logmel_s"},
            autodiff: {
                "batchnorm2d": "autodiff.batchnorm2d.fwd_s",
                "pool2d": "autodiff.pool2d.fwd_s",
                "relu": "autodiff.elementwise.fwd_s",
                "sigmoid": "autodiff.elementwise.fwd_s",
                "add": "autodiff.elementwise.fwd_s",
                "mul": "autodiff.elementwise.fwd_s",
                "linear": "autodiff.other.fwd_s",
                "reshape": "autodiff.other.fwd_s",
                "sum_all": "autodiff.other.fwd_s",
                "bce_with_logits": "autodiff.other.fwd_s",
            },
            models: {
                "fa_channel": "models.fa_channel.fwd_s",
                "shake_combine": "models.shake_combine_s",
                "save_checkpoint": "models.save_checkpoint_s",
            },
            evaluation: {
                "load_predictions": "evaluation.load_predictions_s",
                "ensemble_average": "evaluation.ensemble_average_s",
                "macro_pr_auc": "evaluation.macro_pr_auc_s",
                "apply_thresholds": "evaluation.apply_thresholds_s",
                "save_predictions": "evaluation.save_predictions_s",
                "snapshot_ensemble": "evaluation.snapshot_ensemble_s",
            },
            training: {
                "train": "training.train_s",
                "refresh_bn_statistics": "training.refresh_bn_statistics_s",
                "mixup_batch": "training.mixup_batch_s",
                "swa_update": "training.swa_update_s",
                "normalization_stats": "training.normalization_stats_s",
            },
        }
        for module, names in plain.items():
            for attr, key in names.items():
                fn = getattr(module, attr)
                self._patch_everywhere(fn, self.wrap(fn, key))

        special = {
            (dsp, "load_wav"): dict(key="dsp.load_wav_s", after=self._after_load_wav),
            (autodiff, "conv2d"): dict(key="autodiff.conv2d.fwd_s", keys_of=self._conv_keys),
            (autodiff, "backward"): dict(key="autodiff.backward_s", keys_of=self._backward_keys),
            (autodiff, "adam_step"): dict(key="autodiff.adam_step_s", after=self._after_adam),
            (models, "build_model"): dict(key="models.build_model_s", after=self._after_build),
            (models, "load_model"): dict(key="models.load_model_s", after=self._after_load),
            (inference, "predict_scores"): dict(key="inference.predict_scores_s",
                                                after=self._after_predict),
            (evaluation, "tune_thresholds"): dict(key="evaluation.tune_thresholds_s",
                                                  after=self._after_tune),
        }
        for (module, attr), kw in special.items():
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self.wrap(fn, **kw))

        record = autodiff.record
        self._patch_everywhere(record, self._traced_record(record))

        forward = models.Model.forward

        def traced_forward(model, x, mode="eval"):
            self.wrapped_calls += 1
            return self.span((f"models.forward.{mode}_s",), forward, (model, x, mode), {})

        self._patch_attr(models.Model, "forward", traced_forward)

        tape_init = autodiff.Tape.__init__

        def traced_tape_init(tape):
            tape_init(tape)
            self.tapes.add(tape)

        self._patch_attr(autodiff.Tape, "__init__", traced_tape_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ---------------------------------------------------------------

    def _conv_keys(self, a):
        """Span keys of one conv call; also counts its FLOPs and im2col bytes."""
        x, weight = a["x"], a["weight"]
        stage = self.stage_of_weight(weight)
        n, c, h, w = x.shape
        co, ci, kh, kw = weight.shape
        sh, sw = _pair(a["stride"])
        ph, pw = _pair(a["padding"])
        ho = (h + 2 * ph - kh) // sh + 1
        wo = (w + 2 * pw - kw) // sw + 1
        cols = n * ho * wo * ci * kh * kw
        self.count["autodiff.conv2d.calls"] += 1
        self.count["autodiff.conv2d.gflop"] += 2.0 * cols * co / 1e9
        self.count["autodiff.conv2d.col_mb"] += cols * x.data.itemsize / MIB
        return ("autodiff.conv2d.fwd_s", f"autodiff.conv2d.{stage}.fwd_s")

    def _backward_keys(self, a):
        loss = a["loss"]
        self.count["autodiff.tapes_alive_max"] = max(
            self.count["autodiff.tapes_alive_max"], len(self.tapes))
        if loss._record is not None:
            self.count["autodiff.tape.records"] += len(loss._record.tape.records)
        return ("autodiff.backward_s",)

    def _traced_record(self, record):
        @functools.wraps(record)
        def traced_record(name, out_data, inputs, vjp):
            self.wrapped_calls += 1
            keys = (_VJP_KEY.get(name) or f"{_VJP_FAMILY.get(name, 'autodiff.other')}.bwd_s",)
            gflop = 0.0
            if name == "conv2d":
                x, weight = inputs[0], inputs[1]
                keys += (f"autodiff.conv2d.{self.stage_of_weight(weight)}.bwd_s",)
                co, ci, kh, kw = weight.shape
                n, _, ho, wo = out_data.shape
                gemms = int(x.requires_grad) + int(weight.requires_grad)
                gflop = gemms * 2.0 * n * ho * wo * co * ci * kh * kw / 1e9

            def traced_vjp(gout):
                self.wrapped_calls += 1
                if gflop:
                    self.count["autodiff.conv2d.gflop"] += gflop
                return self.span(keys, vjp, (gout,), {})

            return record(name, out_data, inputs, traced_vjp)

        return traced_record

    def _after_load_wav(self, clip, a):
        self.count["dsp.audio_s"] += len(clip.samples) / clip.sample_rate

    def _after_adam(self, state, a):
        self.count["training.steps"] += 1

    def _after_build(self, model, a):
        self.register_model(model)

    def _after_load(self, result, a):
        self.register_model(result[0])

    def _after_predict(self, scores, a):
        from rftag.inference import window_starts

        crop = a["crop_frames"]
        hop = max(1, crop // 2)
        for values in a["values_list"]:
            frames = values.shape[1]
            if a["mode"] == "windows":
                windows = len(window_starts(max(frames, crop), crop, hop))
            else:
                windows = 1
            self.count["inference.windows"] += windows
            self.count["inference.window_frames"] += windows * crop
            self.count["inference.track_frames"] += frames

    def _after_tune(self, thresholds, a):
        import numpy as np

        preds, labels = a["preds"], a["labels"]
        positive = np.asarray(labels.labels).astype(bool).any(axis=0)
        n = preds.scores.shape[0]
        for j in np.flatnonzero(positive):
            # midpoints between distinct scores, plus the 0.5 fallback
            self.count["evaluation.tune_thresholds.candidates"] += (
                len(np.unique(preds.scores[:, j])) * n)

    # -- report -----------------------------------------------------------------

    def metrics(self, overhead_per_call: float, operations: int) -> dict:
        """Flat name -> value map of every per-layer figure.

        Times and counts are per operation, so runs that fit a different
        number of operations into their window stay comparable; maxima and
        ratios are over the whole run.
        """
        out = {}
        out.update(self.total)
        out.update(self.count)
        out["autodiff.backward.self_s"] = self.self_time["autodiff.backward_s"]
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self.layer_self[layer]
        wall = self.total["bench.op_s"]
        overhead = overhead_per_call * self.wrapped_calls + self.hook_s
        out["trace.wall_s"] = wall
        out["trace.spans"] = float(len(self.spans))
        out["trace.overhead_s"] = overhead
        out = {name: value / operations for name, value in out.items()}

        out["autodiff.tapes_alive_max"] = self.count["autodiff.tapes_alive_max"]
        frames = self.count["inference.track_frames"]
        out["inference.window_overlap"] = (self.count["inference.window_frames"] / frames
                                           if frames else 0.0)
        out["trace.overhead_frac"] = overhead / wall if wall else 0.0
        return out

    def span_records(self) -> list:
        return [s for s in self.spans if s is not None]


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def calibrate(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one (wrapper + span)."""

    def noop(x):
        return x

    traced = Tracer().wrap(noop, "bench.calibration_s")
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        for i in range(calls):
            noop(i)
        t1 = _clock()
        for i in range(calls):
            traced(i)
        t2 = _clock()
        best = min(best, max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return best
