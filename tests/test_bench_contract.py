"""The benchmark's tracer still sees the engine (``bench/tracer.py``).

The per-layer figures of ``bench/run.py --trace 1`` come from wrapping the
engine's public functions and the vjps recorded through ``autodiff.record``.
An engine change that bypasses those names would leave the figures at zero
or filed under ``other`` without failing anything, so this installs the
tracer around two tiny training steps and one eval forward and checks what
it saw.
"""

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from tracer import _VJP_FAMILY, _VJP_KEY, STAGES, Tracer  # noqa: E402
from workloads import N_BINS, N_TAGS, TINY, model_config  # noqa: E402

from rftag import autodiff as ad  # noqa: E402
from rftag import models  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of two train steps and one eval forward."""
    tracer = Tracer()
    tracer.install()
    gc.disable()  # a tape kept alive by a reference cycle would stay alive
    try:
        model = models.build_model(model_config(TINY, shake=True, seed=0))
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((2, 1, N_BINS, TINY.crop_frames)).astype(np.float32))
        y = ad.Tensor((rng.uniform(size=(2, N_TAGS)) < 0.1).astype(np.float32))
        for _ in range(2):
            model.zero_grads()
            with ad.Tape():
                loss = ad.bce_with_logits(model.forward(x, mode="train"), y)
            ad.backward(loss)
        model.forward(x, mode="eval")
    finally:
        gc.enable()
        tracer.uninstall()
    return tracer.metrics(overhead_per_call=0.0, operations=1)


def test_every_conv_lands_in_a_named_stage(traced):
    assert traced["autodiff.conv2d.calls"] > 0
    assert not [k for k in traced if k.startswith("autodiff.conv2d.other.")]
    staged = sum(traced[f"autodiff.conv2d.{stage}.fwd_s"] for stage in STAGES)
    assert staged == pytest.approx(traced["autodiff.conv2d.fwd_s"])


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_times_forward_and_backward(traced, stage):
    assert traced[f"autodiff.conv2d.{stage}.fwd_s"] > 0
    assert traced[f"autodiff.conv2d.{stage}.bwd_s"] > 0


def test_one_tape_alive_at_each_backward(traced):
    assert traced["autodiff.tapes_alive_max"] == 1


@pytest.mark.parametrize("key", ["models.shake_combine_s", "autodiff.pool2d.bwd_s"])
def test_block_and_pool_go_through_traced_names(traced, key):
    # _Block mixes through models.shake_combine, and the pool vjps are
    # recorded as max_pool / avg_pool / global_avg_pool
    assert traced[key] > 0


def test_train_tape_ops_have_a_traced_family():
    # global_avg_pool alone keeps autodiff.pool2d.bwd_s above zero, so a renamed
    # max_pool record would pass the check above; pin the record names instead
    model = models.build_model(model_config(TINY, shake=True, seed=0))
    x = ad.Tensor(np.zeros((1, 1, N_BINS, TINY.crop_frames), dtype=np.float32))
    with ad.Tape() as tape:
        model.forward(x, mode="train")
    names = {rec.name for rec in tape.records}
    assert {"max_pool", "shake_combine"} <= names
    assert names - {"linear", "reshape"} <= set(_VJP_FAMILY) | set(_VJP_KEY)
