import hashlib
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rftag import autodiff as ad
from rftag import models
from rftag.autodiff import Tape, Tensor, backward, bce_with_logits
from rftag.models import (
    ModelConfig,
    TemplateConfig,
    build_model,
    config_echo,
    config_from_echo,
    fa_channel,
    load_model,
    read_checkpoint,
    save_checkpoint,
    shake_combine,
)
from rftag.rf import compute_rf, min_input

from oracles import measure_model_rf, reference_forward


def tiny_config(**kw):
    kw.setdefault("template", TemplateConfig(n_stages=2, blocks_per_stage=1,
                                             channel_plan=(4, 6), pool_stages=1))
    kw.setdefault("rho", 2)
    kw.setdefault("n_tags", 3)
    kw.setdefault("input_bins", 32)
    return ModelConfig(**kw)


def batch(n=2, bins=32, frames=16, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, 1, bins, frames)).astype(np.float32))


def with_statistics(model, seed=0):
    """``model`` with drawn batch-norm statistics, gammas and betas, so that
    every eval scale and shift differs from the identity."""
    rng = np.random.default_rng(seed)
    for state in model.bn_states.values():
        state.mean = rng.standard_normal(state.mean.shape).astype(np.float32)
        state.var = rng.uniform(0.5, 2.0, state.var.shape).astype(np.float32)
    for name, p in model.params.items():
        if name.endswith(".gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(np.float32)
        elif name.endswith(".beta"):
            p.data = (0.1 * rng.standard_normal(p.shape)).astype(np.float32)
    return model


class TestFaChannel:
    def test_five_bins(self):
        x = Tensor(np.zeros((1, 2, 5, 3), dtype=np.float32))
        out = fa_channel(x)
        assert out.shape == (1, 3, 5, 3)
        np.testing.assert_allclose(out.data[0, 2, :, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(out.data[0, 2] == out.data[0, 2, :, :1])  # constant in time

    def test_two_bins_are_the_ends(self):
        out = fa_channel(Tensor(np.zeros((1, 1, 2, 3), dtype=np.float32)))
        np.testing.assert_array_equal(out.data[0, 1], [[0.0] * 3, [1.0] * 3])

    def test_single_bin_zero(self):
        out = fa_channel(Tensor(np.ones((2, 1, 1, 4), dtype=np.float32)))
        np.testing.assert_array_equal(out.data[:, 1], 0.0)

    def test_gradient_slices_back(self):
        x = Tensor(np.ones((1, 1, 4, 2), dtype=np.float64), requires_grad=True)
        with Tape():
            loss = ad.sum_all(fa_channel(x))
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((1, 1, 4, 2)))


class TestShake:
    def test_eval_is_half_half(self):
        rng = np.random.default_rng(0)
        b1 = Tensor(rng.standard_normal((2, 3)))
        b2 = Tensor(rng.standard_normal((2, 3)))
        out = shake_combine(b1, b2, 0.5, 0.5)
        np.testing.assert_array_equal(out.data, 0.5 * b1.data + (1.0 - 0.5) * b2.data)

    def test_eval_identical_branches(self):
        x = Tensor(np.ones((1, 4)))
        g = lambda t: ad.mul(t, Tensor(np.full((1, 4), 2.0)))
        out = ad.add(x, shake_combine(g(x), g(x), 0.5, 0.5))
        np.testing.assert_allclose(out.data, x.data + 2.0)

    def test_alpha_one_picks_branch1(self):
        b1 = Tensor(np.array([[1.0, 2.0]]))
        b2 = Tensor(np.array([[5.0, 5.0]]))
        out = shake_combine(b1, b2, 1.0, 0.3)
        np.testing.assert_array_equal(out.data, b1.data * 1.0)

    def test_backward_uses_beta(self):
        b1 = Tensor(np.ones((1, 2)), requires_grad=True)
        b2 = Tensor(np.ones((1, 2)), requires_grad=True)
        with Tape():
            out = shake_combine(b1, b2, 0.9, 0.2)
            loss = ad.sum_all(out)
        backward(loss)
        np.testing.assert_allclose(b1.grad, 0.2)
        np.testing.assert_allclose(b2.grad, 0.8)

    def test_branch_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            shake_combine(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))), 0.5, 0.5)

    def test_monte_carlo_mean_matches_eval(self):
        rng = np.random.default_rng(1)
        b1 = rng.standard_normal((2, 3))
        b2 = rng.standard_normal((2, 3))
        eval_out = 0.5 * b1 + 0.5 * b2
        n = 10_000
        alphas = rng.uniform(size=n)
        acc = (alphas[:, None, None] * b1 + (1 - alphas[:, None, None]) * b2)
        mc_mean = acc.mean(axis=0)
        stderr = np.abs(b1 - b2) * np.sqrt(1.0 / 12.0) / np.sqrt(n)
        assert np.all(np.abs(mc_mean - eval_out) <= 3 * stderr + 1e-12)

    def test_model_draws_alpha_then_beta_per_block_in_train_only(self, monkeypatch):
        mixes = []

        def spy(b1, b2, alpha, beta, out=None):
            mixes.append((alpha, beta))
            return shake_combine(b1, b2, alpha, beta, out=out)

        monkeypatch.setattr(models, "shake_combine", spy)
        cfg = tiny_config(shake_shake=True, seed=4)
        n_blocks = len(cfg.arch().skips)
        m = build_model(cfg)
        before = m.rng_shake.bit_generator.state
        m.forward(batch(), mode="eval")
        assert m.rng_shake.bit_generator.state == before
        assert mixes == [(0.5, 0.5)] * n_blocks
        mixes.clear()
        m.forward(batch(), mode="train")
        ref = np.random.default_rng(cfg.seed + 1)
        assert mixes == [(float(ref.uniform()), float(ref.uniform())) for _ in range(n_blocks)]


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(tiny_config(seed=7))
        b = build_model(tiny_config(seed=7))
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(seed=1))
        b = build_model(tiny_config(seed=2))
        assert any(not np.array_equal(a.params[k].data, b.params[k].data)
                   for k in a.params)

    def test_fa_adds_one_input_channel_everywhere(self):
        off = build_model(tiny_config(frequency_aware=False))
        on = build_model(tiny_config(frequency_aware=True))
        conv_names = [k for k in off.params if k.endswith(".weight") and off.params[k].ndim == 4]
        assert conv_names
        for k in conv_names:
            assert on.params[k].shape[1] == off.params[k].shape[1] + 1

    def test_shake_doubles_branch_params(self):
        off = build_model(tiny_config(shake_shake=False))
        on = build_model(tiny_config(shake_shake=True))
        def count(model, part):
            return sum(p.size for name, p in model.params.items() if part in name)

        assert count(on, ".br") == 2 * count(off, ".br")
        assert count(on, ".proj") == count(off, ".proj")

    def test_model_holds_zero_weights_and_identity_statistics(self):
        cfg = tiny_config(frequency_aware=True, shake_shake=True)
        m, built = models.Model(cfg), build_model(cfg)
        assert m.params.keys() == built.params.keys()
        for name, p in m.params.items():
            assert p.dtype == np.float32 and p.shape == built.params[name].shape, name
            assert np.array_equal(p.data, np.full(p.shape, 1.0 if name.endswith(".gamma") else 0.0))
            # build_model draws the weights and leaves every vector as Model made it
            assert (p.ndim > 1) != np.array_equal(p.data, built.params[name].data), name
        for state in m.bn_states.values():
            assert state.mean.dtype == state.var.dtype == np.float32
            assert not state.mean.any() and (state.var == 1).all()
        fresh = np.random.default_rng(cfg.seed + 1).bit_generator.state
        assert m.rng_shake.bit_generator.state == built.rng_shake.bit_generator.state == fresh

    def test_default_seed_is_zero(self):
        assert ModelConfig().seed == 0

    def test_unique_param_names(self):
        m = build_model(tiny_config())
        assert len(m.params) == len(set(m.params))

    @pytest.mark.parametrize("kw,message", [
        (dict(input_bins=0), "input_bins must be >= 1, got 0"),
        (dict(input_bins=-3), "input_bins must be >= 1, got -3"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(n_tags=0), "n_tags must be >= 1, got 0"),
        (dict(input_bins=2), "input_bins must be >= 3, the bins the stride plan needs, got 2"),
        (dict(template=TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(4, 6),
                                      pool_stages=2), input_bins=6),
         "input_bins must be >= 7, the bins the stride plan needs, got 6"),
        (dict(rho=5), r"rho must lie in \[0, 4\], got 5"),
    ], ids=["bins-0", "bins-neg", "seed", "tags", "bins-pool1", "bins-pool2", "rho"])
    def test_unusable_config_names_the_field(self, kw, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**kw)


class TestForward:
    def test_output_shape(self):
        m = build_model(tiny_config())
        out = m.forward(batch(), mode="eval")
        assert out.shape == (2, 3)

    def test_eval_deterministic(self):
        m = build_model(tiny_config(shake_shake=True))
        x = batch()
        a = m.forward(x, mode="eval").data
        b = m.forward(x, mode="eval").data
        assert np.array_equal(a, b)

    def test_batch_permutation_equivariance(self):
        m = build_model(tiny_config())
        x = batch(n=4, seed=3)
        perm = np.array([2, 0, 3, 1])
        out = m.forward(x, mode="eval").data
        out_p = m.forward(Tensor(x.data[perm]), mode="eval").data
        np.testing.assert_allclose(out_p, out[perm], rtol=1e-5, atol=1e-6)

    def test_too_few_frames_names_minimum(self):
        m = build_model(tiny_config())
        need = m.min_input[1]
        with pytest.raises(ValueError, match=str(need)):
            m.forward(batch(frames=need - 1), mode="eval")

    def test_train_mode_backward_reaches_all_params(self):
        m = build_model(tiny_config(shake_shake=True, frequency_aware=True))
        x = batch()
        y = Tensor(np.random.default_rng(0).integers(0, 2, size=(2, 3)).astype(np.float32))
        with Tape():
            logits = m.forward(x, mode="train")
            loss = bce_with_logits(logits, y)
        backward(loss)
        missing = [k for k, p in m.params.items() if p.grad is None]
        assert missing == []

    def test_shake_eval_equals_explicit_half_mix(self):
        m = build_model(tiny_config(shake_shake=True))
        x = batch()
        out = m.forward(x, mode="eval").data
        out2 = m.forward(x, mode="eval").data
        assert np.array_equal(out, out2)


class TestEvalReference:
    """The eval forward (coordinate channel inside conv2d, batch norm, relu
    and the residual add in place) against ``reference_forward``."""

    @pytest.mark.parametrize("band_bytes", [None, 4 << 10], ids=["default_bands", "4KiB_bands"])
    @pytest.mark.parametrize("frames", [16, 17, 23])
    @pytest.mark.parametrize("shake", [False, True], ids=["plain", "shake"])
    @pytest.mark.parametrize("fa", [False, True], ids=["no_fa", "fa"])
    def test_eval_forward_is_the_reference_bit_for_bit(self, fa, shake, frames, band_bytes,
                                                       monkeypatch):
        if band_bytes:
            monkeypatch.setattr(ad, "_BAND_BYTES", band_bytes)
        m = with_statistics(build_model(tiny_config(frequency_aware=fa, shake_shake=shake)))
        x = batch(n=3, frames=frames)
        got = m.forward(x, mode="eval").data
        assert np.array_equal(got, reference_forward(m, x).data)
        assert np.array_equal(m.forward(x, mode="eval").data, got)

    @pytest.mark.parametrize("shake", [False, True], ids=["plain", "shake"])
    @pytest.mark.parametrize("fa", [False, True], ids=["no_fa", "fa"])
    def test_eval_under_a_tape_gives_the_reference_gradients(self, fa, shake):
        targets = Tensor((np.random.default_rng(1).uniform(size=(2, 3)) < 0.5).astype(np.float32))
        grads = []
        for forward in (lambda m, x: m.forward(x, mode="eval"), reference_forward):
            m = with_statistics(build_model(tiny_config(frequency_aware=fa, shake_shake=shake)))
            x = batch(frames=17)
            x.requires_grad = True
            with Tape():
                loss = bce_with_logits(forward(m, x), targets)
            backward(loss)
            grads.append({"input": x.grad, **{k: p.grad for k, p in m.params.items()}})
        assert grads[0].keys() == grads[1].keys()
        for name, g in grads[0].items():
            assert g is not None and np.array_equal(g, grads[1][name]), name


class TestTrainReference:
    """A taped train step (relu, shake-shake and the residual add writing
    over their producers' outputs) against ``reference_forward``."""

    @staticmethod
    def step(forward, fa, shake, frames):
        """Loss, parameter gradients and batch-norm statistics of one taped
        train step of a fresh model with drawn statistics."""
        m = with_statistics(build_model(tiny_config(frequency_aware=fa, shake_shake=shake)))
        targets = Tensor((np.random.default_rng(1).uniform(size=(3, 3)) < 0.5).astype(np.float32))
        with Tape():
            loss = bce_with_logits(forward(m, batch(n=3, frames=frames)), targets)
        backward(loss)
        return loss.data, {k: p.grad for k, p in m.params.items()}, m.bn_arrays()

    @pytest.mark.parametrize("frames,band_bytes", [(16, None), (17, None), (16, 4 << 10),
                                                   (17, 4 << 10)],
                             ids=["16", "17", "16-4KiB_bands", "17-4KiB_bands"])
    @pytest.mark.parametrize("shake", [False, True], ids=["plain", "shake"])
    @pytest.mark.parametrize("fa", [False, True], ids=["no_fa", "fa"])
    def test_train_step_is_the_reference_bit_for_bit(self, fa, shake, frames, band_bytes,
                                                     monkeypatch):
        # the reference appends the plane with fa_channel; train reads it in conv2d's bands
        if band_bytes:
            monkeypatch.setattr(ad, "_BAND_BYTES", band_bytes)
        got = self.step(lambda m, x: m.forward(x, mode="train"), fa, shake, frames)
        want = self.step(lambda m, x: reference_forward(m, x, mode="train"), fa, shake, frames)
        assert np.array_equal(got[0], want[0])
        for name, g in got[1].items():
            assert g is not None and np.array_equal(g, want[1][name]), name
        assert got[2].keys() == want[2].keys()
        for name, stat in got[2].items():
            assert np.array_equal(stat, want[2][name]), name

    def test_tape_keeps_each_activation_once(self):
        # relu, the shake mix and the residual add write over their producer's
        # output, so the tape retains about the distinct buffers and no more
        model = build_model(ModelConfig(
            template=TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(8, 16),
                                    pool_stages=1),
            frequency_aware=True, shake_shake=True, n_tags=3, input_bins=64))
        x = Tensor(np.random.default_rng(7).standard_normal((8, 1, 64, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                model.forward(x, mode="train")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        names = [rec.name for rec in tape.records]
        assert {"relu", "shake_combine", "add"} <= set(names)
        # conv2d reads the coordinate plane in its bands: no widened input copy
        assert "fa_channel" not in names
        for rec in tape.records:
            if rec.name in ("relu", "shake_combine", "add"):
                producer = rec.inputs[-1]._record
                assert producer.name in ("batchnorm2d", "shake_combine"), rec.name
                assert np.shares_memory(rec.output.data, producer.output.data), rec.name
        # every array the tape holds, as an output or an input, less the
        # input and parameters: the conv, batch-norm and pool outputs and the head
        def root(t):
            return t.data if t.data.base is None else t.data.base

        buffers, owners = {}, {}
        for rec in tape.records:
            owners.setdefault(id(root(rec.output)), rec.name)
            for t in (rec.output, *rec.inputs):
                buffers[id(root(t))] = root(t).nbytes
        for t in (x, *model.params.values()):
            buffers.pop(id(t.data), None)
        assert set(buffers) <= set(owners)
        assert {owners[b] for b in buffers} == {"conv2d", "batchnorm2d", "max_pool",
                                                 "global_avg_pool", "linear"}
        distinct = sum(buffers.values())
        assert retained <= 1.05 * distinct, f"retained {retained} bytes for {distinct} of buffers"


class TestFaSanity:
    def test_fa_breaks_shift_equivariance(self):
        cfg = tiny_config(frequency_aware=True, input_bins=32)
        m = build_model(cfg)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((1, 1, 32, 16)).astype(np.float32)
        shifted = np.roll(base, 8, axis=2)
        d_fa = np.abs(m.forward(Tensor(base), "eval").data
                      - m.forward(Tensor(shifted), "eval").data).max()
        assert d_fa > 0
        # report the comparison against an FA-off model (not asserted)
        diffs = []
        for seed in range(10):
            m_off = build_model(tiny_config(frequency_aware=False, seed=seed))
            m_on = build_model(tiny_config(frequency_aware=True, seed=seed))
            d_off = np.abs(m_off.forward(Tensor(base), "eval").data
                           - m_off.forward(Tensor(shifted), "eval").data).max()
            d_on = np.abs(m_on.forward(Tensor(base), "eval").data
                          - m_on.forward(Tensor(shifted), "eval").data).max()
            diffs.append((d_on, d_off))
        mean_on = np.mean([d[0] for d in diffs])
        mean_off = np.mean([d[1] for d in diffs])
        print(f"\nfrequency-shift sensitivity: FA-on {mean_on:.4f} vs FA-off {mean_off:.4f}")


# (bins, frames) that rf.min_input gives the two-stage test templates, by pool stages
EXPECTED_MIN_INPUT = {0: (1, 1), 1: (3, 3), 2: (7, 7)}


class TestModelRf:
    @pytest.mark.parametrize("fa,shake", [(False, False), (True, True)])
    def test_analytic_equals_empirical(self, fa, shake):
        cfg = tiny_config(frequency_aware=fa, shake_shake=shake)
        report = compute_rf(cfg.arch())
        rf_f, rf_t = measure_model_rf(cfg)
        assert (rf_f, rf_t) == (report.rf_freq, report.rf_time)

    @pytest.mark.parametrize("pool_stages", [0, 1, 2])
    @pytest.mark.parametrize("time_kernel", [1, 3, 5])
    @pytest.mark.parametrize("rho_time", [None, 0])
    def test_template_grid(self, pool_stages, time_kernel, rho_time):
        # two blocks per stage and a width change, so stage 2 opens with a projection
        template = TemplateConfig(n_stages=2, blocks_per_stage=2, channel_plan=(4, 6),
                                  pool_stages=pool_stages, time_kernel=time_kernel)
        cfg = tiny_config(template=template, rho_time=rho_time,
                          frequency_aware=True, shake_shake=True)
        m = build_model(cfg)
        assert "s2b1.proj.weight" in m.params
        bins, need = m.min_input
        assert m.forward(batch(frames=need), mode="eval").shape == (2, 3)
        with pytest.raises(ValueError, match=f"at least {need}"):
            m.forward(batch(frames=need - 1), mode="eval")
        report = compute_rf(cfg.arch())
        assert measure_model_rf(cfg) == (report.rf_freq, report.rf_time)
        # the frequency axis: the least bins build and run, one less is refused
        # by the config and breaks the trunk itself
        assert m.min_input == min_input(cfg.arch()) == EXPECTED_MIN_INPUT[pool_stages]
        narrow = build_model(replace(cfg, input_bins=bins))
        assert narrow.forward(batch(bins=bins, frames=need), mode="eval").shape == (2, 3)
        with pytest.raises(ValueError, match=f"input_bins must be >= {bins},.* got {bins - 1}"):
            replace(cfg, input_bins=bins - 1)
        with pytest.raises(ValueError, match="exceeds"):
            models._run(narrow.trunk, batch(bins=bins - 1, frames=need), "eval")


class TestCheckpoint:
    def test_roundtrip_bit_identical_eval(self, tmp_path):
        m = build_model(tiny_config(shake_shake=True, frequency_aware=True))
        x = batch()
        before = m.forward(x, mode="eval").data.copy()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m, extra={"norm_mean": "-42.0"})
        m2, echo = load_model(p)
        after = m2.forward(x, mode="eval").data
        assert np.array_equal(before, after)
        assert echo["norm_mean"] == "-42.0"

    def test_load_draws_no_init(self, tmp_path, monkeypatch):
        m = build_model(tiny_config(shake_shake=True, frequency_aware=True))
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m)
        default_rng = np.random.default_rng

        class NoInitDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *args, **kwargs):
                raise AssertionError("an init was drawn")

            def uniform(self, *args, **kwargs):
                return self.rng.uniform(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", NoInitDraws)
        with pytest.raises(AssertionError, match="an init was drawn"):
            build_model(m.config)
        loaded, _ = load_model(p)
        assert loaded.params.keys() == m.params.keys()
        assert all(np.array_equal(loaded.params[k].data, v.data) for k, v in m.params.items())

    def test_byte_stable(self, tmp_path):
        m = build_model(tiny_config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, m)
        m2, _ = load_model(p1)
        save_checkpoint(p2, m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_echo_roundtrip(self, tmp_path):
        cfg = tiny_config(rho=1, rho_time=2, frequency_aware=True, seed=9)
        m = build_model(cfg)
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, m)
        _, _, echo = read_checkpoint(p)
        assert config_from_echo(echo) == cfg

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(p)

    def test_truncated_names_path_and_entry(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, build_model(tiny_config()))
        raw = p.read_bytes()
        bn_at = raw.index(b"in1.bn.mean")
        cases = [(4, "bad magic"), (10, "parameter entry count"), (14, "parameter entry 0"),
                 (60, "parameter entry 'in1.weight'"),
                 (bn_at + 20, "batchnorm entry 'in1.bn.mean'"),
                 (len(raw) - 3, "config echo")]
        # 1-3 bytes into the echo's length field, just before its first key
        echo_at = raw.rindex(b"frequency_aware=") - 4
        cases += [(echo_at + k, "config echo") for k in (1, 2, 3)]
        for keep, where in cases:
            p.write_bytes(raw[:keep])
            with pytest.raises(ValueError) as err:
                read_checkpoint(p)
            assert str(p) in str(err.value) and where in str(err.value), (keep, str(err.value))

    def test_missing_echo_field_names_path_and_field(self, tmp_path):
        m = build_model(tiny_config())
        p = tmp_path / "e.ckpt"
        save_checkpoint(p, m)
        echo = config_echo(m.config)
        text = "\n".join(f"{k}={v}" for k, v in sorted(echo.items())).encode()
        raw = p.read_bytes()
        assert raw.endswith(text)
        del echo["rho"]
        cut = "\n".join(f"{k}={v}" for k, v in sorted(echo.items())).encode()
        p.write_bytes(raw[:-len(text) - 4] + struct.pack("<I", len(cut)) + cut)
        with pytest.raises(ValueError, match=re.escape(f"{p}: config echo has no field 'rho'")):
            load_model(p)

    @pytest.mark.parametrize("old,new,message", [
        (b"rho=2", b"rho=x", "config echo field 'rho': invalid literal for int()"),
        (b"rho=2", b"rho=\xff", "'utf-8' codec can't decode byte 0xff"),
        (b"template.time_kernel=3", b"template.time_kernel=2",
         "time_kernel must be odd and >= 1, got 2"),
        (b"input_bins=32", b"input_bins=-1", "input_bins must be >= 1, got -1"),
    ], ids=["int", "utf8", "time-kernel", "input-bins"])
    def test_bad_echo_value_names_path_and_field(self, tmp_path, old, new, message):
        p = tmp_path / "v.ckpt"
        save_checkpoint(p, build_model(tiny_config()))
        raw = p.read_bytes()
        assert raw.count(old) == 1 and len(new) == len(old)
        p.write_bytes(raw.replace(old, new))
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_model(p)

    @staticmethod
    def with_echo_lines(tmp_path, edit) -> tuple:
        """A tiny checkpoint whose echo lines are ``edit(lines)``; returns
        (path, the lines written)."""
        p = tmp_path / "f.ckpt"
        save_checkpoint(p, build_model(tiny_config()))
        raw = p.read_bytes()
        text = raw[raw.rindex(b"frequency_aware="):]
        lines = text.decode().split("\n")
        assert lines == sorted(lines)
        lines = edit(lines)
        new = "\n".join(lines).encode()
        p.write_bytes(raw[:-len(text) - 4] + struct.pack("<I", len(new)) + new)
        return p, lines

    @pytest.mark.parametrize("edit", ["no-equals", "trailing-newline", "repeated-key",
                                      "swapped"])
    def test_echo_lines_not_as_written_name_path_and_line(self, tmp_path, edit):
        def edited(lines):
            rho = lines.index("rho=2")
            return {"no-equals": lines + ["zz"],
                    "trailing-newline": lines + [""],
                    "repeated-key": lines[:rho + 1] + lines[rho:],
                    "swapped": [lines[1], lines[0]] + lines[2:]}[edit]

        p, lines = self.with_echo_lines(tmp_path, edited)
        # the line without "=", or whose key does not sort after the one before
        i = {"no-equals": len(lines) - 1, "trailing-newline": len(lines) - 1,
             "repeated-key": lines.index("rho=2") + 1, "swapped": 1}[edit]
        with pytest.raises(ValueError) as err:
            load_model(p)
        assert str(err.value) == (f"{p}: config echo line {i + 1} {lines[i]!r} is not as "
                                  f"written: one key=value line per field, in sorted key order")

    @staticmethod
    def with_echo_value(tmp_path, key, text):
        """A tiny checkpoint whose echo field ``key`` holds ``text``."""
        p, _ = TestCheckpoint.with_echo_lines(tmp_path, lambda lines: [
            f"{key}={text}" if line.startswith(f"{key}=") else line for line in lines])
        return p

    def test_config_refusal_of_a_value_as_written_names_path(self, tmp_path):
        p = self.with_echo_value(tmp_path, "input_bins", "2")
        with pytest.raises(ValueError) as err:
            load_model(p)
        assert str(err.value) == (f"{p}: input_bins must be >= 3, the bins the stride plan "
                                  f"needs, got 2")

    @pytest.mark.parametrize("key,text,written", [
        ("input_bins", "+032", "32"),
        ("input_bins", " 32", "32"),
        ("template.channel_plan", "4, 6", "4,6"),
        ("frequency_aware", "Fakse", "False"),
        ("frequency_aware", "true", "False"),
        ("input_bins", "00", "0"),
        ("input_bins", "02", "2"),
    ], ids=["plus-and-zero", "space", "plan-space", "bool", "bool-lower", "input-bins",
            "input-bins-pool1"])
    def test_echo_value_not_as_written_names_path_and_field(self, tmp_path, key, text, written):
        p = self.with_echo_value(tmp_path, key, text)
        with pytest.raises(ValueError) as err:
            load_model(p)
        assert str(err.value) == (f"{p}: config echo field {key!r}: {text!r} is not the "
                                  f"written text {written!r} of its value")

    @staticmethod
    def damaged(tmp_path, entry: bytes, value=None, rename=None):
        """A tiny checkpoint with ``entry`` renamed, or its first value overwritten."""
        p = tmp_path / "d.ckpt"
        save_checkpoint(p, build_model(tiny_config()))
        raw = bytearray(p.read_bytes())
        at = raw.index(entry + struct.pack("<I", 1))  # a name followed by rank 1
        if rename is not None:
            raw[at:at + len(entry)] = rename
        else:
            struct.pack_into("<f", raw, at + len(entry) + 8, value)
        p.write_bytes(bytes(raw))
        return p

    def test_renamed_entry_names_path_and_entry(self, tmp_path):
        p = self.damaged(tmp_path, b"in1.bn.mean", rename=b"in1.bn.meen")
        with pytest.raises(ValueError, match=re.escape(f"{p}: batchnorm entry 'in1.bn.mean' "
                                                       "is missing")):
            load_model(p)

    def test_negative_variance_names_path_and_entry(self, tmp_path):
        p = self.damaged(tmp_path, b"in1.bn.var", value=-1.0)
        with pytest.raises(ValueError, match=re.escape(f"{p}: batchnorm entry 'in1.bn.var' "
                                                       "holds a negative variance")):
            load_model(p)

    def test_zero_variance_is_accepted(self, tmp_path):
        # a channel that never varied has variance 0, which batch norm's eps covers
        p = self.damaged(tmp_path, b"in1.bn.var", value=0.0)
        model, _ = load_model(p)
        assert model.bn_states["in1.bn"].var[0] == 0.0

    def test_nan_variance_names_path_and_entry(self, tmp_path):
        p = self.damaged(tmp_path, b"in1.bn.var", value=float("nan"))
        with pytest.raises(ValueError, match=re.escape(f"{p}: batchnorm entry 'in1.bn.var' "
                                                       "holds a non-finite value")):
            load_model(p)

    @pytest.mark.parametrize("extra,key", [
        ({"tags": "x,y\nnorm_mean=99"}, "tags"),
        ({"a=b": "1"}, "a=b"),
        ({"a\nb": "1"}, "a\nb"),
    ], ids=["newline-in-value", "equals-in-key", "newline-in-key"])
    def test_echo_line_that_cannot_be_read_back_is_refused(self, tmp_path, extra, key):
        p = tmp_path / "r.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"{p}: config echo field {key!r}")):
            save_checkpoint(p, build_model(tiny_config()), extra=extra)
        assert not p.exists()

    @pytest.mark.parametrize("tags", [["a,b", "c"], ("a", "b,c"), []],
                             ids=["comma-in-list-item", "comma-in-tuple-item", "empty-list"])
    def test_list_that_would_not_read_back_as_itself_is_refused(self, tmp_path, tags):
        p = tmp_path / "l.ckpt"
        with pytest.raises(ValueError) as err:
            save_checkpoint(p, build_model(tiny_config()), extra={"tags": tags})
        assert str(err.value) == (f"{p}: config echo field 'tags' = {tags!r}: a list or tuple "
                                  f"needs at least one item and no item holding ','")
        assert not p.exists()

    @pytest.mark.parametrize("tags,text", [
        (["a", "b"], "a,b"), (("a", "b"), "a,b"), (["a"], "a"), ("a,b,c", "a,b,c"),
    ], ids=["list", "tuple", "one-item", "str-with-commas"])
    def test_value_that_reads_back_as_itself_is_written_as_its_text(self, tmp_path, tags, text):
        p = tmp_path / "ok.ckpt"
        save_checkpoint(p, build_model(tiny_config()), extra={"tags": tags})
        _, _, echo = read_checkpoint(p)
        assert echo["tags"] == text

    @pytest.mark.parametrize("extra,key", [
        ({"seed": "9", "input_bins": "40", "tags": "a"}, "input_bins"),
        ({"template.n_stages": 1}, "template.n_stages"),
    ], ids=["top-level", "template"])
    def test_extra_naming_a_config_field_is_refused(self, tmp_path, extra, key):
        p = tmp_path / "x.ckpt"
        with pytest.raises(ValueError) as err:
            save_checkpoint(p, build_model(tiny_config(seed=3)), extra=extra)
        assert str(err.value) == f"{p}: extra field {key!r} would overwrite the config echo"
        assert not p.exists()

    def test_trailing_bytes_are_counted(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, build_model(tiny_config()))
        p.write_bytes(p.read_bytes() + bytes(3))
        with pytest.raises(ValueError) as err:
            load_model(p)
        assert str(err.value) == f"{p}: 3 bytes follow the config echo"

    def test_carriage_return_in_an_echo_value_round_trips(self, tmp_path):
        p = tmp_path / "cr.ckpt"
        save_checkpoint(p, build_model(tiny_config()), extra={"tags": "a,b,c\r", "z": "\r"})
        _, _, echo = read_checkpoint(p)
        assert echo["tags"] == "a,b,c\r" and echo["z"] == "\r"

    def test_loaders_want_the_model_entries_and_shapes(self):
        m = build_model(tiny_config())
        params, bn = m.state_arrays(), m.bn_arrays()
        with pytest.raises(ValueError, match=re.escape("parameter entry 'head.bias': shape (4,)")):
            m.load_state_arrays(dict(params, **{"head.bias": np.zeros(4)}))
        with pytest.raises(ValueError, match="parameter entry 'extra' is not in the model"):
            m.load_state_arrays(dict(params, extra=np.zeros(1)))
        with pytest.raises(ValueError, match="batchnorm entry 'extra.var' is not in the model"):
            m.load_bn_arrays(dict(bn, **{"extra.var": np.ones(1)}))

    @pytest.mark.parametrize("section,entry,value,message", [
        ("parameter", "head.bias", np.nan, "holds a non-finite value"),
        ("parameter", "in1.weight", -np.inf, "holds a non-finite value"),
        ("batchnorm", "in1.bn.mean", np.nan, "holds a non-finite value"),
        ("batchnorm", "in1.bn.var", -1.0, "holds a negative variance"),
    ], ids=["nan-param", "inf-param", "nan-mean", "negative-var"])
    def test_loaders_refuse_a_non_finite_entry_or_negative_variance(self, section, entry,
                                                                    value, message):
        m = build_model(tiny_config())
        before = {**m.state_arrays(), **m.bn_arrays()}
        arrays = m.state_arrays() if section == "parameter" else m.bn_arrays()
        arrays[entry] = arrays[entry].copy()
        arrays[entry].flat[-1] = value
        load = m.load_state_arrays if section == "parameter" else m.load_bn_arrays
        with pytest.raises(ValueError) as err:
            load(arrays)
        assert str(err.value) == f"{section} entry {entry!r} {message}"
        after = {**m.state_arrays(), **m.bn_arrays()}
        assert all(np.array_equal(before[k], after[k]) for k in before)


# A checkpoint of a fixed config and seed, pinned across versions: parameter
# names, insertion order, initialization draws and the echo format.
GOLDEN_CONFIG = dict(rho_time=1, frequency_aware=True, shake_shake=True, seed=11)
GOLDEN_SHA256 = "4f716d27a95e6a0128b1a390d4732a20122b3eb20e53acd4b53d24038b478d55"
GOLDEN_ECHO = {
    "template.n_stages": "2", "template.blocks_per_stage": "1",
    "template.channel_plan": "4,6", "template.pool_stages": "1", "template.time_kernel": "3",
    "rho": "2", "rho_time": "1", "frequency_aware": "True", "shake_shake": "True",
    "n_tags": "3", "input_bins": "32", "seed": "11",
}


def test_template_config_is_the_rf_template():
    from rftag import rf
    assert models.TemplateConfig is rf.TemplateConfig


class TestGoldenCheckpoint:
    def test_checkpoint_sha256(self, tmp_path):
        p = tmp_path / "golden.ckpt"
        save_checkpoint(p, build_model(tiny_config(**GOLDEN_CONFIG)))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN_SHA256

    def test_config_echo(self):
        echo = config_echo(tiny_config(**GOLDEN_CONFIG))
        assert echo == GOLDEN_ECHO
        assert config_from_echo(echo) == tiny_config(**GOLDEN_CONFIG)
