import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from rftag import autodiff as ad
from rftag import models, training
from rftag.autodiff import AdamState, Tape, Tensor, adam_step, backward, bce_with_logits
from rftag.evaluation import LabelSet, PredictionSet, macro_pr_auc, snapshot_ensemble
from rftag.inference import crop_window
from rftag.models import ModelConfig, TemplateConfig, build_model, load_model
from rftag.training import (
    METRICS_HEADER,
    SWAState,
    TaggedClip,
    TrainConfig,
    lr_at,
    mixup_batch,
    normalization_stats,
    refresh_bn_statistics,
    swa_update,
    train,
)

from oracles import reference_forward


class TestSchedule:
    def test_paper_boundaries_exact(self):
        cfg = TrainConfig()
        assert lr_at(10, cfg) == 1e-4
        # exactly lr_peak, where the ramp's formula would round to 2.999...e-4
        assert lr_at(10, replace(cfg, lr_peak=3e-4, warmup_start_factor=0.1)) == 3e-4
        assert lr_at(69, cfg) == 1e-4
        assert lr_at(70, cfg) == 1e-4
        for epoch in range(120, 200):
            assert lr_at(epoch, cfg) == 1e-6

    def test_midpoint_of_decay(self):
        cfg = TrainConfig()
        want = 1e-4 + (95 - 70) / 50 * (1e-6 - 1e-4)
        assert lr_at(95, cfg) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(5.05e-5, rel=1e-12)

    def test_warmup_ramp(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(1e-6, rel=1e-12)  # peak/100
        ramp = [lr_at(e, cfg) for e in range(10)]
        assert ramp == sorted(ramp)
        start, peak = cfg.lr_peak * cfg.warmup_start_factor, cfg.lr_peak
        assert lr_at(5, cfg) == start + (peak - start) * 0.5

    def test_continuity_at_segment_joints(self):
        cfg = TrainConfig()
        # limits from the left segment meet the right segment exactly
        w, c_end, d_end = 10, 70, 120
        start = cfg.lr_peak * cfg.warmup_start_factor
        assert start + (cfg.lr_peak - start) * (w / w) == lr_at(w, cfg)
        assert lr_at(c_end - 1, cfg) == cfg.lr_peak
        f = (d_end - c_end) / 50
        assert (1 - f) * cfg.lr_peak + f * cfg.lr_final == lr_at(d_end, cfg)

    def test_out_of_range_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="epoch"):
            lr_at(200, cfg)
        with pytest.raises(ValueError, match="epoch"):
            lr_at(-1, cfg)

    def test_segment_sum_invariant(self):
        with pytest.raises(ValueError, match="total_epochs"):
            TrainConfig(total_epochs=100)


class TestMixup:
    def batch(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, 1, 8, 8)).astype(np.float32))
        y = Tensor(rng.integers(0, 2, size=(n, 3)).astype(np.float32))
        return x, y

    def test_lambda_one_identity(self):
        x, y = self.batch()
        # Beta(0.01, 0.01) often rounds to exactly 1.0: find a seed whose
        # same-seeded draw does so and whose permutation moves a row
        for seed in range(100):
            check = np.random.default_rng(seed)
            if check.beta(0.01, 0.01) == 1.0 and (check.permutation(4) != np.arange(4)).any():
                xm, ym, lam = mixup_batch(x, y, 0.01, np.random.default_rng(seed))
                assert lam == 1.0
                np.testing.assert_array_equal(xm.data, x.data)
                np.testing.assert_array_equal(ym.data, y.data)
                return
        pytest.fail("no seed drew lambda 1 with a moving permutation")

    def test_two_rows_swapped(self):
        x = Tensor(np.array([[0.0], [2.0]], dtype=np.float32))
        y = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        # the swap permutation, found by drawing until it appears
        for seed in range(100):
            check = np.random.default_rng(seed)
            lam = float(check.beta(0.3, 0.3))
            if list(check.permutation(2)) == [1, 0]:
                xm, ym, lam_got = mixup_batch(x, y, 0.3, np.random.default_rng(seed))
                assert lam_got == lam
                np.testing.assert_allclose(xm.data, [[2 * (1 - lam)], [2 * lam]], rtol=1e-6)
                np.testing.assert_allclose(ym.data, [[lam, 1 - lam], [1 - lam, lam]], rtol=1e-6)
                return
        pytest.fail("no seed produced the swap permutation")

    def test_label_mass_conserved(self):
        x, y = self.batch(n=6, seed=2)
        rng = np.random.default_rng(3)
        check = np.random.default_rng(3)
        lam = float(check.beta(0.3, 0.3))
        perm = check.permutation(6)
        xm, ym, lam_got = mixup_batch(x, y, 0.3, rng)
        assert lam_got == lam
        want = lam * y.data.sum() + (1 - lam) * y.data[perm].sum()
        assert ym.data.sum() == pytest.approx(want, abs=1e-6)

    def test_beta_mean_near_half(self):
        rng = np.random.default_rng(4)
        lams = rng.beta(0.3, 0.3, size=10_000)
        assert abs(lams.mean() - 0.5) < 0.01

    def test_small_batch_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        y = Tensor(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            mixup_batch(x, y, 0.3, np.random.default_rng(0))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
    def test_alpha_that_is_not_positive_is_refused(self, alpha):
        x = Tensor(np.zeros((2, 1, 4, 4)))
        y = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError) as err:
            mixup_batch(x, y, alpha, np.random.default_rng(0))
        assert str(err.value) == f"mixup alpha must be positive, got {alpha}"

    def test_infinite_alpha_is_refused(self):
        # Beta(inf, inf) has no draw: numpy gives nan for lambda
        x = Tensor(np.zeros((2, 1, 4, 4)))
        y = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError) as err:
            mixup_batch(x, y, float("inf"), np.random.default_rng(0))
        assert str(err.value) == "mixup alpha must be finite, got inf"


class TestSWA:
    def test_absorb_same_twice(self):
        w = {"a": np.array([1.0, 2.0])}
        state = swa_update(swa_update(SWAState(), w), w)
        np.testing.assert_array_equal(state.average["a"], w["a"])
        assert state.count == 2

    def test_scalar_mean(self):
        state = SWAState()
        swa_update(state, {"x": np.array([0.0])})
        swa_update(state, {"x": np.array([2.0])})
        np.testing.assert_array_equal(state.average["x"], [1.0])

    def test_five_snapshots_match_direct_mean(self):
        rng = np.random.default_rng(5)
        snaps = [{"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
                 for _ in range(5)]
        state = SWAState()
        for s in snaps:
            swa_update(state, s)
        for key in ("w", "b"):
            direct = np.mean([s[key] for s in snaps], axis=0)
            err = np.abs(state.average[key] - direct) / np.maximum(np.abs(direct), 1e-300)
            assert err.max() < 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        snaps = [{"w": rng.standard_normal(5)} for _ in range(4)]
        a, b = SWAState(), SWAState()
        for s in snaps:
            swa_update(a, s)
        for s in reversed(snaps):
            swa_update(b, s)
        np.testing.assert_allclose(a.average["w"], b.average["w"], rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        state = swa_update(SWAState(), {"w": np.zeros(3)})
        with pytest.raises(ValueError, match="shape"):
            swa_update(state, {"w": np.zeros(4)})


class TestCrop:
    def test_exact_length_identity(self):
        v = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = crop_window(v, 4)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, v)

    def test_center_of_double_length(self):
        v = np.arange(8, dtype=np.float32)[None, :].repeat(2, axis=0)
        out = crop_window(v, 4)
        np.testing.assert_array_equal(out[0], [2, 3, 4, 5])

    def test_short_input_tiled(self):
        v = np.array([[1.0, 2.0]], dtype=np.float32)
        out = crop_window(v, 5)
        assert out.shape == (1, 5)
        np.testing.assert_array_equal(out[0], [1, 2, 1, 2, 1])

    def test_random_offsets_within_range(self):
        rng = np.random.default_rng(7)
        v = np.arange(16, dtype=np.float32)[None, :]
        firsts = {crop_window(v, 4, rng)[0, 0] for _ in range(50)}
        assert firsts <= set(np.arange(13.0))
        assert len(firsts) > 3


def make_band_clips(n, tags=3, bins=32, frames=24, seed=0):
    """Clips where tag j means rows [j*8, j*8+8) are elevated."""
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(n):
        labels = (rng.uniform(size=tags) < 0.5).astype(np.float32)
        if labels.sum() == 0:
            labels[rng.integers(0, tags)] = 1.0
        values = rng.standard_normal((bins, frames)).astype(np.float32) * 2.0 - 60.0
        for j in range(tags):
            if labels[j]:
                values[j * 8:(j + 1) * 8] += 40.0
        clips.append(TaggedClip(track_id=f"t{i:03d}", values=values, labels=labels))
    return clips


def tiny_train_setup(seed=0):
    cfg = ModelConfig(template=TemplateConfig(n_stages=2, blocks_per_stage=1,
                                              channel_plan=(4, 6), pool_stages=1),
                      rho=2, n_tags=3, input_bins=32, seed=seed)
    tc = TrainConfig(total_epochs=2, warmup_epochs=1, constant_epochs=1,
                     decay_epochs=0, tail_epochs=0, batch_size=2, crop_frames=16,
                     swa_every=1, seed=seed)
    return cfg, tc


class TestTrainLoop:
    def test_two_epoch_bookkeeping(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        art = train(build_model(cfg), clips, clips[:2], ["a", "b", "c"], tc, tmp_path / "run")
        assert len(art.metrics) == 2
        text = art.metrics_path.read_text().splitlines()
        assert text[0] == METRICS_HEADER
        assert len(text) == 3
        assert art.best_path.exists()

    def test_determinism(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        a = train(build_model(cfg), clips, clips[:2], list("abc"), tc, tmp_path / "r1")
        b = train(build_model(cfg), clips, clips[:2], list("abc"), tc, tmp_path / "r2")
        assert a.metrics_path.read_text() == b.metrics_path.read_text()

    def test_swa_checkpoints_written(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        art = train(build_model(cfg), clips, clips[:2], list("abc"), tc, tmp_path / "run")
        # warmup 1, swa_every 1: absorption at epoch 1
        assert [p.name for p in art.swa_paths] == ["swa_epoch1.ckpt"]
        assert art.swa_paths[0].exists()

    def test_val_pr_auc_is_macro_pr_auc_of_the_reference_on_center_crops(self, tmp_path):
        # the last epoch's row and the best checkpoint's echo, each against
        # sigmoid(reference_forward) of that model on (center crop - mean) / std
        cfg, tc = tiny_train_setup(seed=2)
        clips, val = make_band_clips(6, seed=2), make_band_clips(8, seed=3)
        model = build_model(cfg)
        art = train(model, clips, val, list("abc"), tc, tmp_path / "run")
        mean, std = normalization_stats(clips)
        labels = LabelSet(ids=[c.track_id for c in val], tags=list("abc"),
                          labels=np.stack([c.labels for c in val]))

        def val_pr_auc(m):
            scores = []
            for c in val:
                off = (c.values.shape[1] - tc.crop_frames) // 2
                window = c.values[:, off:off + tc.crop_frames]
                x = (window - np.float32(mean)) / np.float32(std)
                logits = reference_forward(m, Tensor(x[None, None])).data[0]
                scores.append(1.0 / (1.0 + np.exp(-logits.astype(np.float64))))
            preds = PredictionSet(ids=labels.ids, tags=labels.tags, scores=np.array(scores))
            return macro_pr_auc(preds, labels).macro_pr_auc

        last = art.metrics_path.read_text().splitlines()[-1].split(",")
        assert float(last[3]) == pytest.approx(val_pr_auc(model), abs=5e-7)
        best, echo = load_model(art.best_path)
        assert float(echo["val_pr_auc"]) == pytest.approx(val_pr_auc(best), abs=1e-12)

    def test_tied_validation_keeps_the_earlier_best(self, tmp_path, monkeypatch):
        cfg, tc = tiny_train_setup()
        monkeypatch.setattr(training, "_validation_pr_auc", lambda *args: 0.5)
        art = train(build_model(cfg), make_band_clips(4), make_band_clips(2), list("abc"), tc,
                    tmp_path / "run")
        assert [row[4] for row in art.metrics] == [1, 0]
        assert load_model(art.best_path)[1]["epoch"] == "0"

    def test_swa_model_draws_no_init(self, tmp_path, monkeypatch):
        cfg, tc = tiny_train_setup()
        model = build_model(cfg)
        calls = []

        def spy(config):
            calls.append(config)
            return build_model(config)

        bound = [(module, name) for module_name, module in list(sys.modules.items())
                 if module_name == "rftag" or module_name.startswith("rftag.")
                 for name, value in vars(module).items() if value is build_model]
        assert (models, "build_model") in bound
        for module, name in bound:
            monkeypatch.setattr(module, name, spy)
        art = train(model, make_band_clips(4), make_band_clips(2), list("abc"), tc,
                    tmp_path / "run")
        assert len(art.swa_paths) == 1 and not calls

    def test_batches_of_two_are_mixed(self, tmp_path, monkeypatch):
        cfg, tc = tiny_train_setup()
        rows = []

        def spy(x, y, alpha, rng):
            rows.append(x.shape[0])
            return mixup_batch(x, y, alpha, rng)

        monkeypatch.setattr(training, "mixup_batch", spy)
        train(build_model(cfg), make_band_clips(4), make_band_clips(2), list("abc"), tc,
              tmp_path / "run")
        # 4 clips in batches of 2 for 2 epochs: every batch is mixed
        assert tc.batch_size == 2 and rows == [2] * 4

    def test_empty_split_rejected(self, tmp_path):
        cfg, tc = tiny_train_setup()
        with pytest.raises(ValueError, match="non-empty"):
            train(build_model(cfg), [], [], ["a"], tc, tmp_path / "run")
        for train_clips, val_clips in (([], make_band_clips(2)), (make_band_clips(4), [])):
            with pytest.raises(ValueError, match="non-empty"):
                train(build_model(cfg), train_clips, val_clips, list("abc"), tc, tmp_path / "run")

    def test_loss_decreases_first_10_steps(self):
        for seed in range(5):
            cfg, _ = tiny_train_setup(seed=seed)
            model = build_model(cfg)
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((4, 1, 32, 16)).astype(np.float32))
            y = Tensor((rng.uniform(size=(4, 3)) < 0.5).astype(np.float32))
            adam = AdamState()
            losses = []
            for _ in range(10):
                model.zero_grads()
                with Tape():
                    loss = bce_with_logits(model.forward(x, mode="train"), y)
                backward(loss)
                adam_step(model.params, {k: p.grad for k, p in model.params.items()},
                          adam, lr=1e-4)
                losses.append(loss.item())
            assert all(a > b for a, b in zip(losses, losses[1:])), \
                f"seed {seed}: losses not strictly decreasing: {losses}"


class TestNormalization:
    def test_global_stats(self):
        clips = [TaggedClip("a", np.full((2, 3), 2.0), np.array([1.0])),
                 TaggedClip("b", np.full((2, 3), 4.0), np.array([1.0]))]
        mean, std = normalization_stats(clips)
        assert mean == pytest.approx(3.0)
        assert std == pytest.approx(1.0)

    @pytest.mark.parametrize("frames", [[], [0], [0, 0]], ids=["no-clip", "empty", "two-empty"])
    def test_clips_without_a_value_are_refused(self, frames):
        clips = [TaggedClip(f"t{i}", np.zeros((2, n)), np.array([1.0]))
                 for i, n in enumerate(frames)]
        with pytest.raises(ValueError) as err:
            normalization_stats(clips)
        assert str(err.value) == f"clips hold no values to normalize by ({len(frames)} clips)"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_clip_and_cell(self, bad):
        values = np.full((2, 3), 1.0)
        values[1, 2] = bad
        clips = [TaggedClip("a", np.ones((2, 3)), np.array([1.0])),
                 TaggedClip("b", values, np.array([1.0]))]
        with pytest.raises(ValueError) as err:
            normalization_stats(clips)
        assert str(err.value) == f"track 'b' holds a non-finite value {bad} at (bin, frame) (1, 2)"

    @pytest.mark.parametrize("values", [[[1e200, 1.0]], [[1e308], [1e308]]],
                             ids=["squares", "sum"])
    def test_sums_that_overflow_are_refused(self, values):
        # finite float64 values whose sum of squares, or sum, overflows
        clips = [TaggedClip("a", np.array(values), np.array([1.0]))]
        with pytest.raises(ValueError) as err:
            normalization_stats(clips)
        assert str(err.value) == "the float64 sums of the clips' values overflow (1 clips)"


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["batch_size", "crop_frames", "swa_every", "total_epochs"])
    def test_count_below_one_names_the_field(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            TrainConfig(**{name: 0})

    @pytest.mark.parametrize("kw,message", [
        (dict(warmup_epochs=-1, constant_epochs=3, decay_epochs=0, tail_epochs=0, total_epochs=2),
         "warmup_epochs must be >= 0, got -1"),
        (dict(constant_epochs=-1), "constant_epochs must be >= 0, got -1"),
        (dict(decay_epochs=-1), "decay_epochs must be >= 0, got -1"),
        (dict(tail_epochs=-1), "tail_epochs must be >= 0, got -1"),
        (dict(mixup_alpha=0.0), "mixup_alpha must be > 0, got 0.0"),
        (dict(mixup_alpha=float("nan")), "mixup_alpha must be > 0, got nan"),
        (dict(mixup_alpha=float("inf")), "mixup_alpha must be finite, got inf"),
        (dict(warmup_start_factor=0.0), r"warmup_start_factor must lie in \(0, 1\], got 0.0"),
        (dict(warmup_start_factor=1.5), r"warmup_start_factor must lie in \(0, 1\], got 1.5"),
        (dict(lr_final=1e-4), "need lr_peak > lr_final > 0, got 0.0001, 0.0001"),
        (dict(lr_final=0.0), "need lr_peak > lr_final > 0, got 0.0001, 0.0"),
    ], ids=["warmup", "constant", "decay", "tail", "alpha", "alpha-nan", "alpha-inf", "factor-0",
            "factor-1.5", "final-equals-peak", "final-zero"])
    def test_value_train_would_trip_on_names_the_field(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kw)


class TestTrainClipChecks:
    @pytest.mark.parametrize("tags,name", [([1, 2, 3], "1"), (["a", None, "c"], "None"),
                                           (["a", "b", b"c"], "b'c'")],
                             ids=["ints", "none", "bytes"])
    def test_tag_that_is_not_a_str_is_refused(self, tmp_path, tags, name):
        cfg, tc = tiny_train_setup()
        with pytest.raises(ValueError) as err:
            train(build_model(cfg), make_band_clips(4), make_band_clips(2), tags, tc,
                  tmp_path / "run")
        assert str(err.value) == f"tag {name} is not a str"
        assert not (tmp_path / "run").exists()

    def test_comma_in_a_tag_is_refused(self, tmp_path):
        cfg, tc = tiny_train_setup()
        with pytest.raises(ValueError, match=r"tag 'x,y' contains ','"):
            train(build_model(cfg), make_band_clips(4), make_band_clips(2), ["a", "x,y", "c"],
                  tc, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("sep", ["\t", "\n"], ids=["tab", "newline"])
    def test_tab_or_newline_in_a_tag_is_refused(self, tmp_path, sep):
        cfg, tc = tiny_train_setup()
        tag = f"b{sep}x"
        with pytest.raises(ValueError, match=re.escape(f"tag {tag!r} contains {sep!r}")):
            train(build_model(cfg), make_band_clips(4), make_band_clips(2), ["a", tag, "c"],
                  tc, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_carriage_return_in_a_tag_round_trips(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        art = train(build_model(cfg), clips, clips[:2], ["a", "b", "c\r"], tc, tmp_path / "run")
        assert snapshot_ensemble(art, clips[:2]).tags == ["a", "b", "c\r"]

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_bin_count_must_match_the_model(self, tmp_path, split):
        cfg, tc = tiny_train_setup()
        train_clips, val_clips = make_band_clips(4), make_band_clips(2)
        narrow = (train_clips if split == "training" else val_clips)[1]
        narrow.values = narrow.values[:16]
        with pytest.raises(ValueError, match=f"{split} track 't001' has 16 frequency bins, "
                                             f"the model has 32"):
            train(build_model(cfg), train_clips, val_clips, list("abc"), tc, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_repeated_validation_id_fails_before_training(self, tmp_path):
        cfg, tc = tiny_train_setup()
        val_clips = make_band_clips(2)
        val_clips[1].track_id = val_clips[0].track_id
        with pytest.raises(ValueError, match="validation split: track ids must be unique; "
                                             "'t000' repeats"):
            train(build_model(cfg), make_band_clips(4), val_clips, list("abc"), tc,
                  tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_crop_below_the_stride_plan_names_crop_frames(self, tmp_path):
        cfg, tc = tiny_train_setup()
        short = replace(tc, crop_frames=2)
        with pytest.raises(ValueError, match="crop_frames must be >= the model's 3 frames, got 2"):
            train(build_model(cfg), make_band_clips(4), make_band_clips(2), list("abc"),
                  short, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        # the stride plan's own 3 frames are enough
        art = train(build_model(cfg), make_band_clips(4), make_band_clips(2), list("abc"),
                    replace(tc, crop_frames=3), tmp_path / "run")
        assert len(art.metrics) == 2

    def test_tag_count_must_match_the_model(self, tmp_path):
        cfg, tc = tiny_train_setup()
        with pytest.raises(ValueError, match="2 tags given, the model has 3"):
            train(build_model(cfg), make_band_clips(4), make_band_clips(2), ["a", "b"],
                  tc, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_label_width_must_match_the_model(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        clips[1].labels = clips[1].labels[:2]
        with pytest.raises(ValueError, match=r"training track 't001' has labels of shape \(2,\), "
                                             r"the model has 3 tags"):
            train(build_model(cfg), clips, make_band_clips(2), list("abc"), tc, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["training", "validation"])
    @pytest.mark.parametrize("label", [np.nan, 2.0, 0.5, -1.0])
    def test_label_other_than_0_or_1_names_split_track_and_tag(self, tmp_path, split, label):
        cfg, tc = tiny_train_setup()
        clips = {"training": make_band_clips(4), "validation": make_band_clips(2)}
        clips[split][1].labels = np.array([0.0, 1.0, label], dtype=np.float32)
        with pytest.raises(ValueError) as err:
            train(build_model(cfg), clips["training"], clips["validation"], list("abc"), tc,
                  tmp_path / "run")
        assert str(err.value) == (f"{split} track 't001' has label {np.float32(label)} "
                                  f"for tag 'c', not 0 or 1")
        assert not (tmp_path / "run").exists()

    def test_nan_training_clip_names_the_track(self, tmp_path):
        cfg, tc = tiny_train_setup()
        clips = make_band_clips(4)
        clips[2].values[5, 3] = np.nan
        with pytest.raises(ValueError, match=r"training track 't002' holds a non-finite "
                                             r"value nan at \(bin, frame\) \(5, 3\)"):
            train(build_model(cfg), clips, make_band_clips(2), list("abc"), tc, tmp_path / "run")

    def test_zero_frame_clip_names_the_track(self, tmp_path):
        cfg, tc = tiny_train_setup()
        empty = TaggedClip("v-empty", np.zeros((32, 0), dtype=np.float32), np.ones(3))
        with pytest.raises(ValueError, match="validation track 'v-empty' has 0 frames"):
            train(build_model(cfg), make_band_clips(4), make_band_clips(1) + [empty],
                  list("abc"), tc, tmp_path / "run")
        with pytest.raises(ValueError, match="training track 'v-empty' has 0 frames"):
            train(build_model(cfg), [empty] + make_band_clips(4), make_band_clips(1),
                  list("abc"), tc, tmp_path / "run")


class TestBnRefresh:
    """Full-length crops, so every batch's input is fixed and a one-batch
    refresh gives that batch's statistics."""

    FRAMES = 24
    NORM = (-50.0, 20.0)

    def refresh(self, clips, batch_size=2):
        model = build_model(tiny_train_setup(seed=3)[0])
        refresh_bn_statistics(model, clips, self.FRAMES, self.NORM, batch_size, seed=0)
        return model

    def test_sweep_mean_not_ema(self):
        clips = make_band_clips(8, frames=self.FRAMES, seed=4)
        batches = [self.refresh(clips[lo:lo + 2]).bn_arrays() for lo in range(0, 8, 2)]
        got = self.refresh(clips).bn_arrays()
        for key, value in got.items():
            per_batch = np.stack([b[key] for b in batches])
            np.testing.assert_allclose(value, per_batch.mean(axis=0), rtol=1e-5, atol=1e-6)
            ema = per_batch[0]
            for b in per_batch[1:]:
                ema = 0.9 * ema + 0.1 * b
            assert not np.allclose(value, ema, rtol=1e-3, atol=1e-4), key

    def test_train_forward_after_refresh_is_ema(self):
        clips = make_band_clips(6, frames=self.FRAMES, seed=5)
        batch = make_band_clips(2, frames=self.FRAMES, seed=6)
        model = self.refresh(clips)
        before = model.bn_arrays()
        mean, std = self.NORM
        x = ((np.stack([c.values for c in batch])[:, None] - mean) / std).astype(np.float32)
        model.forward(Tensor(x), mode="train")
        stats = self.refresh(batch).bn_arrays()
        for key, value in model.bn_arrays().items():
            np.testing.assert_allclose(value, 0.9 * before[key] + 0.1 * stats[key],
                                       rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("bad,message", [
        ("nan", r"track 'x' holds a non-finite value nan at \(bin, frame\) \(3, 5\)"),
        ("bins", "track 'x' has 16 frequency bins, the model has 32"),
        ("frames", "track 'x' has 0 frames"),
    ], ids=["nan", "bins", "frames"])
    def test_bad_clip_names_the_track_before_any_batch(self, bad, message):
        clips = make_band_clips(5, frames=self.FRAMES, seed=4)
        values = clips[4].values
        if bad == "nan":
            values[3, 5] = np.nan
        clips[4] = TaggedClip("x", {"nan": values, "bins": values[:16], "frames": values[:, :0]}[bad],
                              clips[4].labels)
        model = build_model(tiny_train_setup(seed=3)[0])
        before = model.bn_arrays()
        with pytest.raises(ValueError, match=message):
            refresh_bn_statistics(model, clips, self.FRAMES, self.NORM, 2, seed=0)
        for key, value in model.bn_arrays().items():
            assert np.array_equal(value, before[key]), key

    def test_empty_clip_list_rejected(self):
        model = build_model(tiny_train_setup()[0])
        with pytest.raises(ValueError, match="at least one clip"):
            refresh_bn_statistics(model, [], self.FRAMES, self.NORM, 2, seed=0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused_before_any_batch(self, batch_size):
        model = build_model(tiny_train_setup(seed=3)[0])
        before = model.bn_arrays()
        with pytest.raises(ValueError) as err:
            refresh_bn_statistics(model, make_band_clips(2, frames=self.FRAMES), self.FRAMES,
                                  self.NORM, batch_size, seed=0)
        assert str(err.value) == f"batch_size must be >= 1, got {batch_size}"
        for key, value in model.bn_arrays().items():
            assert np.array_equal(value, before[key]), key

    def test_batch_size_of_one_averages_single_clip_statistics(self):
        clips = make_band_clips(3, frames=self.FRAMES, seed=4)
        singles = [self.refresh([c]).bn_arrays() for c in clips]
        for key, value in self.refresh(clips, batch_size=1).bn_arrays().items():
            np.testing.assert_allclose(value, np.mean([s[key] for s in singles], axis=0),
                                       rtol=1e-5, atol=1e-6)
