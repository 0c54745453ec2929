import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from rftag import autodiff as ad
from rftag import evaluation
from rftag.evaluation import snapshot_ensemble
from rftag.inference import (
    check_clip,
    crop_window,
    normalized_batch,
    predict_scores,
    tile_to_length,
    window_starts,
)
from rftag.autodiff import Tensor
from rftag.models import ModelConfig, TemplateConfig, build_model, save_checkpoint
from rftag.training import TaggedClip

from oracles import first_nonfinite_cell, reference_forward

# deterministic examples and no example database on disk, so the suite is reproducible
CHECKS = settings(max_examples=100)

CROP = 16
BINS = 32


@pytest.fixture(scope="module")
def model():
    return build_model(ModelConfig(template=TemplateConfig(n_stages=2, blocks_per_stage=1,
                                                           channel_plan=(4, 6), pool_stages=1),
                                   rho=2, n_tags=3, input_bins=BINS, seed=5))


def clip(frames, seed=0):
    return np.random.default_rng(seed).standard_normal((BINS, frames)).astype(np.float32) - 40.0


def predict(model, clips, mode):
    return predict_scores(model, clips, CROP, norm_mean=-40.0, norm_std=1.0, mode=mode)


class TestWindows:
    @CHECKS
    @given(st.integers(1, 300), st.integers(1, 64), st.data())
    def test_starts_cover_every_frame(self, frames, window, data):
        hop = data.draw(st.integers(1, window))
        starts = window_starts(frames, window, hop)
        if frames <= window:
            assert starts == [0]
            return
        assert starts[0] == 0 and starts[-1] + window == frames
        assert all(0 < b - a <= hop for a, b in zip(starts, starts[1:]))
        covered = np.zeros(frames, dtype=bool)
        for s in starts:
            covered[s:s + window] = True
        assert covered.all()

    @CHECKS
    @given(st.integers(1, 40), st.integers(1, 100))
    def test_tile_repeats_the_clip(self, have, frames):
        values = np.arange(2 * have).reshape(2, have)
        tiled = tile_to_length(values, frames)
        assert tiled.shape == (2, max(have, frames))
        for t in range(tiled.shape[1]):
            assert np.array_equal(tiled[:, t], values[:, t % have])

    def test_center_crop_takes_the_middle(self):
        values = np.arange(20).reshape(1, 20)
        assert np.array_equal(crop_window(values, 6), values[:, 7:13])

    def test_short_clip_gives_one_tiled_window(self, model):
        short = clip(CROP // 2 + 3)
        tiled = tile_to_length(short, CROP)
        assert window_starts(tiled.shape[1], CROP, CROP // 2) == [0]
        got = predict(model, [short], "windows")
        assert np.array_equal(got, predict(model, [tiled], "windows"))
        assert np.array_equal(got, predict(model, [short], "center"))

    def test_long_clip_averages_its_windows(self, model):
        long = clip(3 * CROP + 5, seed=1)
        starts = window_starts(long.shape[1], CROP, CROP // 2)
        per_window = [predict(model, [long[:, s:s + CROP]], "center")[0] for s in starts]
        np.testing.assert_array_equal(predict(model, [long], "windows")[0],
                                      np.mean(per_window, axis=0))

    @pytest.mark.parametrize("crop", [1, 2, 3])
    def test_a_crop_under_four_frames_hops_one_frame(self, crop):
        # with no pool stage the model takes a one-frame input, and crop // 2 < 2
        narrow = build_model(ModelConfig(template=TemplateConfig(n_stages=2, blocks_per_stage=1,
                                                                 channel_plan=(4, 6), pool_stages=0),
                                         rho=2, n_tags=3, input_bins=BINS, seed=5))
        assert narrow.min_input[1] == 1
        values = clip(crop + 3, seed=2)
        per_window = [predict_scores(narrow, [values[:, s:s + crop]], crop, -40.0, 1.0, "center")[0]
                      for s in range(4)]
        np.testing.assert_array_equal(
            predict_scores(narrow, [values], crop, -40.0, 1.0, "windows")[0],
            np.mean(per_window, axis=0))

    @pytest.mark.parametrize("mode", ["windows", "center"])
    def test_a_clip_scores_the_same_alone_or_among_others(self, model, mode):
        clips = [clip(frames, seed=k) for k, frames in enumerate(CLIP_FRAMES)]
        alone = [predict(model, [values], mode)[0] for values in clips]
        np.testing.assert_array_equal(predict(model, clips, mode), alone)


def reference_scores(model, values, mode, mean=-40.0, std=1.0):
    """Mean over ``values``' windows of the sigmoid of ``reference_forward``,
    one window at a time: the float32 sigmoid rows summed in float64 in
    window order, then divided by the window count."""
    if mode == "center":
        windows = [crop_window(values, CROP)]
    else:
        tiled = tile_to_length(values, CROP)
        windows = [tiled[:, s:s + CROP] for s in window_starts(tiled.shape[1], CROP, CROP // 2)]
    total = np.zeros(model.config.n_tags, dtype=np.float64)
    for window in windows:
        x = ((window - np.float32(mean)) / np.float32(std)).astype(np.float32)
        total += ad.sigmoid(reference_forward(model, Tensor(x[None, None]))).data[0]
    return total / len(windows)


def fa_member(seed):
    """A frequency-aware model with drawn batch-norm statistics."""
    model = build_model(ModelConfig(template=TemplateConfig(n_stages=2, blocks_per_stage=1,
                                                            channel_plan=(4, 6), pool_stages=1),
                                    rho=2, frequency_aware=True, n_tags=3, input_bins=BINS,
                                    seed=seed))
    rng = np.random.default_rng(seed)
    for state in model.bn_states.values():
        state.mean = (0.1 * rng.standard_normal(state.mean.shape)).astype(np.float32)
        state.var = rng.uniform(0.5, 2.0, state.var.shape).astype(np.float32)
    return model


# a tiled short clip, exactly one window, and a long clip with a tail window
CLIP_FRAMES = (CROP // 2 + 3, CROP, 3 * CROP + 5)


class TestAgainstTheReference:
    @pytest.mark.parametrize("mode", ["windows", "center"])
    def test_predict_scores_is_the_window_mean(self, mode):
        model = fa_member(21)
        clips = [clip(frames, seed=k) for k, frames in enumerate(CLIP_FRAMES)]
        want = [reference_scores(model, values, mode) for values in clips]
        np.testing.assert_array_equal(predict(model, clips, mode), want)

    def test_snapshot_ensemble_is_the_member_mean(self, tmp_path):
        members = [fa_member(seed) for seed in (22, 23)]
        paths = [tmp_path / "best.ckpt", tmp_path / "swa_epoch1.ckpt"]
        for member, path in zip(members, paths):
            save_checkpoint(path, member, extra=dict(crop_frames=CROP, norm_mean=-40.0,
                                                     norm_std=1.0, tags="a,b,c"))
        clips = [TaggedClip(f"t{k}", clip(frames, seed=k), np.zeros(3))
                 for k, frames in enumerate(CLIP_FRAMES)]
        got = snapshot_ensemble(SimpleNamespace(best_path=paths[0], swa_paths=paths[1:]), clips)
        want = np.mean([[reference_scores(member, c.values, "windows") for c in clips]
                        for member in members], axis=0)
        assert got.ids == [c.track_id for c in clips]
        assert got.provenance == [str(p) for p in paths]  # best, then the SWA paths
        np.testing.assert_allclose(got.scores, want, rtol=1e-5)


class TestMemory:
    @pytest.mark.parametrize("mode,frames", [("windows", (384, 320, 192)),
                                             ("center", (128,) * 10)])
    def test_peak_is_one_window_forward(self, monkeypatch, mode, frames):
        # the model and band of autodiff's single-forward peak test on
        # 64-bin x 128-frame windows: in1 and in2 give 8 x 32 x 64 float32
        # per window; the clips give 5 + 4 + 2 sliding windows, or 10
        # central crops
        model = build_model(ModelConfig(
            template=TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(8, 16),
                                    pool_stages=1),
            frequency_aware=True, n_tags=3, input_bins=64))
        monkeypatch.setattr(ad, "_BAND_BYTES", 32 << 10)
        rng = np.random.default_rng(6)
        clips = [rng.standard_normal((64, f)).astype(np.float32) for f in frames]
        window = 64 * 128 * 4
        activation = 8 * 32 * 64 * 4
        tracemalloc.start()
        try:
            predict_scores(model, clips, 128, norm_mean=0.0, norm_std=1.0, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.05 * (window + 2 * activation + ad._BAND_BYTES)
        assert peak <= bound, f"traced peak {peak} bytes, bound {bound:.0f}"


class TestNormalizedBatch:
    def test_float32_arithmetic_and_layout(self):
        rng = np.random.default_rng(3)
        windows = [(rng.standard_normal((BINS, CROP)) * 20 - 40).astype(np.float32)
                   for _ in range(3)]
        mean, std = -40.123456789, 17.000000123   # neither is a float32
        got = normalized_batch(windows, mean, std)
        assert got.shape == (3, 1, BINS, CROP) and got.dtype == np.float32
        want = (np.stack(windows)[:, None] - np.float32(mean)) / np.float32(std)
        assert np.array_equal(got, want)


class TestCheckClip:
    @CHECKS
    @given(st.integers(1, 6), st.integers(1, 9), st.data())
    def test_names_the_first_nonfinite_cell(self, bins, frames, data):
        values = np.arange(bins * frames, dtype=np.float32).reshape(bins, frames)
        cells = data.draw(st.lists(st.tuples(st.integers(0, bins - 1), st.integers(0, frames - 1)),
                                   max_size=3))
        for cell in cells:
            values[cell] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        want = first_nonfinite_cell(values)
        if want is None:
            assert check_clip(values, bins, "x") is None
        else:
            with pytest.raises(ValueError) as err:
                check_clip(values, bins, "x")
            assert str(err.value) == (f"x holds a non-finite value {values[want]} "
                                      f"at (bin, frame) {want}")

    @pytest.mark.parametrize("bins", [0, BINS])
    def test_zero_frames(self, bins):
        with pytest.raises(ValueError) as err:
            check_clip(np.zeros((bins, 0), dtype=np.float32), bins, "clip 'x'")
        assert str(err.value) == "clip 'x' has 0 frames"

    @pytest.mark.parametrize("values, held", [
        ([[0.0] * 4] * BINS, "list"),
        ((1.0, 2.0), "tuple"),
        (np.zeros((BINS, 4), dtype=object), "dtype object"),
        (np.zeros((BINS, 4), dtype=np.complex64), "dtype complex64"),
        (np.full((BINS, 4), "0"), "dtype <U1"),
    ], ids=["nested-list", "tuple", "object", "complex", "str"])
    def test_refuses_what_is_not_an_array_of_real_numbers_first(self, values, held):
        with pytest.raises(ValueError) as err:
            check_clip(values, BINS, "clip 'x'")
        assert str(err.value) == f"clip 'x' is not a numpy array of real numbers: {held}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.uint8])
    def test_real_dtypes_are_accepted(self, dtype):
        assert check_clip(np.zeros((BINS, 4), dtype=dtype), BINS, "clip 'x'") is None

    @pytest.mark.parametrize("shape", [(BINS,), (5,), (BINS, 4, 2)], ids=["1-d", "1-d-bins", "3-d"])
    def test_refuses_a_clip_that_is_not_2d_before_any_other_check(self, shape):
        with pytest.raises(ValueError) as err:
            check_clip(np.zeros(shape, dtype=np.float32), BINS, "clip 'x'")
        assert str(err.value) == f"clip 'x' has shape {shape}, not (bins, frames)"


class TestZeroFrames:
    def test_tile_and_crop_name_the_frame_count(self):
        empty = np.zeros((BINS, 0), dtype=np.float32)
        with pytest.raises(ValueError, match="0 frames"):
            tile_to_length(empty, CROP)
        with pytest.raises(ValueError, match="0 frames"):
            crop_window(empty, CROP)

    @pytest.mark.parametrize("mode", ["windows", "center"])
    def test_predict_scores_rejects_empty_clip(self, model, mode):
        with pytest.raises(ValueError, match="0 frames"):
            predict(model, [clip(CROP), np.zeros((BINS, 0), dtype=np.float32)], mode)


class TestBinCount:
    @pytest.mark.parametrize("mode", ["windows", "center"])
    def test_predict_scores_names_the_clip(self, model, mode):
        narrow = clip(CROP)[:16]
        with pytest.raises(ValueError, match="clip 1 has 16 frequency bins, the model has 32"):
            predict(model, [clip(CROP), narrow], mode)
        with pytest.raises(ValueError, match="clip 0 has 16 frequency bins, the model has 32"):
            predict(model, [narrow], mode)

    def test_snapshot_ensemble_names_the_track_before_any_member_predicts(self, model, tmp_path,
                                                                          monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, model, extra=dict(crop_frames=CROP, norm_mean=-40.0, norm_std=1.0,
                                                tags="a,b,c"))
        runs = []
        monkeypatch.setattr(evaluation, "predict_scores", lambda *a, **k: runs.append(a))
        clips = [TaggedClip("ok", clip(CROP), np.zeros(3)),
                 TaggedClip("narrow", clip(CROP)[:16], np.zeros(3))]
        with pytest.raises(ValueError, match="track 'narrow': clip 1 has 16 frequency bins, "
                                             "the model has 32"):
            snapshot_ensemble(SimpleNamespace(best_path=path, swa_paths=[]), clips)
        assert runs == []


class TestZeroFrameTrack:
    def test_snapshot_ensemble_names_the_track(self, model, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, model, extra=dict(crop_frames=CROP, norm_mean=-40.0, norm_std=1.0,
                                                tags="a,b,c"))
        clips = [TaggedClip(name, values, np.zeros(3))
                 for name, values in (("ok", clip(CROP)),
                                      ("empty-track", np.zeros((BINS, 0), dtype=np.float32)))]
        artifacts = SimpleNamespace(best_path=path, swa_paths=[])
        with pytest.raises(ValueError, match=r"track 'empty-track': clip 1 has 0 frames"):
            snapshot_ensemble(artifacts, clips)


class TestNonFiniteClips:
    @pytest.mark.parametrize("mode", ["windows", "center"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_scores_names_the_clip(self, model, mode, bad):
        poisoned = clip(CROP + 4, seed=2)
        poisoned[3, 7] = bad
        with pytest.raises(ValueError, match=r"clip 1 holds a non-finite value .* \(3, 7\)"):
            predict(model, [clip(CROP), poisoned], mode)

    def test_snapshot_ensemble_names_the_track(self, model, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, model, extra=dict(crop_frames=CROP, norm_mean=-40.0, norm_std=1.0,
                                                tags="a,b,c"))
        poisoned = clip(CROP)
        poisoned[0, 0] = np.nan
        clips = [TaggedClip(name, values, np.zeros(3))
                 for name, values in (("ok", clip(CROP)), ("bad-track", poisoned))]
        artifacts = SimpleNamespace(best_path=path, swa_paths=[])
        with pytest.raises(ValueError, match=r"track 'bad-track': clip 1 holds a non-finite"):
            snapshot_ensemble(artifacts, clips)


class TestRunMetadata:
    RUN = dict(crop_frames=CROP, norm_mean=-40.0, norm_std=1.0, tags="a,b,c")

    @pytest.mark.parametrize("run,message", [
        ({}, "run metadata has no field 'crop_frames'"),
        (dict(RUN, crop_frames="x"), "run metadata field 'crop_frames': invalid literal"),
        (dict(RUN, crop_frames=1), "run metadata field 'crop_frames' must be >= the model's 3 "
                                   "frames, got '1'"),
        (dict(RUN, tags="a,b"), "run metadata field 'tags' must name the model's 3 tags, "
                                "got 'a,b'"),
        (dict(RUN, norm_std=0.0), "run metadata field 'norm_std' must be finite and > 0, "
                                  "got '0.0'"),
        (dict(RUN, norm_mean="nan"), "run metadata field 'norm_mean' must be finite"),
        (dict(RUN, tags="a,a,b"), "run metadata field 'tags': tag names must be unique; "
                                  "'a' repeats"),
    ], ids=["missing", "crop", "short", "tags", "std", "mean", "repeated-tag"])
    def test_bad_member_fails_before_any_model_runs(self, model, tmp_path, monkeypatch,
                                                    run, message):
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(good, model, extra=self.RUN)
        save_checkpoint(bad, model, extra=run)
        runs = []
        monkeypatch.setattr(evaluation, "predict_scores", lambda *a, **k: runs.append(a))
        clips = [TaggedClip("ok", clip(CROP), np.zeros(3))]
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            snapshot_ensemble(SimpleNamespace(best_path=bad, swa_paths=[good]), clips)
        assert runs == []

    @pytest.mark.parametrize("key,text,written", [
        ("crop_frames", "+16", "16"),
        ("norm_mean", "-40", "-40.0"),
    ], ids=["crop", "mean"])
    def test_field_not_as_written_fails_before_any_model_runs(self, model, tmp_path,
                                                             monkeypatch, key, text, written):
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, model, extra=dict(self.RUN, **{key: text}))
        runs = []
        monkeypatch.setattr(evaluation, "predict_scores", lambda *a, **k: runs.append(a))
        clips = [TaggedClip("ok", clip(CROP), np.zeros(3))]
        with pytest.raises(ValueError) as err:
            snapshot_ensemble(SimpleNamespace(best_path=bad, swa_paths=[]), clips)
        assert str(err.value) == (f"{bad}: run metadata field {key!r}: {text!r} is not the "
                                  f"written text {written!r} of its value")
        assert runs == []

    def test_member_whose_tags_differ_from_the_best_is_named(self, model, tmp_path):
        best, swa = tmp_path / "best.ckpt", tmp_path / "swa_epoch1.ckpt"
        save_checkpoint(best, model, extra=self.RUN)
        save_checkpoint(swa, model, extra=dict(self.RUN, tags="a,b,x"))
        clips = [TaggedClip("t0", clip(CROP), np.zeros(3))]
        with pytest.raises(ValueError) as err:
            snapshot_ensemble(SimpleNamespace(best_path=best, swa_paths=[swa]), clips)
        assert str(err.value) == (f"{swa}: run metadata field 'tags' ['a', 'b', 'x'] "
                                  f"differs from {best}'s")

    def test_crop_of_the_models_minimum_frames_scores(self, model, tmp_path):
        frames = model.min_input[1]
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, model, extra=dict(self.RUN, crop_frames=frames))
        clips = [TaggedClip("t0", clip(2 * frames + 1), np.zeros(3))]
        got = snapshot_ensemble(SimpleNamespace(best_path=path, swa_paths=[]), clips)
        want = predict_scores(model, [clips[0].values], frames, norm_mean=-40.0, norm_std=1.0,
                              mode="windows")
        np.testing.assert_array_equal(got.scores, want)

    def test_keeps_the_best_and_the_four_latest_swa_members(self, model, tmp_path):
        paths = [tmp_path / name for name in
                 ["best.ckpt"] + [f"swa_epoch{k}.ckpt" for k in range(1, 7)]]
        for path in paths:
            save_checkpoint(path, model, extra=self.RUN)
        clips = [TaggedClip("t0", clip(CROP), np.zeros(3))]
        got = snapshot_ensemble(SimpleNamespace(best_path=paths[0], swa_paths=paths[1:]), clips)
        assert got.provenance == [str(p) for p in [paths[0]] + paths[3:]]

    def test_bad_clip_fails_before_any_model_runs(self, model, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, model, extra=self.RUN)
        runs = []
        monkeypatch.setattr(evaluation, "predict_scores", lambda *a, **k: runs.append(a))
        poisoned = clip(CROP)
        poisoned[1, 2] = np.inf
        clips = [TaggedClip("ok", clip(CROP), np.zeros(3)), TaggedClip("bad", poisoned, np.zeros(3))]
        with pytest.raises(ValueError, match=r"track 'bad': clip 1 holds a non-finite value inf"):
            snapshot_ensemble(SimpleNamespace(best_path=path, swa_paths=[]), clips)
        assert runs == []
