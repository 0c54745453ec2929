import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from rftag import evaluation
from rftag.evaluation import snapshot_ensemble
from rftag.inference import (
    clip_problem,
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
        np.testing.assert_allclose(predict(model, [long], "windows")[0],
                                   np.mean(per_window, axis=0), rtol=1e-5)


def reference_scores(model, values, mode, mean=-40.0, std=1.0):
    """Mean over ``values``' windows of the sigmoid of ``reference_forward``,
    one window at a time."""
    if mode == "center":
        windows = [crop_window(values, CROP)]
    else:
        tiled = tile_to_length(values, CROP)
        windows = [tiled[:, s:s + CROP] for s in window_starts(tiled.shape[1], CROP, CROP // 2)]
    rows = []
    for window in windows:
        x = ((window - np.float32(mean)) / np.float32(std)).astype(np.float32)
        logits = reference_forward(model, Tensor(x[None, None])).data[0]
        rows.append(1.0 / (1.0 + np.exp(-logits.astype(np.float64))))
    return np.mean(rows, axis=0)


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
        np.testing.assert_allclose(predict(model, clips, mode), want, rtol=1e-5)

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


class TestClipProblem:
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
            assert clip_problem(values, bins) is None
        else:
            assert clip_problem(values, bins) == (f"holds a non-finite value {values[want]} "
                                                  f"at (bin, frame) {want}")

    @pytest.mark.parametrize("bins", [0, BINS])
    def test_zero_frames(self, bins):
        assert clip_problem(np.zeros((bins, 0), dtype=np.float32), bins) == "has 0 frames"


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
