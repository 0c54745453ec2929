"""Batched model inference over spectrogram clips.

Track-level scores come from sliding eval windows (window = crop_frames,
hop = crop_frames/2): per window, sigmoid over the logits; per track, the
mean of its window scores.  Clips shorter than one window are repeat-tiled.
``crop_window`` cuts one window, random given an rng and central otherwise.
``clip_problem`` is the one clip rule: every entry point that takes clips
applies it with the model's ``input_bins`` before any forward runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .models import Model


def tile_to_length(values: np.ndarray, frames: int) -> np.ndarray:
    """Repeat-tile along time until at least ``frames`` columns, then cut."""
    have = values.shape[1]
    if have >= frames:
        return values
    if have == 0:
        raise ValueError(f"cannot tile a clip of 0 frames to {frames} frames")
    reps = -(-frames // have)
    return np.tile(values, (1, reps))[:, :frames]


def crop_window(values: np.ndarray, frames: int,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """A [bins, frames] window of a repeat-tiled clip.

    With an ``rng`` the offset is drawn uniform from it (training and the BN
    refresh); without one the window is the central one (validation).
    """
    v = tile_to_length(values, frames)
    slack = v.shape[1] - frames
    off = slack // 2 if rng is None else int(rng.integers(0, slack + 1))
    return v[:, off:off + frames]


def window_starts(frames: int, window: int, hop: int) -> list[int]:
    if frames <= window:
        return [0]
    starts = list(range(0, frames - window + 1, hop))
    if starts[-1] != frames - window:
        starts.append(frames - window)  # cover the tail
    return starts


def clip_problem(values: np.ndarray, bins: int) -> Optional[str]:
    """Why a clip cannot be scored or trained on by a model of ``bins`` bins, or None.

    Checked in order: the model's bin count, at least one frame, and every
    value finite; the first NaN or inf is named with its (bin, frame) cell.
    """
    if values.shape[0] != bins:
        return f"has {values.shape[0]} frequency bins, the model has {bins}"
    if values.shape[1] == 0:
        return "has 0 frames"
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        cell = tuple(int(k) for k in bad[0])
        return f"holds a non-finite value {values[cell]} at (bin, frame) {cell}"
    return None


def normalized_batch(windows: list, mean: float, std: float) -> np.ndarray:
    """[bins, frames] windows as one float32 batch [N, 1, bins, frames] of
    (x - mean) / std.

    The arithmetic runs in the windows' dtype: for float32 windows (what
    ``dsp.logmel`` gives) mean and std are rounded to float32 first and
    nothing is computed in float64.
    """
    x = np.stack(windows)[:, None, :, :]
    return ((x - mean) / std).astype(ad.DEFAULT_DTYPE, copy=False)


def predict_scores(model: Model, values_list: list, crop_frames: int,
                   norm_mean: float, norm_std: float,
                   mode: str = "windows", batch_size: int = 8) -> np.ndarray:
    """Per-clip, per-tag sigmoid scores in [0, 1].

    mode "windows": mean of sliding-window scores; mode "center": one central
    crop per clip (the fast path used for per-epoch validation).  A clip
    that breaks ``clip_problem`` for the model's ``input_bins`` raises a
    ValueError naming its index before any forward runs.
    """
    if mode not in ("windows", "center"):
        raise ValueError(f"unknown inference mode {mode!r}")
    hop = max(1, crop_frames // 2)
    crops = []
    owners = []
    for i, values in enumerate(values_list):
        problem = clip_problem(values, model.config.input_bins)
        if problem:
            raise ValueError(f"clip {i} {problem}")
        if mode == "center":
            windows = [crop_window(values, crop_frames)]
        else:
            v = tile_to_length(values, crop_frames)
            windows = [v[:, s:s + crop_frames] for s in window_starts(v.shape[1], crop_frames, hop)]
        crops += windows
        owners += [i] * len(windows)

    scores_sum = np.zeros((len(values_list), model.config.n_tags), dtype=np.float64)
    counts = np.zeros(len(values_list), dtype=np.int64)
    for lo in range(0, len(crops), batch_size):
        x = normalized_batch(crops[lo:lo + batch_size], norm_mean, norm_std)
        logits = model.forward(Tensor(x), mode="eval")
        probs = ad.sigmoid(logits).data
        for row, owner in zip(probs, owners[lo:lo + batch_size]):
            scores_sum[owner] += row
            counts[owner] += 1
    return scores_sum / counts[:, None]
