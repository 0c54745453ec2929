"""Model inference over spectrogram clips, one window per forward.

Track-level scores come from sliding eval windows (window = crop_frames,
hop = crop_frames/2): per window, sigmoid over the logits; per track, the
mean of its window scores.  Clips shorter than one window are repeat-tiled.
Each window is a forward of its own: eval conv and batch norm give a window
the same trunk features in any batch, and a batch would only hold more.
``crop_window`` cuts one window, random given an rng and central otherwise.
``check_clip`` is the one clip rule: every entry point that takes clips
calls it with the model's ``input_bins`` and its own name for the clip
before any forward runs.
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


def check_clip(values: np.ndarray, bins: int, name: str) -> None:
    """Refuse a clip that a model of ``bins`` bins cannot score or train on.

    Checked in order: a numpy array of real numbers, 2-D ``(bins, frames)``,
    the model's bin count, at least one frame, and every value finite; the
    first NaN or inf is named with its (bin, frame) cell.  The ValueError
    starts with ``name``, the caller's name for the clip.
    """
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "iuf":
        held = f"dtype {values.dtype}" if isinstance(values, np.ndarray) else type(values).__name__
        raise ValueError(f"{name} is not a numpy array of real numbers: {held}")
    if values.ndim != 2:
        raise ValueError(f"{name} has shape {values.shape}, not (bins, frames)")
    if values.shape[0] != bins:
        raise ValueError(f"{name} has {values.shape[0]} frequency bins, the model has {bins}")
    if values.shape[1] == 0:
        raise ValueError(f"{name} has 0 frames")
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        cell = tuple(int(k) for k in bad[0])
        raise ValueError(f"{name} holds a non-finite value {values[cell]} at (bin, frame) {cell}")


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
                   norm_mean: float, norm_std: float, mode: str = "windows") -> np.ndarray:
    """Per-clip, per-tag sigmoid scores in [0, 1], as float64.

    mode "windows": mean of sliding-window scores; mode "center": one central
    crop per clip (the fast path used for per-epoch validation).  Every
    clip passes ``check_clip`` for the model's ``input_bins`` as ``clip i``
    before any forward runs.  Each window is one forward of shape (1, 1,
    bins, crop_frames); a clip's sigmoid rows are summed in float64 in
    window order and divided by its window count, so a clip scores the
    same alone or among others.
    """
    if mode not in ("windows", "center"):
        raise ValueError(f"unknown inference mode {mode!r}")
    for i, values in enumerate(values_list):
        check_clip(values, model.config.input_bins, f"clip {i}")
    hop = max(1, crop_frames // 2)
    scores = np.zeros((len(values_list), model.config.n_tags), dtype=np.float64)
    for i, values in enumerate(values_list):
        if mode == "center":
            windows = [crop_window(values, crop_frames)]
        else:
            v = tile_to_length(values, crop_frames)
            windows = [v[:, s:s + crop_frames] for s in window_starts(v.shape[1], crop_frames, hop)]
        for window in windows:
            x = Tensor(normalized_batch([window], norm_mean, norm_std))
            scores[i] += ad.sigmoid(model.forward(x, mode="eval")).data[0]
        scores[i] /= len(windows)
    return scores
