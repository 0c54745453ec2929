"""Training loop: warmup/constant/decay/tail LR schedule, mixup, SWA.

The schedule follows the four-segment plan (defaults 10+60+50+80 = 200
epochs): linear warmup from lr_peak/100, a constant stretch at lr_peak
(1e-4), a linear decay to lr_final (1e-6), and a constant tail.  Mixup draws
one Beta(alpha, alpha) coefficient per batch and mixes inputs and labels
with the same coefficient.  Every ``swa_every`` epochs after warmup the
current weights are absorbed into a running arithmetic average; each
absorption persists the averaged model (after a batch-norm statistics
refresh over the training set) as an SWA checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, backward, bce_with_logits
from .evaluation import LabelSet, PredictionSet, macro_pr_auc
from .inference import clip_problem, crop_window, normalized_batch, predict_scores
from .models import Model, save_checkpoint

METRICS_HEADER = "epoch,lr,train_loss,val_pr_auc,is_best,swa_saved"


@dataclass
class TrainConfig:
    """Settings of one ``train`` run; the schedule is described in the module docstring.

    Refused, naming the field: ``total_epochs``, ``batch_size``,
    ``crop_frames`` or ``swa_every`` below one, a negative segment, segments
    that do not sum to ``total_epochs``, learning rates outside
    ``lr_peak > lr_final > 0``, ``mixup_alpha <= 0`` and a
    ``warmup_start_factor`` outside (0, 1].
    """

    total_epochs: int = 200
    warmup_epochs: int = 10
    constant_epochs: int = 60
    decay_epochs: int = 50
    tail_epochs: int = 80
    lr_peak: float = 1e-4
    lr_final: float = 1e-6
    warmup_start_factor: float = 0.01
    mixup_alpha: float = 0.3
    batch_size: int = 8
    crop_frames: int = 512
    swa_every: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("total_epochs", 1), ("batch_size", 1), ("crop_frames", 1),
                            ("swa_every", 1), ("warmup_epochs", 0), ("constant_epochs", 0),
                            ("decay_epochs", 0), ("tail_epochs", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        segments = (self.warmup_epochs + self.constant_epochs
                    + self.decay_epochs + self.tail_epochs)
        if segments != self.total_epochs:
            raise ValueError(
                f"schedule segments {self.warmup_epochs}+{self.constant_epochs}+"
                f"{self.decay_epochs}+{self.tail_epochs} != total_epochs {self.total_epochs}")
        if not (self.lr_peak > self.lr_final > 0):
            raise ValueError(f"need lr_peak > lr_final > 0, got {self.lr_peak}, {self.lr_final}")
        if not self.mixup_alpha > 0:
            raise ValueError(f"mixup_alpha must be > 0, got {self.mixup_alpha}")
        if not 0 < self.warmup_start_factor <= 1:
            raise ValueError(f"warmup_start_factor must lie in (0, 1], "
                             f"got {self.warmup_start_factor}")

    def scaled(self, total: int) -> "TrainConfig":
        """Shrink the schedule proportionally to a reduced epoch count."""
        w = max(1, round(total * self.warmup_epochs / self.total_epochs))
        c = max(1, round(total * self.constant_epochs / self.total_epochs))
        d = max(1, round(total * self.decay_epochs / self.total_epochs))
        t = total - w - c - d
        if t < 0:
            raise ValueError(f"cannot scale schedule down to {total} epochs")
        return replace(self, total_epochs=total, warmup_epochs=w,
                       constant_epochs=c, decay_epochs=d, tail_epochs=t)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate for a 0-based epoch index."""
    if not (0 <= epoch < config.total_epochs):
        raise ValueError(f"epoch {epoch} outside [0, {config.total_epochs})")
    w = config.warmup_epochs
    c_end = w + config.constant_epochs
    d_end = c_end + config.decay_epochs
    peak, final = config.lr_peak, config.lr_final
    if epoch < w:
        start = peak * config.warmup_start_factor
        return start + (peak - start) * (epoch / w)
    if epoch < c_end:
        return peak
    if epoch < d_end:
        # exact-endpoint form: exactly peak at f = 0 and exactly final at f = 1
        f = (epoch - c_end) / config.decay_epochs
        return (1.0 - f) * peak + f * final
    return final


# ---------------------------------------------------------------------------
# mixup
# ---------------------------------------------------------------------------


def mixup_batch(x: Tensor, y: Tensor, alpha: float, rng: np.random.Generator,
                lam: Optional[float] = None):
    """Convex-combine a batch with a permuted copy of itself.

    One lambda per batch mixes inputs and labels identically.  Returns
    (x', y', lambda).  ``lam`` overrides the Beta draw (used by tests); the
    draw is still made, then the permutation, so the rng advances alike.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"mixup needs a batch of at least 2, got {n}")
    if alpha <= 0:
        raise ValueError(f"mixup alpha must be positive, got {alpha}")
    lam_ = float(rng.beta(alpha, alpha))
    perm = rng.permutation(n)
    if lam is not None:
        lam_ = float(lam)
    xd, yd = x.data, y.data
    x_mixed = lam_ * xd + (1.0 - lam_) * xd[perm]
    y_mixed = lam_ * yd + (1.0 - lam_) * yd[perm]
    return Tensor(x_mixed), Tensor(y_mixed), lam_


# ---------------------------------------------------------------------------
# stochastic weight averaging
# ---------------------------------------------------------------------------


@dataclass
class SWAState:
    """Running arithmetic mean of absorbed weight snapshots."""

    average: dict = field(default_factory=dict)
    count: int = 0


def swa_update(state: SWAState, weights: dict) -> SWAState:
    """Absorb one snapshot: avg <- (avg*n + w)/(n+1)."""
    if state.count == 0:
        state.average = {k: np.array(v, dtype=np.float64) for k, v in weights.items()}
        state.count = 1
        return state
    if weights.keys() != state.average.keys():
        raise ValueError("weight names do not match the running average")
    n = state.count
    for k, w in weights.items():
        avg = state.average[k]
        if avg.shape != w.shape:
            raise ValueError(f"parameter {k}: shape {w.shape} != running {avg.shape}")
        state.average[k] = (avg * n + w) / (n + 1)
    state.count = n + 1
    return state


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------


@dataclass
class TaggedClip:
    """One track: raw log-mel values (bins x frames) and a multi-hot label row."""

    track_id: str
    values: np.ndarray
    labels: np.ndarray


def normalization_stats(clips: list) -> tuple[float, float]:
    """Global scalar mean/std of the training split's spectrogram values."""
    total = 0.0
    total_sq = 0.0
    count = 0
    for clip in clips:
        v = clip.values.astype(np.float64)
        total += v.sum()
        total_sq += (v * v).sum()
        count += v.size
    mean = total / count
    var = max(total_sq / count - mean * mean, 1e-12)
    return float(mean), float(math.sqrt(var))


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


@dataclass
class RunArtifacts:
    run_dir: Path
    best_path: Path
    best_val_pr_auc: float
    swa_paths: list
    metrics_path: Path
    metrics: list


def refresh_bn_statistics(model: Model, clips: list, crop_frames: int,
                          norm: tuple, batch_size: int, seed: int) -> None:
    """Recompute BN running stats as the plain mean over one sweep of the data.

    Every clip must pass ``clip_problem`` for the model's ``input_bins``;
    the first that does not is named with its track before any batch runs.
    Each state is reset before each batch's train-mode forward, so that it
    holds the batch's statistics, and ``swa_update`` averages them in sweep
    order.  Later train-mode forwards move the averages by the usual EMA.
    """
    if not clips:
        raise ValueError("refreshing batch-norm statistics needs at least one clip")
    for clip in clips:
        problem = clip_problem(clip.values, model.config.input_bins)
        if problem:
            raise ValueError(f"track {clip.track_id!r} {problem}")
    rng = np.random.default_rng(seed)
    sweep = SWAState()
    for lo in range(0, len(clips), batch_size):
        for st in model.bn_states.values():
            st.reset()
        windows = [crop_window(c.values, crop_frames, rng)
                   for c in clips[lo:lo + batch_size]]
        model.forward(Tensor(normalized_batch(windows, *norm)), mode="train")
        swa_update(sweep, model.bn_arrays())
    model.load_bn_arrays(sweep.average)


def _validation_pr_auc(model: Model, clips: list, labels: LabelSet, crop_frames: int,
                       norm: tuple, batch_size: int) -> float:
    scores = predict_scores(model, [c.values for c in clips], crop_frames,
                            norm[0], norm[1], mode="center", batch_size=batch_size)
    preds = PredictionSet(ids=list(labels.ids), tags=list(labels.tags), scores=scores)
    return macro_pr_auc(preds, labels).macro_pr_auc


def train(model: Model, train_clips: list, val_clips: list, tags: list,
          config: TrainConfig, run_dir) -> RunArtifacts:
    """Run the full schedule; returns the checkpoint family and metrics log.

    Per epoch: seeded shuffle, random crops, mixup, BCE loss, Adam at
    lr_at(epoch); eval-mode validation PR-AUC (center crops) afterwards.
    The best-val checkpoint is kept up to date, and each SWA absorption
    persists the refreshed averaged model.  Before anything is trained or
    written, the tag count and every clip's label row must match the
    model's ``n_tags``, ``crop_frames`` must reach the model's
    ``min_input`` frames, every clip must pass ``clip_problem`` for its
    ``input_bins``, and the validation split must form a ``LabelSet``.  A
    tag may not hold a comma, a tab or a newline.  A non-finite loss aborts
    with the epoch and batch index.
    """
    if not train_clips or not val_clips:
        raise ValueError("training and validation splits must be non-empty")
    for tag in tags:
        for sep, role in ((",", "separates tags in a checkpoint"),
                          ("\t", "separates prediction TSV cells"), ("\n", "ends a line")):
            if sep in tag:
                raise ValueError(f"tag {tag!r} contains {sep!r}, which {role}")
    n_tags, bins = model.config.n_tags, model.config.input_bins
    if len(tags) != n_tags:
        raise ValueError(f"{len(tags)} tags given, the model has {n_tags}")
    if config.crop_frames < model.min_input[1]:
        raise ValueError(f"crop_frames must be >= the model's {model.min_input[1]} frames, "
                         f"got {config.crop_frames}")
    for split, clips in (("training", train_clips), ("validation", val_clips)):
        for clip in clips:
            problem = clip_problem(clip.values, bins)
            if problem:
                raise ValueError(f"{split} track {clip.track_id!r} {problem}")
            if np.shape(clip.labels) != (n_tags,):
                raise ValueError(f"{split} track {clip.track_id!r} has labels of shape "
                                 f"{np.shape(clip.labels)}, the model has {n_tags} tags")
    try:
        val_labels = LabelSet(ids=[c.track_id for c in val_clips], tags=list(tags),
                              labels=np.stack([c.labels for c in val_clips]))
    except ValueError as exc:
        raise ValueError(f"validation split: {exc}") from None
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    norm = normalization_stats(train_clips)
    echo_extra = {
        "norm_mean": repr(norm[0]),
        "norm_std": repr(norm[1]),
        "crop_frames": str(config.crop_frames),
        "tags": ",".join(tags),
    }

    adam = AdamState()
    swa = SWAState()
    best_val = -1.0
    best_path = run_dir / "best.ckpt"
    swa_paths: list[Path] = []
    metrics = []

    n = len(train_clips)
    for epoch in range(config.total_epochs):
        lr = lr_at(epoch, config)
        order = rng.permutation(n)
        losses = []
        for bstart in range(0, n, config.batch_size):
            idx = order[bstart:bstart + config.batch_size]
            windows = [crop_window(train_clips[i].values, config.crop_frames, rng)
                       for i in idx]
            y = np.stack([train_clips[i].labels for i in idx]).astype(ad.DEFAULT_DTYPE)
            xb, yb = Tensor(normalized_batch(windows, *norm)), Tensor(y)
            if len(idx) >= 2:
                xb, yb, _ = mixup_batch(xb, yb, config.mixup_alpha, rng)
            model.zero_grads()
            with ad.Tape():
                logits = model.forward(xb, mode="train")
                loss = bce_with_logits(logits, yb)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {bstart // config.batch_size}")
            backward(loss)
            grads = {k: p.grad for k, p in model.params.items()}
            adam_step(model.params, grads, adam, lr)
            losses.append(loss_val)

        val_auc = _validation_pr_auc(model, val_clips, val_labels, config.crop_frames,
                                     norm, config.batch_size)
        is_best = val_auc > best_val
        if is_best:
            best_val = val_auc
            save_checkpoint(best_path, model,
                            extra=dict(echo_extra, val_pr_auc=repr(val_auc), epoch=str(epoch)))

        swa_saved = ""
        if (epoch >= config.warmup_epochs
                and (epoch - config.warmup_epochs) % config.swa_every == config.swa_every - 1):
            swa_update(swa, model.state_arrays())
            swa_model = Model._unfilled(model.config)  # the average fills every parameter
            swa_model.load_state_arrays(swa.average)
            refresh_bn_statistics(swa_model, train_clips, config.crop_frames,
                                  norm, config.batch_size, seed=config.seed + epoch)
            path = run_dir / f"swa_epoch{epoch}.ckpt"
            save_checkpoint(path, swa_model, extra=dict(echo_extra, epoch=str(epoch)))
            swa_paths.append(path)
            swa_saved = path.name

        metrics.append((epoch, lr, float(np.mean(losses)), val_auc, int(is_best), swa_saved))

    metrics_path = run_dir / "metrics.csv"
    lines = [METRICS_HEADER]
    for row in metrics:
        epoch, lr, tl, va, ib, ss = row
        lines.append(f"{epoch},{lr:.10g},{tl:.6f},{va:.6f},{ib},{ss}")
    metrics_path.write_text("\n".join(lines) + "\n")

    return RunArtifacts(run_dir=run_dir, best_path=best_path, best_val_pr_auc=best_val,
                        swa_paths=swa_paths, metrics_path=metrics_path, metrics=metrics)
