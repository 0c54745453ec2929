"""Macro PR-AUC scoring, threshold tuning, and prediction ensembling.

Ranking rule: per tag, tracks are ranked by descending score, ties broken by
ascending track id.  ``_ranking`` is the only place a tag's tracks are
ranked, and non-finite scores are rejected there.

PR-AUC here is macro-averaged average precision: per tag, the precision at
each positive of the ranking, summed in rank order and divided by the
number of positives, then averaged over tags that have at least one
positive.  Tags without positives are excluded and reported, never scored
as zero.

Threshold rule: per tag, the candidates are the midpoints between
consecutive distinct scores plus the 0.5 fallback, a track is positive when
score >= threshold, and the candidate with the highest F1 wins, ties going
to the higher threshold.  ``score >= t`` holds for exactly the first k
ranks, so each candidate's F1 is 2 tp / (k + positives), where tp is the
number of positives among those k.

Track ids are matched across sets by ``_rows``, which raises unless both
sets list the same ids and the same tags.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .inference import clip_problem, predict_scores
from .models import Model, load_model


def _check_table(ids: list, tags: list, matrix: np.ndarray, what: str) -> None:
    """Unique track ids, unique tag names and a ``len(ids) x len(tags)`` matrix."""
    for kind, names in (("track ids", ids), ("tag names", tags)):
        if len(set(names)) != len(names):
            dup = next(name for name, n in Counter(names).items() if n > 1)
            raise ValueError(f"{kind} must be unique; {dup!r} repeats")
    if np.shape(matrix) != (len(ids), len(tags)):
        raise ValueError(f"{what} shape {np.shape(matrix)} does not match "
                         f"{len(ids)} ids x {len(tags)} tags")


@dataclass
class LabelSet:
    """Binary reference labels: tracks x tags."""

    ids: list
    tags: list
    labels: np.ndarray

    def __post_init__(self):
        _check_table(self.ids, self.tags, self.labels, "labels")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")


@dataclass
class ThresholdSet:
    """Per-tag decision thresholds selected by F1 on a validation split."""

    tags: list
    thresholds: np.ndarray
    f1: np.ndarray
    flagged: dict = field(default_factory=dict)


@dataclass
class PredictionSet:
    """Per-track, per-tag scores in [0, 1] with optional binary decisions."""

    ids: list
    tags: list
    scores: np.ndarray
    decisions: Optional[np.ndarray] = None
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        _check_table(self.ids, self.tags, self.scores, "scores")
        bad = ~np.isfinite(self.scores)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"non-finite score {self.scores[i, j]} for track "
                             f"{self.ids[i]!r}, tag {self.tags[j]!r}")
        if np.any(self.scores < 0) or np.any(self.scores > 1):
            raise ValueError("scores must lie in [0, 1]")


@dataclass
class EvalReport:
    tags: list
    ap: list            # float per tag, None where unscoreable
    support: list       # positive count per tag
    macro_pr_auc: float
    skipped: list       # tags with no positives

    def as_csv(self) -> str:
        lines = ["tag,ap,positives"]
        for tag, ap, sup in zip(self.tags, self.ap, self.support):
            lines.append(f"{tag},{'' if ap is None else f'{ap:.6f}'},{sup}")
        lines.append(f"macro_pr_auc={self.macro_pr_auc:.6f}")
        return "\n".join(lines) + "\n"


def _ranking(scores, labels, ids) -> tuple:
    """One tag's tracks by descending score, ties by ascending id.

    Returns the ranked scores and ``positives``, where ``positives[k]`` is
    the number of positive labels among the first k ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.lexsort((ids, -scores))
    positives = np.concatenate(([0], np.cumsum(np.asarray(labels, dtype=bool)[order])))
    return scores[order], positives


def _rows(source, target) -> np.ndarray:
    """Row of ``source`` holding each of ``target``'s tracks, in ``target``'s order.

    Both must list the same tags and the same set of track ids.
    """
    if list(source.tags) != list(target.tags):
        raise ValueError(f"tag mismatch: {list(source.tags)} vs {list(target.tags)}")
    row = {tid: i for i, tid in enumerate(source.ids)}
    if row.keys() != set(target.ids):
        odd = sorted(row.keys() ^ set(target.ids))
        raise ValueError(f"track id mismatch: {len(odd)} ids in only one set, first {odd[:5]}")
    return np.array([row[tid] for tid in target.ids], dtype=np.intp)


def average_precision(scores, labels, ids=None) -> float:
    """Mean of precision at each positive, over the score-sorted list."""
    if ids is None:
        ids = [str(i) for i in range(len(labels))]
    _, positives = _ranking(scores, labels, np.asarray(ids))
    if positives[-1] < 1:
        raise ValueError("average precision needs at least one positive label")
    hit_ranks = np.flatnonzero(np.diff(positives)) + 1
    # np.cumsum adds in rank order; np.sum's pairwise order would move the last bits
    return float(np.cumsum(positives[hit_ranks] / hit_ranks)[-1] / positives[-1])


def macro_pr_auc(preds: PredictionSet, labels: LabelSet) -> EvalReport:
    """Mean AP over scoreable tags; per-tag detail in the report."""
    aligned = labels.labels[_rows(labels, preds)]
    ids = np.asarray(preds.ids)
    aps = []
    supports = []
    skipped = []
    for j, tag in enumerate(preds.tags):
        sup = int(aligned[:, j].sum())
        supports.append(sup)
        if sup == 0:
            aps.append(None)
            skipped.append(tag)
        else:
            aps.append(average_precision(preds.scores[:, j], aligned[:, j], ids))
    scored = [a for a in aps if a is not None]
    if not scored:
        raise ValueError("no tag has a positive label; macro PR-AUC undefined")
    return EvalReport(tags=list(preds.tags), ap=aps, support=supports,
                      macro_pr_auc=float(np.mean(scored)), skipped=skipped)


# ---------------------------------------------------------------------------
# ensembling
# ---------------------------------------------------------------------------


def ensemble_average(members: list) -> PredictionSet:
    """Elementwise mean of member scores; decisions are dropped."""
    if not members:
        raise ValueError("ensemble needs at least one member")
    first = members[0]
    acc = np.array(first.scores, dtype=np.float64)
    for m in members[1:]:
        acc += m.scores[_rows(m, first)]
    provenance = [p for m in members for p in (m.provenance or [])]
    return PredictionSet(ids=list(first.ids), tags=list(first.tags),
                         scores=acc / len(members), provenance=provenance)


def _run_metadata(path, echo: dict, model: Model) -> tuple:
    """(crop_frames, norm_mean, norm_std, tags) that training wrote into a
    checkpoint's echo; a missing or unusable field is named with the path."""
    def read(key, parse, usable, need):
        if key not in echo:
            raise ValueError(f"{path}: run metadata has no field {key!r}")
        try:
            value = parse(echo[key])
        except ValueError as exc:
            raise ValueError(f"{path}: run metadata field {key!r}: {exc}") from None
        if not usable(value):
            raise ValueError(f"{path}: run metadata field {key!r} {need}, got {echo[key]!r}")
        return value

    frames = model.min_frames()
    return (read("crop_frames", int, lambda v: v >= frames,
                 f"must be >= the model's {frames} frames"),
            read("norm_mean", float, math.isfinite, "must be finite"),
            read("norm_std", float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
            read("tags", lambda text: text.split(","), lambda v: len(v) == model.config.n_tags,
                 f"must name the model's {model.config.n_tags} tags"))


def snapshot_ensemble(artifacts, clips, batch_size: int = 8) -> PredictionSet:
    """Predictions averaged over best-val plus up to the 4 most recent SWA models.

    ``artifacts`` is a training RunArtifacts; ``clips`` a list of TaggedClip.
    Every clip is checked before any member runs, and each member's run
    metadata before that member runs.  Each member predicts with sliding
    windows; members' score sets are then averaged.  Fewer than 4 SWA
    checkpoints is allowed and recorded in the provenance.
    """
    for i, clip in enumerate(clips):
        problem = clip_problem(clip.values)
        if problem:
            raise ValueError(f"track {clip.track_id!r}: clip {i} {problem}")
    paths = [artifacts.best_path] + list(artifacts.swa_paths[-4:])
    members = []
    for path in paths:
        model, echo = load_model(path)
        crop_frames, norm_mean, norm_std, tags = _run_metadata(path, echo, model)
        scores = predict_scores(model, [c.values for c in clips], crop_frames, norm_mean,
                                norm_std, mode="windows", batch_size=batch_size)
        members.append(PredictionSet(ids=[c.track_id for c in clips], tags=tags,
                                     scores=scores, provenance=[str(path)]))
    return ensemble_average(members)


# ---------------------------------------------------------------------------
# decision thresholds
# ---------------------------------------------------------------------------


def tune_thresholds(preds: PredictionSet, labels: LabelSet) -> ThresholdSet:
    """Per tag, the threshold maximizing F1 over midpoint candidates.

    See the module docstring for the candidates and the tie rule; tags with
    no positive label keep 0.5 and are flagged.
    """
    aligned = labels.labels[_rows(labels, preds)]
    ids = np.asarray(preds.ids)
    n_tags = len(preds.tags)
    thresholds = np.full(n_tags, 0.5)
    f1s = np.zeros(n_tags)
    flagged = {}
    for j, tag in enumerate(preds.tags):
        ranked, positives = _ranking(preds.scores[:, j], aligned[:, j], ids)
        if positives[-1] == 0:
            flagged[tag] = "no positive labels"
            continue
        ascending = ranked[::-1]
        distinct = ascending[np.append(True, ascending[1:] != ascending[:-1])]
        if len(distinct) == 1:
            flagged[tag] = "all scores equal"
        candidates = np.sort(np.append((distinct[:-1] + distinct[1:]) / 2.0, 0.5))
        k = len(ranked) - np.searchsorted(ascending, candidates)   # tracks with score >= t
        f1 = 2 * positives[k] / (k + positives[-1])
        best = len(f1) - 1 - np.argmax(f1[::-1])   # the last maximum: the higher threshold
        thresholds[j] = candidates[best]
        f1s[j] = f1[best]
    return ThresholdSet(tags=list(preds.tags), thresholds=thresholds, f1=f1s,
                        flagged=flagged)


def apply_thresholds(preds: PredictionSet, thresholds: ThresholdSet) -> PredictionSet:
    if list(preds.tags) != list(thresholds.tags):
        raise ValueError("threshold tags do not match prediction tags")
    decisions = (preds.scores >= thresholds.thresholds[None, :]).astype(np.int8)
    return PredictionSet(ids=list(preds.ids), tags=list(preds.tags),
                         scores=preds.scores.copy(), decisions=decisions,
                         provenance=list(preds.provenance))


# ---------------------------------------------------------------------------
# TSV / CSV files
# ---------------------------------------------------------------------------


def save_predictions(path, preds: PredictionSet, decisions: bool = False) -> None:
    """TSV: header ``track_id<TAB>tag...``, scores to 6 decimals (or 0/1)."""
    lines = ["\t".join(["track_id"] + list(preds.tags))]
    matrix = preds.decisions if decisions else preds.scores
    if decisions and preds.decisions is None:
        raise ValueError("prediction set has no decisions to write")
    for i, tid in enumerate(preds.ids):
        if decisions:
            cells = [str(int(v)) for v in matrix[i]]
        else:
            cells = [f"{v:.6f}" for v in matrix[i]]
        lines.append("\t".join([tid] + cells))
    Path(path).write_text("\n".join(lines) + "\n")


def load_predictions(path) -> PredictionSet:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty predictions file")
    header = lines[0].split("\t")
    if header[0] != "track_id":
        raise ValueError(f"{path}: first column must be track_id, got {header[0]!r}")
    tags = header[1:]
    ids = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
        ids.append(parts[0])
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            tag, cell = next((t, v) for t, v in zip(tags, parts[1:]) if not _is_number(v))
            raise ValueError(f"{path}:{lineno}: column {tag!r}: not a number: {cell!r}") from None
    try:
        return PredictionSet(ids=ids, tags=tags,
                             scores=np.array(rows, dtype=np.float64).reshape(len(ids), len(tags)))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True

