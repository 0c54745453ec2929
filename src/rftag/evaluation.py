"""Macro PR-AUC scoring, threshold tuning, and prediction ensembling.

Ranking rule: per tag, tracks are ranked by descending score, ties broken by
ascending track id.  ``_ranking`` is the only place a tag's tracks are
ranked, and non-finite scores are rejected there.  The ids are sorted once
per table by ``_id_order``, an integer order shared by every tag, so no tag
compares id strings.

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

Prediction TSVs are UTF-8 with ``"\n"`` line ends; no other character ends a
line.  The first line is ``track_id`` and the tags, each further line a track
id and one cell per tag, all separated by tabs, so an id or tag holding a tab
or a newline is refused.  Cell rule: a cell is a number when ``np.loadtxt``
reads it as a float64 (ASCII decimal or exponent notation, nan or inf,
surrounding whitespace ignored); ``1_0``, non-ASCII digits and an empty cell
are not.  ``_numbers`` applies the rule to a whole file at once and, on a
failure, to one line and one cell at a time to name the culprit.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .inference import clip_problem, predict_scores
from .models import Model, load_model


def _unique(kind: str, names: list) -> list:
    """``names``, unless one of them repeats."""
    if len(set(names)) != len(names):
        dup = next(name for name, n in Counter(names).items() if n > 1)
        raise ValueError(f"{kind} must be unique; {dup!r} repeats")
    return names


def _check_table(ids: list, tags: list, matrix: np.ndarray, what: str) -> None:
    """Unique track ids, unique tag names and a ``len(ids) x len(tags)`` matrix."""
    _unique("track ids", ids)
    _unique("tag names", tags)
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
        """``tag,ap,positives`` rows; a tag holding a comma or a newline is refused."""
        lines = ["tag,ap,positives"]
        for tag, ap, sup in zip(self.tags, self.ap, self.support):
            if "," in tag or "\n" in tag:
                raise ValueError(f"tag {tag!r} holds a comma or a newline, "
                                 f"which the CSV report cannot hold")
            lines.append(f"{tag},{'' if ap is None else f'{ap:.6f}'},{sup}")
        lines.append(f"macro_pr_auc={self.macro_pr_auc:.6f}")
        return "\n".join(lines) + "\n"


def _id_order(ids) -> np.ndarray:
    """Row indices in ascending id order: the tie key of ``_ranking``, sorted once per table."""
    return np.argsort(np.asarray(ids), kind="stable")


def _ranking(scores, labels, id_order) -> tuple:
    """One tag's tracks by descending score, ties by ascending id.

    ``id_order`` is ``_id_order`` of the tracks' ids: a stable sort by
    descending score of the tracks taken in that order keeps tied tracks in
    id order.  Returns the ranked scores and ``positives``, where
    ``positives[k]`` is the number of positive labels among the first k ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = id_order[np.argsort(-scores[id_order], kind="stable")]
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
    return _average_precision(scores, labels, _id_order(ids))


def _average_precision(scores, labels, id_order) -> float:
    _, positives = _ranking(scores, labels, id_order)
    if positives[-1] < 1:
        raise ValueError("average precision needs at least one positive label")
    hit_ranks = np.flatnonzero(np.diff(positives)) + 1
    # np.cumsum adds in rank order; np.sum's pairwise order would move the last bits
    return float(np.cumsum(positives[hit_ranks] / hit_ranks)[-1] / positives[-1])


def macro_pr_auc(preds: PredictionSet, labels: LabelSet) -> EvalReport:
    """Mean AP over scoreable tags; per-tag detail in the report."""
    aligned = labels.labels[_rows(labels, preds)]
    id_order = _id_order(preds.ids)
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
            aps.append(_average_precision(preds.scores[:, j], aligned[:, j], id_order))
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
    checkpoint's echo; a missing or unusable field, or a repeated tag, is
    named with the path."""
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

    frames = model.min_input[1]
    return (read("crop_frames", int, lambda v: v >= frames,
                 f"must be >= the model's {frames} frames"),
            read("norm_mean", float, math.isfinite, "must be finite"),
            read("norm_std", float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
            read("tags", lambda text: _unique("tag names", text.split(",")),
                 lambda v: len(v) == model.config.n_tags,
                 f"must name the model's {model.config.n_tags} tags"))


def snapshot_ensemble(artifacts, clips) -> PredictionSet:
    """Predictions averaged over best-val plus up to the 4 most recent SWA models.

    ``artifacts`` is a training RunArtifacts; ``clips`` a list of TaggedClip.
    Once a member is loaded, every clip must pass ``clip_problem`` for its
    ``input_bins`` (a bad one is named by track and index) and its run
    metadata must be usable, before that member predicts with sliding
    windows.  Members' score sets are averaged; fewer than 4 SWA
    checkpoints is allowed and recorded in the provenance.
    """
    paths = [artifacts.best_path] + list(artifacts.swa_paths[-4:])
    members = []
    for path in paths:
        model, echo = load_model(path)
        for i, clip in enumerate(clips):
            problem = clip_problem(clip.values, model.config.input_bins)
            if problem:
                raise ValueError(f"track {clip.track_id!r}: clip {i} {problem}")
        crop_frames, norm_mean, norm_std, tags = _run_metadata(path, echo, model)
        scores = predict_scores(model, [c.values for c in clips], crop_frames, norm_mean,
                                norm_std, mode="windows")
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
    id_order = _id_order(preds.ids)
    n_tags = len(preds.tags)
    thresholds = np.full(n_tags, 0.5)
    f1s = np.zeros(n_tags)
    flagged = {}
    for j, tag in enumerate(preds.tags):
        ranked, positives = _ranking(preds.scores[:, j], aligned[:, j], id_order)
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
    """TSV: header ``track_id<TAB>tag...``, scores to 6 decimals (or 0/1).

    An id or tag holding a tab or a newline is refused before anything is
    written.
    """
    if decisions and preds.decisions is None:
        raise ValueError("prediction set has no decisions to write")
    for kind, names in (("track id", preds.ids), ("tag", preds.tags)):
        for name in names:
            if "\t" in name or "\n" in name:
                raise ValueError(f"{path}: {kind} {name!r} holds a tab or a newline")
    matrix = preds.decisions if decisions else preds.scores
    row = "\t".join(["%s"] + ["%d" if decisions else "%.6f"] * len(preds.tags)) + "\n"
    lines = ["\t".join(["track_id"] + list(preds.tags)) + "\n"]
    lines += [row % (tid, *values.tolist()) for tid, values in zip(preds.ids, matrix)]
    try:
        data = "".join(lines).encode("utf-8")
    except UnicodeEncodeError as err:
        raise ValueError(f"{path}: not writable as UTF-8: {err}") from None
    Path(path).write_bytes(data)


def load_predictions(path) -> PredictionSet:
    try:
        lines = Path(path).read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8: {err}") from None
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty predictions file")
    header = lines[0].split("\t")
    if header[0] != "track_id":
        raise ValueError(f"{path}: first column must be track_id, got {header[0]!r}")
    tags = header[1:]
    ids = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tabs = line.count("\t")
        if tabs != len(tags):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {tabs + 1}")
        tid, _, row = line.partition("\t")
        ids.append(tid)
        rows.append(row)
    scores = _numbers(rows, len(tags))
    if scores is None:
        raise _cell_error(path, rows, tags)
    try:
        return PredictionSet(ids=ids, tags=tags, scores=scores)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _numbers(rows: list, width: int) -> Optional[np.ndarray]:
    """Tab-separated rows of ``width`` cells as a float64 matrix, by the
    module's cell rule; None when a row breaks it."""
    if not rows or not width:
        return np.zeros((len(rows), width))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # loadtxt warns when every row is blank
            matrix = np.loadtxt(rows, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips a blank row ("" or a lone "\r"): with one tag, an empty cell
    return matrix if matrix.shape == (len(rows), width) else None


def _cell_error(path, rows: list, tags: list) -> ValueError:
    """The error naming the first line, and in it the first cell, that the cell rule rejects."""
    for lineno, row in enumerate(rows, start=2):
        if _numbers([row], len(tags)) is None:
            for tag, cell in zip(tags, row.split("\t")):
                if _numbers([cell], 1) is None:
                    return ValueError(f"{path}:{lineno}: column {tag!r}: not a number: {cell!r}")
            # each cell passes alone, but a "\r" inside the row ends it early
            return ValueError(f"{path}:{lineno}: not a row of numbers: {row!r}")
    return ValueError(f"{path}: not a table of numbers")
