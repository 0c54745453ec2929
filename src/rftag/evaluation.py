"""Macro PR-AUC scoring, threshold tuning, and prediction ensembling.

Ranking rule: per tag, tracks are ranked by descending score, ties broken by
ascending track id.  ``_ranking`` is the only place a tag's tracks are
ranked.  ``_tags`` is the only place a table is aligned and ranked, one tag
at a time; it first names a non-finite score by track and tag with
``_check_finite``, the one finiteness rule for score tables, then sorts
the ids once by ``_id_order``, an integer order shared by every tag, so no
tag compares id strings.  A tag's scores are taken in that order and sorted
by numpy's default sort, which need not keep ties in place; each run of equal
scores is then re-sorted by its tracks' positions in id order.  That makes
the order the unique one the rule names, whichever sort numpy runs, and the
ranked scores are read back from the tracks, so a run holding ``0.0`` and
``-0.0`` keeps each track's sign.

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
number of positives among those k.  k is read from the runs of equal scores
without a search: the midpoint of distinct a < b lies in [a, b], so the
scores below it are those up to the end of a's run, or up to its start when
``(a + b) / 2`` rounds down onto a (adjacent doubles, subnormals).  Only the
0.5 fallback is searched for, once per tag.

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

Writer rule: each score cell is the correctly rounded text ``"%.6f"`` gives,
and each decision cell the text of ``"%d"``.  ``_block_text`` builds the cells
of ``_BLOCK_ROWS`` rows at a time as ASCII digits.  A score x in [0, 1] is
written as the integer ``rint(x * 1e6)``, split into ``d.dddddd``.  That is the
correctly rounded text unless the fractional part of the float64 product
``x * 1e6`` lies within 1e-6 of .5, where the product's own rounding can move
it across the half-way point (exact ties such as 1/128 occur too).  A
decision is written as its digit when it is 0 or 1.  A row is formatted by the
per-row ``%`` expression instead when any of its cells is outside [0, 1],
non-finite, has its sign bit set (``-0.0``) or is near such a tie, or, for
decisions, is a value other than 0 or 1.

Reader rule: a file whose every body line is in the writer's score layout,
an id holding no tab followed by ``<TAB>d.dddddd`` per tag, is read in bulk.
``_fixed_layout`` takes the last ``9 x width`` characters of each line,
``_BLOCK_ROWS`` lines at a time, checks their bytes as tabs, ASCII digits and
points, and reads a cell's seven digits as the integer q and its value as the
float64 ``q / 1e6``.  That is the cell rule's value: q and 1e6 are exact
doubles and IEEE division rounds correctly, so ``q / 1e6`` is the double
nearest the decimal, which is what ``np.loadtxt``'s correctly rounded parse
gives.  Any other file (an exponent, ``nan``, a short or a long line, a
``"\\r\\n"`` line end, a non-ASCII cell, a decisions file, no tags) is read
line by line by the cell rule, so its values and its errors do not depend on
the bulk path.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .inference import check_clip, predict_scores
from .models import Model, echo_field, load_model


def _unique(kind: str, names: list) -> list:
    """``names``, unless one of them repeats."""
    if len(set(names)) != len(names):
        dup = next(name for name, n in Counter(names).items() if n > 1)
        raise ValueError(f"{kind} must be unique; {dup!r} repeats")
    return names


def _check_table(ids: list, tags: list, matrix: np.ndarray, what: str) -> None:
    """Track ids and tag names that are unique ``str``s, and a ``len(ids) x len(tags)`` matrix."""
    for kind, names in (("track id", ids), ("tag", tags)):
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"{kind} {name!r} is not a str")
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
        _refuse_cell(self, self.labels, ~np.isin(self.labels, (0, 1)), "labels must be 0 or 1, got")


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
        _check_finite(self)
        _refuse_cell(self, self.scores, (self.scores < 0) | (self.scores > 1),
                     "scores must lie in [0, 1], got")


@dataclass
class EvalReport:
    tags: list
    ap: list            # float per tag, None where unscoreable
    support: list       # positive count per tag
    macro_pr_auc: float
    skipped: list       # tags with no positives


def _refuse_cell(table, values, bad, what: str) -> None:
    """Refuse ``what`` if a cell of ``values`` is ``bad``, naming the first by track and tag."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{what} {values[i][j]} for track {table.ids[i]!r}, "
                         f"tag {table.tags[j]!r}")


def _check_finite(preds: PredictionSet) -> None:
    """Refuse a NaN or inf score, naming the first by track and tag."""
    _refuse_cell(preds, preds.scores, ~np.isfinite(preds.scores), "non-finite score")


def _id_order(ids) -> np.ndarray:
    """Row indices in ascending id order: the tie key of ``_ranking``, sorted once per table."""
    return np.argsort(np.asarray(ids), kind="stable")


def _ranking(scores, labels, id_order) -> tuple:
    """One tag's tracks by descending score, ties by ascending id.

    ``id_order`` is ``_id_order`` of the tracks' ids, so a track's position
    in ``-scores[id_order]`` is its rank by id.  That array is sorted with
    numpy's default (unstable) sort, and then each run of equal keys is
    re-sorted by position, which leaves tied tracks in id order.  Returns the
    ranked scores and ``positives``, where ``positives[k]`` is the number of
    positive labels among the first k ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    keys = -scores[id_order]
    rank = np.argsort(keys)
    ranked_keys = keys[rank]
    tied = ranked_keys[1:] == ranked_keys[:-1]
    if tied.any():
        in_run = np.flatnonzero(np.append(tied, False) | np.append(False, tied))
        run = rank[in_run]
        rank[in_run] = run[np.lexsort((run, ranked_keys[in_run]))]
    order = id_order[rank]
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


def _tags(preds: PredictionSet, labels: LabelSet):
    """``(tag, ranked, positives)`` per tag of ``preds``, one at a time, labels aligned by id.

    A score made non-finite after ``preds`` was built is named as
    ``PredictionSet`` names it, before any tag is ranked.
    """
    _check_finite(preds)
    aligned = labels.labels[_rows(labels, preds)]
    id_order = _id_order(preds.ids)
    for j, tag in enumerate(preds.tags):
        yield (tag, *_ranking(preds.scores[:, j], aligned[:, j], id_order))


def _ap(positives) -> float:
    """Average precision of a ranking with a positive, from ``_ranking``'s ``positives``."""
    hit_ranks = np.flatnonzero(np.diff(positives)) + 1
    # np.cumsum adds in rank order; np.sum's pairwise order would move the last bits
    return float(np.cumsum(positives[hit_ranks] / hit_ranks)[-1] / positives[-1])


def macro_pr_auc(preds: PredictionSet, labels: LabelSet) -> EvalReport:
    """Mean AP over scoreable tags; per-tag detail in the report."""
    aps, supports = [], []
    for _, _, positives in _tags(preds, labels):
        supports.append(int(positives[-1]))
        aps.append(_ap(positives) if positives[-1] else None)
    skipped = [tag for tag, ap in zip(preds.tags, aps) if ap is None]
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
    checkpoint's echo; a missing or unusable field, a repeated tag, or a
    field whose text is not the written text of its value, is named with
    the path."""
    section = f"{path}: run metadata"

    def read(key, parse, usable, need):
        value = echo_field(echo, key, parse, section)
        if not usable(value):
            raise ValueError(f"{section} field {key!r} {need}, got {echo[key]!r}")
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
    Once a member is loaded, every clip must pass ``check_clip`` for its
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
            check_clip(clip.values, model.config.input_bins, f"track {clip.track_id!r}: clip {i}")
        crop_frames, norm_mean, norm_std, tags = _run_metadata(path, echo, model)
        if members and tags != members[0].tags:
            raise ValueError(f"{path}: run metadata field 'tags' {tags} differs from {paths[0]}'s")
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
    thresholds, f1s = np.full(len(preds.tags), 0.5), np.zeros(len(preds.tags))
    flagged = {}
    for j, (tag, ranked, positives) in enumerate(_tags(preds, labels)):
        if positives[-1] == 0:
            flagged[tag] = "no positive labels"
            continue
        ascending = ranked[::-1]
        starts = np.flatnonzero(np.append(True, ascending[1:] != ascending[:-1]))
        distinct = ascending[starts]
        if len(distinct) == 1:
            flagged[tag] = "all scores equal"
        mid = (distinct[:-1] + distinct[1:]) / 2.0
        below = np.where(mid > distinct[:-1], starts[1:], starts[:-1])   # scores < mid
        at = np.searchsorted(mid, 0.5)
        candidates = np.insert(mid, at, 0.5)
        k = len(ranked) - np.insert(below, at, np.searchsorted(ascending, 0.5))   # score >= t
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

    Each cell is the text ``"%.6f"`` (``"%d"`` for decisions) gives; see the
    module's writer rule for which rows ``_block_text`` formats in bulk.  An
    id or tag holding a tab or a newline is refused before anything is
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

    def texts():
        yield "\t".join(["track_id"] + list(preds.tags)) + "\n"
        for i in range(0, len(preds.ids), _BLOCK_ROWS):
            yield _block_text(preds.ids[i:i + _BLOCK_ROWS], matrix[i:i + _BLOCK_ROWS],
                              row, decisions)

    try:
        data = [text.encode("utf-8") for text in texts()]
    except UnicodeEncodeError:
        try:   # one encode of the whole text names the character by its place in the file
            "".join(texts()).encode("utf-8")
        except UnicodeEncodeError as err:
            raise ValueError(f"{path}: not writable as UTF-8: {err}") from None
        raise
    with Path(path).open("wb") as f:
        f.writelines(data)


# Rows per block of ``_block_text`` and ``_fixed_layout``: their float64 and
# digit temporaries stay within a few hundred KiB at 56 tags.
_BLOCK_ROWS = 512


def _block_text(ids, block, row: str, decisions: bool) -> str:
    """The TSV lines of ``ids`` and their ``block`` rows, as ``row % values`` writes them.

    Each line is the id, then ``<TAB>cell`` per column, then ``"\\n"``, with
    the cells built as ASCII digits by the module's writer rule; a row the
    rule cannot decide is formatted with ``row`` instead.
    """
    n, width = np.shape(block)
    cell = 2 if decisions else 9                 # "\t" + "d" or "\t" + "d.dddddd"
    text = np.full((n, cell * width + 1), ord("\t"), dtype=np.uint8)
    text[:, -1] = ord("\n")
    cells = text[:, :-1].reshape(n, width, cell)
    if decisions:
        bad = (block != 0) & (block != 1)
        cells[..., 1] = np.add(block == 1, ord("0"), dtype=np.uint8)
    else:
        x = np.array(block, dtype=np.float64)
        bad = ~((x >= 0) & (x <= 1)) | np.signbit(x)
        x[bad] = 0.0
        x *= 1e6
        bad |= np.abs(x - np.floor(x) - 0.5) <= 1e-6
        q = np.rint(x, out=x).astype(np.int32)
        for k in range(8, 2, -1):
            cells[..., k] = q % 10 + ord("0")
            q //= 10
        cells[..., 1] = q + ord("0")
        cells[..., 2] = ord(".")
    line = text.shape[1]
    text = text.tobytes().decode("ascii")
    lines = [tid + text[i * line:(i + 1) * line] for i, tid in enumerate(ids)]
    for i in np.flatnonzero(bad.any(axis=1)):
        lines[i] = row % (ids[i], *block[i].tolist())
    return "".join(lines)


def load_predictions(path) -> PredictionSet:
    """The prediction set a TSV holds, read by the module's reader rule: in
    bulk when every line is in the writer's score layout, else line by line
    by the cell rule.  A file that breaks the module's TSV rules or
    ``PredictionSet``'s checks is refused with a ``ValueError`` naming it."""
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
    body = lines[1:]
    table = _fixed_layout(body, len(tags))
    if table is None:
        ids = []
        rows = []
        for lineno, line in enumerate(body, start=2):
            tabs = line.count("\t")
            if tabs != len(tags):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {tabs + 1}")
            tid, _, row = line.partition("\t")
            ids.append(tid)
            rows.append(row)
        scores = _numbers(rows, len(tags))
        if scores is None:
            raise _cell_error(path, rows, tags)
    else:
        ids, scores = table
    try:
        return PredictionSet(ids=ids, tags=tags, scores=scores)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# One score cell of the writer's layout, ``"\td.dddddd"``: its lowest bytes,
# and how far above them each byte may go (9 for a digit, 0 for the tab and
# the point).
_CELL_LOW = np.frombuffer(b"\t0.000000", dtype=np.uint8)
_CELL_SPAN = np.where(_CELL_LOW == ord("0"), 9, 0).astype(np.uint8)


def _fixed_layout(lines: list, width: int) -> Optional[tuple]:
    """(ids, scores) of ``lines`` by the module's reader rule; None unless
    each line is an id holding no tab followed by ``width`` cells
    ``"\\td.dddddd"``."""
    if not width:
        return None
    tail = len(_CELL_LOW) * width
    low, span = np.tile(_CELL_LOW, width), np.tile(_CELL_SPAN, width)
    ids = []
    scores = np.empty((len(lines), width))
    for i in range(0, len(lines), _BLOCK_ROWS):
        block = lines[i:i + _BLOCK_ROWS]
        names = [line[:-tail] for line in block]
        text = "".join([line[-tail:] for line in block])
        if "\t" in "".join(names) or len(text) != len(block) * tail or not text.isascii():
            return None
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(block), tail) - low
        if not (digits <= span).all():
            return None
        digits = digits.reshape(-1, len(_CELL_LOW))
        q = digits[:, 1].astype(np.int32)
        for k in range(3, len(_CELL_LOW)):
            q *= 10
            q += digits[:, k]
        np.divide(q, 1e6, out=scores[i:i + len(block)].reshape(-1))
        ids += names
    return ids, scores


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
