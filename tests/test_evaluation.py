import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    brute_force_average_precision,
    brute_force_thresholds,
    per_cell_tsv,
    stable_ranking,
)
from rftag import evaluation
from rftag.evaluation import (
    LabelSet,
    PredictionSet,
    ThresholdSet,
    apply_thresholds,
    ensemble_average,
    load_predictions,
    macro_pr_auc,
    save_predictions,
    tune_thresholds,
)

# deterministic examples and no example database on disk, so the suite is reproducible
CHECKS = settings(max_examples=60)

# few score levels, so most examples carry ties
LEVELS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


@st.composite
def tables(draw, max_tracks=20, max_tags=3, min_tracks=1):
    """(ids, scores, labels): tie-heavy scores in [0, 1] and 0/1 labels."""
    n = draw(st.integers(min_tracks, max_tracks))
    n_tags = draw(st.integers(1, max_tags))
    levels = draw(st.sampled_from([LEVELS[:1], LEVELS[:2], LEVELS[:4], LEVELS]))
    cell = st.one_of(st.sampled_from(levels), st.floats(0.0, 1.0))
    scores = draw(arrays(np.float64, (n, n_tags), elements=cell))
    labels = draw(arrays(np.int8, (n, n_tags), elements=st.integers(0, 1)))
    order = draw(st.permutations(range(n)))
    ids = [f"t{i:02d}" for i in order]
    return ids, scores, labels


def one_tag(column):
    """(ids, scores, labels) of one tag: ids in the reverse of row order and
    alternating labels, so a tie broken the wrong way moves ``positives``."""
    column = np.asarray(column, dtype=np.float64)
    n = len(column)
    return ([f"t{i:03d}" for i in reversed(range(n))], column[:, None],
            (np.arange(n) % 2).astype(np.int8)[:, None])


def tied_ends():
    """Three tracks tied at the first rank and three at the last, rows shuffled."""
    column = np.concatenate([np.full(3, 0.9), np.linspace(0.8, 0.2, 60), np.full(3, 0.1)])
    return one_tag(np.random.default_rng(66).permutation(column))


def long_run():
    """A run of 40 of 70 tracks, longer than half the table, rows shuffled."""
    column = np.concatenate([np.full(40, 0.25), np.random.default_rng(70).random(30)])
    return one_tag(np.random.default_rng(71).permutation(column))


def split(low, high):
    """Two tracks at ``low`` then two positives at ``high``: the best threshold
    is the midpoint of the two, wherever it rounds."""
    ids, scores, _ = one_tag([low, low, high, high])
    return ids, scores, np.array([[0], [0], [1], [1]], dtype=np.int8)


# what the TSV rules allow in an id or tag: any text without a tab or a newline
NAMES = st.text(st.characters(exclude_characters="\t\n"), max_size=6)
# line ends for str.splitlines but not for a prediction TSV
SPLITLINES_ONLY = ["\r", "\x0c", "\x85", "\u2028"]


@st.composite
def named_tables(draw, max_tracks=6, max_tags=3):
    """(ids, tags, scores): unique text ids and tags, scores in [0, 1]."""
    ids = draw(st.lists(NAMES, unique=True, max_size=max_tracks))
    tags = draw(st.lists(NAMES, unique=True, max_size=max_tags))
    scores = draw(arrays(np.float64, (len(ids), len(tags)), elements=st.floats(0.0, 1.0)))
    return ids, tags, scores


def tall_table():
    """(ids, tags, scores): a seeded 1 100 x 56 table, taller than one block of
    the writer, with cells the bulk rule leaves to per-row formatting on rows
    at and next to the block edges."""
    rng = np.random.default_rng(1100)
    scores = rng.random((1100, 56))
    scores[[0, 511, 512, 1023, 1024, 1099], [0, 55, 7, 30, 1, 55]] = [
        -0.0, 0.0078125, 2.5e-6, 5e-7, 0.9999995, 1.35e-5]
    return [f"t{i:04d}" for i in range(1100)], [f"g{j}" for j in range(56)], scores


def near_half_way(ks):
    """Scores at and next to (k + 0.5) / 1e6, one row per k."""
    half = (np.asarray(ks) + 0.5) / 1e6
    scores = np.stack([half, np.nextafter(half, 0.0), np.nextafter(half, 1.0)], axis=1)
    return [f"k{k}" for k in ks], ["at", "below", "above"], scores


# cells the bulk parse must reject, some of which float() accepts
NOT_NUMBERS = ["1_0", "\uff11", "\uff10.\uff15", "\u0663", "", " ", "\r", "0x1p-2", "#1", "0.1 0.2"]

# one edit of a saved TSV's bytes; see corrupt()
EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
    st.tuples(st.just("header"), st.integers(0, 4),
              st.one_of(st.sampled_from(["", "track_id", "g0", "\r", "a\tb", "a\nb"]), NAMES)),
    st.tuples(st.just("cell"), st.integers(1, 8), st.integers(0, 4),
              st.sampled_from(NOT_NUMBERS + ["nan", "inf", "-1", "2", "1e999", "0.1\r", "\x85"])),
)


def corrupt(data: bytes, edit: tuple) -> bytes:
    """Truncate, flip one byte, or rewrite one header field or one cell."""
    kind, *args = edit
    if kind == "truncate":
        return data[:int(args[0] * len(data))]
    if kind == "flip":
        if not data:
            return data
        i = min(int(args[0] * len(data)), len(data) - 1)
        return data[:i] + bytes([data[i] ^ args[1]]) + data[i + 1:]
    lines = data.split(b"\n")
    line, field, text = (0, *args) if kind == "header" else args
    if line >= len(lines):
        return data
    fields = lines[line].split(b"\t")
    fields[field % len(fields)] = text.encode("utf-8")
    lines[line] = b"\t".join(fields)
    return b"\n".join(lines)


def sets(ids, scores, labels, tags=None):
    tags = tags or [f"g{j}" for j in range(scores.shape[1])]
    return (PredictionSet(ids=list(ids), tags=list(tags), scores=scores),
            LabelSet(ids=list(ids), tags=list(tags), labels=labels))


class TestRanking:
    @CHECKS
    @given(tables(min_tracks=60, max_tracks=120))
    @example(one_tag(np.full(70, 0.5)))                  # all scores tied
    @example(one_tag([0.3]))                             # one track
    @example(tied_ends())
    @example(one_tag([0.5, 0.0, -0.0, 0.7, -0.0, 0.0, 0.0, -0.0, 0.2]))   # 0.0 and -0.0 tie
    @example(long_run())
    def test_matches_one_stable_sort(self, table):
        ids, scores, labels = table
        id_order = evaluation._id_order(ids)
        for j in range(scores.shape[1]):
            ranked, positives = evaluation._ranking(scores[:, j], labels[:, j], id_order)
            want_ranked, want_positives = stable_ranking(scores[:, j], labels[:, j], id_order)
            assert np.array_equal(ranked.view(np.int64), want_ranked.view(np.int64))
            assert np.array_equal(positives, want_positives)

    @pytest.mark.parametrize("score", [macro_pr_auc, tune_thresholds])
    def test_peak_is_at_most_one_mib_at_4000_tracks_by_56_tags(self, score):
        rng = np.random.default_rng(4000)
        labels = (rng.random((4000, 56)) < 0.08).astype(np.int8)
        labels[0] = 1
        preds, lab = sets([f"trk{i:05d}" for i in range(4000)], np.round(rng.random((4000, 56)), 6),
                          labels)
        tracemalloc.start()
        try:
            score(preds, lab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


class TestMacroPrAuc:
    @CHECKS
    @given(tables(), st.randoms(use_true_random=False))
    def test_label_row_order_does_not_matter(self, table, rnd):
        ids, scores, labels = table
        labels[rnd.randrange(len(ids)), 0] = 1
        preds, lab = sets(ids, scores, labels)
        perm = list(range(len(ids)))
        rnd.shuffle(perm)
        shuffled_ids = [ids[i] for i in perm]
        shuffled = LabelSet(ids=shuffled_ids, tags=lab.tags, labels=labels[perm])
        # the prediction rows permuted too, not only the labels
        shuffled_preds = PredictionSet(ids=shuffled_ids, tags=preds.tags, scores=scores[perm])
        a, b = macro_pr_auc(preds, lab), macro_pr_auc(preds, shuffled)
        c = macro_pr_auc(shuffled_preds, lab)
        assert a.ap == b.ap == c.ap and a.macro_pr_auc == b.macro_pr_auc == c.macro_pr_auc
        assert a.support == b.support == c.support == labels.sum(axis=0).tolist()
        for j, ap in enumerate(a.ap):
            if labels[:, j].any():
                assert ap == brute_force_average_precision(scores[:, j], labels[:, j], ids)

    def test_reports_skipped_tags(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1, 0], [0, 0]])
        report = macro_pr_auc(*sets(["a", "b"], scores, labels, ["x", "y"]))
        assert report.skipped == ["y"]
        assert report.ap == [1.0, None] and report.support == [1, 0]
        assert report.macro_pr_auc == 1.0

    def test_tied_scores_rank_ids_as_strings(self):
        # with all scores tied, "10" ranks before "2": the positive "10" is third
        ids = [str(i) for i in range(11)]
        labels = np.zeros((11, 1), dtype=np.int8)
        labels[10] = 1
        report = macro_pr_auc(*sets(ids, np.full((11, 1), 0.5), labels))
        assert report.ap == [brute_force_average_precision(np.full(11, 0.5), labels[:, 0], ids)]
        assert report.ap == [1 / 3]

    def test_non_finite_score_in_a_tag_without_positives_is_refused(self):
        preds, lab = sets(["a", "b"], np.array([[0.9, 0.1], [0.2, 0.8]]),
                          np.array([[1, 0], [0, 0]]), ["x", "y"])
        preds.scores[1, 1] = np.nan   # written after PredictionSet checked it
        with pytest.raises(ValueError) as err:
            macro_pr_auc(preds, lab)
        assert str(err.value) == "non-finite score nan for track 'b', tag 'y'"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_in_a_tag_with_positives_is_refused(self, bad):
        preds, lab = sets(["a", "b"], np.array([[0.9, 0.1], [0.2, 0.8]]),
                          np.array([[1, 0], [0, 1]]), ["x", "y"])
        preds.scores[0, 0] = bad   # written after PredictionSet checked it
        with pytest.raises(ValueError) as err:
            macro_pr_auc(preds, lab)
        assert str(err.value) == f"non-finite score {bad} for track 'a', tag 'x'"

    def test_no_tag_with_a_positive_is_refused(self):
        preds, lab = sets(["a", "b"], np.array([[0.9, 0.1], [0.2, 0.8]]),
                          np.zeros((2, 2), dtype=np.int8), ["x", "y"])
        with pytest.raises(ValueError) as err:
            macro_pr_auc(preds, lab)
        assert str(err.value) == "no tag has a positive label; macro PR-AUC undefined"

    def test_rejects_id_mismatch(self):
        preds, _ = sets(["a", "b"], np.array([[0.1], [0.2]]), np.array([[1], [0]]))
        other = LabelSet(ids=["a", "c"], tags=preds.tags, labels=np.array([[1], [0]]))
        with pytest.raises(ValueError, match="track id mismatch.*'b'.*'c'"):
            macro_pr_auc(preds, other)

    def test_rejects_tag_mismatch(self):
        preds, _ = sets(["a", "b"], np.array([[0.1], [0.2]]), np.array([[1], [0]]))
        other = LabelSet(ids=["a", "b"], tags=["other"], labels=np.array([[1], [0]]))
        with pytest.raises(ValueError, match="tag mismatch"):
            macro_pr_auc(preds, other)

    def test_id_mismatch_names_the_first_five(self):
        preds, _ = sets(list("abcd"), np.zeros((4, 1)), np.ones((4, 1), dtype=np.int8))
        other = LabelSet(ids=list("wxyz"), tags=preds.tags, labels=np.ones((4, 1), dtype=np.int8))
        with pytest.raises(ValueError) as err:
            macro_pr_auc(preds, other)
        assert str(err.value) == ("track id mismatch: 8 ids in only one set, "
                                  "first ['a', 'b', 'c', 'd', 'w']")


class TestLabelSet:
    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="'a' repeats"):
            LabelSet(ids=["a", "b", "a"], tags=["x"], labels=np.array([[1], [0], [0]]))

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValueError, match="tag names must be unique; 'x' repeats"):
            LabelSet(ids=["a", "b"], tags=["x", "y", "x"], labels=np.zeros((2, 3)))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            LabelSet(ids=["a", "b"], tags=["x", "y"], labels=np.array([[1], [0]]))

    def test_values_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabelSet(ids=["a", "b"], tags=["x"], labels=np.array([[1], [2]]))

    @pytest.mark.parametrize("labels, cell", [
        (np.array([[1, 0], [0, 2]]), "2 for track 'b', tag 'y'"),
        (np.array([[1, -1], [0.5, 1]]), "-1.0 for track 'a', tag 'y'"),
        ([[1, 0], [3, 1]], "3 for track 'b', tag 'x'"),
    ], ids=["two", "first-in-row-order", "nested-list"])
    def test_label_other_than_0_or_1_is_named_by_track_and_tag(self, labels, cell):
        with pytest.raises(ValueError) as err:
            LabelSet(ids=["a", "b"], tags=["x", "y"], labels=labels)
        assert str(err.value) == f"labels must be 0 or 1, got {cell}"

    @pytest.mark.parametrize("ids, tags, name", [
        (["a", 2, 3], ["x"], "track id 2"),
        (["a", "b", "c"], ["x", None], "tag None"),
    ])
    def test_id_or_tag_not_a_str_named(self, ids, tags, name):
        with pytest.raises(ValueError, match=f"^{name} is not a str$"):
            LabelSet(ids=ids, tags=tags, labels=np.zeros((3, len(tags))))


class TestPredictionSet:
    def test_nan_names_track_and_tag(self):
        scores = np.array([[0.1, 0.2], [0.3, np.nan]])
        with pytest.raises(ValueError, match="track 'b', tag 'y'"):
            PredictionSet(ids=["a", "b"], tags=["x", "y"], scores=scores)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PredictionSet(ids=["a"], tags=["x"], scores=np.array([[np.inf]]))

    @pytest.mark.parametrize("scores, cell", [
        ([[0.1, 0.2], [1.5, 0.3]], "1.5 for track 'b', tag 'x'"),
        ([[0.0, -0.25], [1.0, 2.0]], "-0.25 for track 'a', tag 'y'"),
    ], ids=["above-one", "first-in-row-order"])
    def test_score_outside_0_1_is_named_by_track_and_tag(self, scores, cell):
        with pytest.raises(ValueError) as err:
            PredictionSet(ids=["a", "b"], tags=["x", "y"], scores=np.array(scores))
        assert str(err.value) == f"scores must lie in [0, 1], got {cell}"

    @pytest.mark.parametrize("ids, tags, name", [
        ([1, 2], ["x"], "track id 1"),
        (["a", "b"], ["x", 7], "tag 7"),
    ])
    def test_id_or_tag_not_a_str_named(self, ids, tags, name):
        with pytest.raises(ValueError, match=f"^{name} is not a str$"):
            PredictionSet(ids=ids, tags=tags, scores=np.zeros((2, len(tags))))


class TestTuneThresholds:
    @CHECKS
    @given(tables())
    @example(split(0.1, np.nextafter(0.1, 1.0)))     # the midpoint rounds down, onto 0.1
    @example(split(0.3, np.nextafter(0.3, 1.0)))     # the midpoint rounds up, onto the higher
    @example(split(0.0, 5e-324))                     # a subnormal: the midpoint rounds onto 0.0
    @example(split(0.4, 0.6))                        # a midpoint equal to the 0.5 fallback
    def test_matches_quadratic_sweep(self, table):
        ids, scores, labels = table
        got = tune_thresholds(*sets(ids, scores, labels))
        want_t, want_f1 = brute_force_thresholds(scores, labels)
        assert np.array_equal(got.thresholds, want_t)
        assert np.array_equal(got.f1, want_f1)

    @pytest.mark.parametrize("scores, labels", [
        ([0.3, 0.3, 0.3], [0, 1, 0]),                  # all scores equal
        ([0.1, 0.7, 0.4, 0.9], [0, 0, 1, 0]),          # a single positive
        ([0.9, 0.7, 0.5, 0.3, 0.1], [1, 0, 0, 1, 0]),  # F1 2/3 at both 0.2 and 0.8
        ([0.5, 0.5, 0.6, 0.4], [1, 1, 0, 0]),          # a candidate equal to the 0.5 fallback
        ([0.9, 0.6, 0.3, 0.1], [0, 0, 0, 1]),          # the one positive has the lowest score
    ])
    def test_edge_cases_match_quadratic_sweep(self, scores, labels):
        scores = np.array(scores)[:, None]
        labels = np.array(labels)[:, None]
        got = tune_thresholds(*sets([f"t{i}" for i in range(len(scores))], scores, labels))
        want_t, want_f1 = brute_force_thresholds(scores, labels)
        assert np.array_equal(got.thresholds, want_t)
        assert np.array_equal(got.f1, want_f1)

    def test_f1_tie_goes_to_higher_threshold(self):
        scores = np.array([[0.9], [0.7], [0.5], [0.3], [0.1]])
        labels = np.array([[1], [0], [0], [1], [0]])
        got = tune_thresholds(*sets(list("abcde"), scores, labels))
        assert got.thresholds[0] == 0.8
        assert got.f1[0] == 2 / 3

    def test_flags(self):
        scores = np.array([[0.4, 0.1], [0.4, 0.9]])
        labels = np.array([[1, 0], [0, 0]])
        got = tune_thresholds(*sets(["a", "b"], scores, labels, ["same", "none"]))
        assert got.flagged == {"same": "all scores equal", "none": "no positive labels"}
        assert list(got.thresholds) == [0.5, 0.5]

    def test_label_row_order_does_not_matter(self):
        scores = np.array([[0.2], [0.9], [0.6]])
        labels = np.array([[0], [1], [1]])
        preds, lab = sets(["a", "b", "c"], scores, labels)
        flipped = LabelSet(ids=["c", "b", "a"], tags=lab.tags, labels=labels[::-1])
        assert tune_thresholds(preds, flipped).thresholds[0] == tune_thresholds(preds, lab).thresholds[0]

    def test_rejects_tag_mismatch(self):
        preds, _ = sets(["a"], np.array([[0.1]]), np.array([[1]]))
        other = LabelSet(ids=["a"], tags=["other"], labels=np.array([[1]]))
        with pytest.raises(ValueError, match="tag mismatch"):
            tune_thresholds(preds, other)

    def test_non_finite_score_in_a_tag_without_positives_is_refused(self):
        preds, lab = sets(["a", "b"], np.array([[0.9, 0.1], [0.2, 0.8]]),
                          np.array([[1, 0], [0, 0]]), ["x", "y"])
        preds.scores[1, 1] = -np.inf   # written after PredictionSet checked it
        with pytest.raises(ValueError) as err:
            tune_thresholds(preds, lab)
        assert str(err.value) == "non-finite score -inf for track 'b', tag 'y'"


class TestEnsemble:
    @CHECKS
    @given(tables(), st.randoms(use_true_random=False))
    def test_member_row_order_does_not_matter(self, table, rnd):
        ids, scores, _ = table
        tags = [f"g{j}" for j in range(scores.shape[1])]
        other = scores[::-1].copy()
        perm = list(range(len(ids)))
        rnd.shuffle(perm)
        a = ensemble_average([PredictionSet(ids=ids, tags=tags, scores=scores),
                              PredictionSet(ids=ids, tags=tags, scores=other)])
        b = ensemble_average([PredictionSet(ids=ids, tags=tags, scores=scores),
                              PredictionSet(ids=[ids[i] for i in perm], tags=tags, scores=other[perm])])
        assert a.ids == ids and b.ids == ids
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.scores, (scores + other) / 2)

    def test_keeps_each_members_provenance_in_member_order(self):
        members = [PredictionSet(ids=["a"], tags=["x"], scores=np.array([[0.5]]),
                                 provenance=prov) for prov in (["m1"], ["m2", "m3"], [], ["m4"])]
        assert ensemble_average(members).provenance == ["m1", "m2", "m3", "m4"]

    def test_rejects_id_mismatch(self):
        a = PredictionSet(ids=["a", "b"], tags=["x"], scores=np.array([[0.1], [0.2]]))
        b = PredictionSet(ids=["a", "c"], tags=["x"], scores=np.array([[0.1], [0.2]]))
        with pytest.raises(ValueError, match="track id mismatch"):
            ensemble_average([a, b])


class TestFiles:
    @CHECKS
    @given(tables())
    @example(([], np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int8)))  # what an empty ensemble writes
    def test_tsv_round_trip(self, tmp_path_factory, table):
        ids, scores, _ = table
        tags = [f"g{j}" for j in range(scores.shape[1])]
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, PredictionSet(ids=ids, tags=tags, scores=scores))
        back = load_predictions(path)
        assert back.ids == ids and back.tags == tags
        assert np.max(np.abs(back.scores - scores), initial=0.0) <= 5e-7

    @CHECKS
    @given(tables())
    def test_decisions_are_score_at_least_threshold(self, table):
        ids, scores, labels = table
        preds, lab = sets(ids, scores, labels)
        thresholds = tune_thresholds(preds, lab)
        decided = apply_thresholds(preds, thresholds)
        assert np.array_equal(decided.decisions == 1, scores >= thresholds.thresholds[None, :])

    def test_apply_rejects_tag_mismatch(self):
        preds = PredictionSet(ids=["a"], tags=["x"], scores=np.array([[0.1]]))
        with pytest.raises(ValueError, match="tags"):
            apply_thresholds(preds, ThresholdSet(tags=["y"], thresholds=np.array([0.5]),
                                                 f1=np.array([0.0])))

    def test_unparsable_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("track_id\tx\ty\na\t0.1\t0.2\nb\t0.3\toops\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:3: column 'y'"):
            load_predictions(path)

    def test_repeated_tag_names_file_and_tag(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("track_id\tx\ty\tx\na\t0.1\t0.2\t0.3\n")
        with pytest.raises(ValueError, match=r"dup\.tsv: tag names must be unique; 'x' repeats"):
            load_predictions(path)

    def test_nan_cell_names_file_track_and_tag(self, tmp_path):
        path = tmp_path / "nan.tsv"
        path.write_text("track_id\tx\ty\na\t0.1\tnan\n")
        with pytest.raises(ValueError, match=r"nan\.tsv: non-finite score nan for track 'a', tag 'y'"):
            load_predictions(path)

    @pytest.mark.parametrize("cell", NOT_NUMBERS)
    def test_cell_the_bulk_parse_rejects_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "cell.tsv"
        for tags in (["x"], ["x", "y"]):
            header = "\t".join(["track_id"] + tags)
            row = "\t".join(["a"] + ["0.5"] * (len(tags) - 1) + [cell])
            path.write_bytes(f"{header}\n{row}\n".encode("utf-8"))
            want = f"{path}:2: column {tags[-1]!r}: not a number: {cell!r}"
            with pytest.raises(ValueError, match=re.escape(want)):
                load_predictions(path)

    def test_carriage_return_inside_a_row_names_the_line(self, tmp_path):
        # each cell parses alone, but the bulk parse reads a "\r" before a tab as a line end
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"track_id\tx\ty\na\t0.1\t0.2\nb\t0.1\r\t0.2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: not a row of numbers")):
            load_predictions(path)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("track_id\tx\ncaf\u00e9\t0.5\n".encode("latin-1"))
        with pytest.raises(ValueError, match=r"latin1\.tsv: not UTF-8"):
            load_predictions(path)

    @CHECKS
    @given(named_tables())
    @example((["a" + c for c in SPLITLINES_ONLY] + SPLITLINES_ONLY + [""], SPLITLINES_ONLY[:3],
              np.full((9, 3), 0.5)))
    @example(([""], [], np.zeros((1, 0))))    # one empty id, no tags: a blank last line
    def test_text_ids_and_tags_round_trip(self, tmp_path_factory, table):
        ids, tags, scores = table
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, PredictionSet(ids=ids, tags=tags, scores=scores))
        back = load_predictions(path)
        assert back.ids == ids and back.tags == tags
        assert np.max(np.abs(back.scores - scores), initial=0.0) <= 5e-7

    @pytest.mark.parametrize("ids, tags, kind, name", [
        (["ok", "a\tb"], ["x"], "track id", "a\tb"),
        (["ok", "a\nb"], ["x"], "track id", "a\nb"),
        (["ok", "b"], ["x\t"], "tag", "x\t"),
        (["ok", "b"], ["\n"], "tag", "\n"),
    ])
    def test_tab_or_newline_refused_before_writing(self, tmp_path, ids, tags, kind, name):
        path = tmp_path / "p.tsv"
        preds = PredictionSet(ids=ids, tags=tags, scores=np.zeros((2, 1)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {kind} {name!r}")):
            save_predictions(path, preds)
        assert not path.exists()

    @CHECKS
    @given(named_tables(), st.booleans())
    @example((["a", "b"], ["x", "y"], np.array([[0.0, 1.0], [5e-7, 0.9999995]])), False)
    @example(([], ["x", "y"], np.zeros((0, 2))), False)   # the 0-track table
    @example(([], ["x", "y"], np.zeros((0, 2))), True)
    @example((["a", "b"], ["x", "y"], np.array([[0.0, 1.0], [-0.0, 5e-324]])), False)
    @example((["a"], ["x", "y"], np.array([[0.0078125, 0.9921875]])), False)   # exact ties
    @example(near_half_way([2, 3, 12, 13, 499_999, 999_999]), False)
    @example(tall_table(), False)
    @example(tall_table(), True)
    def test_writer_bytes_match_per_cell_oracle(self, tmp_path_factory, table, decisions):
        ids, tags, scores = table
        preds = PredictionSet(ids=ids, tags=tags, scores=scores,
                              decisions=(scores >= 0.5).astype(np.int8))
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, preds, decisions=decisions)
        matrix = preds.decisions if decisions else preds.scores
        assert path.read_bytes() == per_cell_tsv(ids, tags, matrix, decisions)

    def test_decisions_other_than_0_or_1_match_per_cell_oracle(self, tmp_path):
        decisions = np.array([[2, -1], [1, 0]], dtype=np.int8)
        preds = PredictionSet(ids=["a", "b"], tags=["x", "y"], scores=np.zeros((2, 2)),
                              decisions=decisions)
        save_predictions(tmp_path / "p.tsv", preds, decisions=True)
        assert (tmp_path / "p.tsv").read_bytes() == per_cell_tsv(["a", "b"], ["x", "y"],
                                                                  decisions, decisions=True)

    def test_scores_outside_the_set_rules_match_per_cell_oracle(self, tmp_path):
        # a PredictionSet checks its scores once; the writer formats whatever it holds then
        preds = PredictionSet(ids=["a", "b", "c"], tags=["x", "y"], scores=np.zeros((3, 2)))
        preds.scores = np.array([[1.5, 0.25], [np.nan, np.inf], [-1e-9, -np.inf]])
        save_predictions(tmp_path / "p.tsv", preds)
        assert (tmp_path / "p.tsv").read_bytes() == per_cell_tsv(preds.ids, preds.tags,
                                                                  preds.scores)

    def test_unencodable_id_is_named_by_its_place_in_the_file(self, tmp_path):
        ids, tags, scores = tall_table()
        ids[700] = "bad\ud800"
        with pytest.raises(UnicodeEncodeError) as whole:
            per_cell_tsv(ids, tags, scores)
        path = tmp_path / "p.tsv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: not writable as UTF-8: {whole.value}")):
            save_predictions(path, PredictionSet(ids=ids, tags=tags, scores=scores))
        assert not path.exists()

    @pytest.mark.parametrize("decisions", [False, True])
    def test_writer_peak_is_at_most_three_times_its_output(self, tmp_path, decisions):
        rng = np.random.default_rng(4000)
        scores = rng.random((4000, 56))
        preds = PredictionSet(ids=[f"trk{i:05d}" for i in range(4000)],
                              tags=[f"tag{j:02d}" for j in range(56)], scores=scores,
                              decisions=(scores >= 0.5).astype(np.int8))
        path = tmp_path / "p.tsv"
        tracemalloc.start()
        try:
            save_predictions(path, preds, decisions=decisions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size

    @settings(CHECKS, max_examples=300)
    @given(tables(max_tracks=6), st.lists(EDITS, min_size=1, max_size=3))
    def test_corrupted_file_loads_or_names_path(self, tmp_path_factory, table, edits):
        ids, scores, _ = table
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, PredictionSet(ids=ids, tags=[f"g{j}" for j in range(scores.shape[1])],
                                             scores=scores))
        data = path.read_bytes()
        for edit in edits:
            data = corrupt(data, edit)
        path.write_bytes(data)
        try:
            load_predictions(path)
        except ValueError as err:   # any other exception type fails the test
            assert str(err).startswith(str(path))


def read_outcome(path):
    """What ``load_predictions`` gives for ``path``: its ids, tags and score
    bits, or its error message."""
    try:
        got = load_predictions(path)
    except ValueError as err:
        return str(err)
    return got.ids, got.tags, got.scores.tobytes()


def spy_fixed_layout(monkeypatch) -> list:
    """Record what each call of ``evaluation._fixed_layout`` returns."""
    fixed_layout = evaluation._fixed_layout
    seen = []

    def record(lines, width):
        seen.append(fixed_layout(lines, width))
        return seen[-1]

    monkeypatch.setattr(evaluation, "_fixed_layout", record)
    return seen


def cell_rule_outcome(path):
    """``read_outcome`` with the bulk path turned off: every line read by the cell rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_fixed_layout", lambda lines, width: None)
        return read_outcome(path)


HEADER = "track_id\tx\ty\n"

# (file text, the reader that takes it, the error after the path or None)
READER_FILES = [
    pytest.param(HEADER + "a\t1e-01\t0.200000\n", "cells", None, id="exponent"),
    pytest.param(HEADER + "a\tnan\t0.200000\n", "cells",
                 ": non-finite score nan for track 'a', tag 'x'", id="nan"),
    pytest.param(HEADER + "a\t1.5\t0.200000\n", "cells",
                 ": scores must lie in [0, 1], got 1.5 for track 'a', tag 'x'", id="1.5"),
    pytest.param(HEADER + "a\t0.1234567\t0.200000\n", "cells", None, id="seven-digits"),
    pytest.param(HEADER + "a\t0.100000\t0.200000\nb\t0.300000\n", "cells",
                 ":3: expected 3 columns, got 2", id="short-line"),
    pytest.param(HEADER + "a\tb\t0.100000\t0.200000\n", "cells",
                 ":2: expected 3 columns, got 4", id="id-with-tab"),
    pytest.param(HEADER + "caf\u00e9\t0.100000\t0.200000\n", "bulk", None, id="non-ascii-id"),
    pytest.param(HEADER + "a\t0.100000\t0.2000\u00e9\n", "cells",
                 ":2: column 'y': not a number: '0.2000\u00e9'", id="non-ascii-cell"),
    pytest.param(HEADER + "a\t0/100000\t0.200000\n", "cells",
                 ":2: column 'x': not a number: '0/100000'", id="slash-for-point"),
    pytest.param(HEADER + "a\t0.100000\t0.2:0000\n", "cells",
                 ":2: column 'y': not a number: '0.2:0000'", id="colon-for-digit"),
    pytest.param(HEADER + "\t0.100000\t0.200000\n", "bulk", None, id="empty-id"),
    pytest.param("track_id\tx\ty\r\na\t0.100000\t0.200000\r\n", "cells", None, id="crlf"),
    pytest.param("track_id\tx\na\t0.100000\nb\t1.000000\n", "bulk", None, id="one-tag"),
    pytest.param(HEADER, "bulk", None, id="header-only"),
    pytest.param(HEADER + "a\t0\t1\nb\t1\t0\n", "cells", None, id="decisions"),
    pytest.param(HEADER + "a\t0.100000\t1.000000\nb\t0.000000\t0.999999\n", "bulk", None,
                 id="writer-layout"),
]


class TestReader:
    @pytest.mark.parametrize("text, reader, error", READER_FILES)
    def test_bulk_path_gives_the_cell_rules_result(self, tmp_path, monkeypatch, text, reader,
                                                   error):
        path = tmp_path / "p.tsv"
        path.write_bytes(text.encode("utf-8"))
        bulk = spy_fixed_layout(monkeypatch)
        got = read_outcome(path)
        assert ["cells" if table is None else "bulk" for table in bulk] == [reader]
        assert got == cell_rule_outcome(path)
        if error is not None:
            assert got == f"{path}{error}"
        else:
            assert not isinstance(got, str)

    def test_writer_cells_load_bit_equal_to_loadtxt(self, tmp_path, monkeypatch):
        # two blocks of 1 000 x 20 cells: a seeded sample of k / 1e6, the ends
        # of [0, 1], the exact tie 1/128 and a value next to the rounding of 1
        rng = np.random.default_rng(26)
        values = np.append(rng.choice(1_000_001, 19_996, replace=False) / 1e6,
                           [0.0, 1.0, 1 / 128, 0.9999995])
        scores = rng.permutation(values).reshape(1000, 20)
        path = tmp_path / "p.tsv"
        save_predictions(path, PredictionSet(ids=[f"t{i}" for i in range(1000)],
                                             tags=[f"g{j}" for j in range(20)], scores=scores))
        bulk = spy_fixed_layout(monkeypatch)
        got = load_predictions(path)
        assert bulk[0] is not None
        rows = [line.partition("\t")[2] for line in path.read_text().splitlines()[1:]]
        want = np.loadtxt(rows, delimiter="\t", dtype=np.float64)
        assert got.scores.tobytes() == want.tobytes()

    @CHECKS
    @given(named_tables(max_tracks=6), st.lists(EDITS, max_size=3))
    @example((["a", "b"], ["x"], np.array([[0.5], [0.25]])), [("cell", 2, 1, "1e-1")])
    def test_any_file_reads_as_the_cell_rule_reads_it(self, tmp_path_factory, table, edits):
        ids, tags, scores = table
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, PredictionSet(ids=ids, tags=tags, scores=scores))
        data = path.read_bytes()
        for edit in edits:
            data = corrupt(data, edit)
        path.write_bytes(data)
        assert read_outcome(path) == cell_rule_outcome(path)

    def test_reader_peak_is_at_most_three_times_its_input(self, tmp_path):
        rng = np.random.default_rng(4000)
        path = tmp_path / "p.tsv"
        save_predictions(path, PredictionSet(ids=[f"trk{i:05d}" for i in range(4000)],
                                             tags=[f"tag{j:02d}" for j in range(56)],
                                             scores=rng.random((4000, 56))))
        tracemalloc.start()
        try:
            load_predictions(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size
