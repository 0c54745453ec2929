import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_force_average_precision, brute_force_thresholds, per_cell_tsv
from rftag.evaluation import (
    LabelSet,
    PredictionSet,
    ThresholdSet,
    apply_thresholds,
    average_precision,
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
def tables(draw, max_tracks=20, max_tags=3):
    """(ids, scores, labels): tie-heavy scores in [0, 1] and 0/1 labels."""
    n = draw(st.integers(1, max_tracks))
    n_tags = draw(st.integers(1, max_tags))
    levels = draw(st.sampled_from([LEVELS[:1], LEVELS[:2], LEVELS[:4], LEVELS]))
    cell = st.one_of(st.sampled_from(levels), st.floats(0.0, 1.0))
    scores = draw(arrays(np.float64, (n, n_tags), elements=cell))
    labels = draw(arrays(np.int8, (n, n_tags), elements=st.integers(0, 1)))
    order = draw(st.permutations(range(n)))
    ids = [f"t{i:02d}" for i in order]
    return ids, scores, labels


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


class TestAveragePrecision:
    @CHECKS
    @given(tables(max_tags=1), st.randoms(use_true_random=False))
    def test_matches_oracle_under_permuted_ids(self, table, rnd):
        ids, scores, labels = table
        if not labels[:, 0].any():
            labels[rnd.randrange(len(ids)), 0] = 1
        want = brute_force_average_precision(scores[:, 0], labels[:, 0], ids)
        assert average_precision(scores[:, 0], labels[:, 0], ids) == want
        perm = list(range(len(ids)))
        rnd.shuffle(perm)
        assert average_precision(scores[perm, 0], labels[perm, 0], [ids[i] for i in perm]) == want

    def test_default_ids_break_ties_as_strings(self):
        # with all scores tied, "10" ranks before "2"
        scores = np.full(11, 0.5)
        labels = np.zeros(11, dtype=int)
        labels[10] = 1
        assert average_precision(scores, labels) == brute_force_average_precision(scores, labels)
        assert average_precision(scores, labels) == 1 / 3

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            average_precision([np.nan, 0.2, 0.9], [1, 0, 1])

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            average_precision([0.1, 0.2], [0, 0])


class TestMacroPrAuc:
    @CHECKS
    @given(tables(), st.randoms(use_true_random=False))
    def test_label_row_order_does_not_matter(self, table, rnd):
        ids, scores, labels = table
        labels[rnd.randrange(len(ids)), 0] = 1
        preds, lab = sets(ids, scores, labels)
        perm = list(range(len(ids)))
        rnd.shuffle(perm)
        shuffled = LabelSet(ids=[ids[i] for i in perm], tags=lab.tags, labels=labels[perm])
        a, b = macro_pr_auc(preds, lab), macro_pr_auc(preds, shuffled)
        assert a.ap == b.ap and a.macro_pr_auc == b.macro_pr_auc
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

    def test_report_csv(self):
        # x: the positive ranks first (AP 1); y: no positive; z: the positive ranks second (AP 1/2)
        scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.8, 0.6], [0.4, 0.5, 0.7]])
        labels = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        report = macro_pr_auc(*sets(["a", "b", "c"], scores, labels, ["x", "y", "z"]))
        assert report.as_csv() == ("tag,ap,positives\n"
                                   "x,1.000000,1\n"
                                   "y,,0\n"
                                   "z,0.500000,1\n"
                                   "macro_pr_auc=0.750000\n")

    @pytest.mark.parametrize("bad", ["x,y", "x\ny"])
    def test_report_csv_refuses_a_tag_it_cannot_hold(self, bad):
        report = macro_pr_auc(*sets(["a", "b"], np.array([[0.9, 0.1], [0.2, 0.8]]),
                                    np.array([[1, 0], [0, 1]]), [bad, "z"]))
        with pytest.raises(ValueError, match=re.escape(f"tag {bad!r} holds a comma or a newline")):
            report.as_csv()

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


class TestPredictionSet:
    def test_nan_names_track_and_tag(self):
        scores = np.array([[0.1, 0.2], [0.3, np.nan]])
        with pytest.raises(ValueError, match="track 'b', tag 'y'"):
            PredictionSet(ids=["a", "b"], tags=["x", "y"], scores=scores)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PredictionSet(ids=["a"], tags=["x"], scores=np.array([[np.inf]]))


class TestTuneThresholds:
    @CHECKS
    @given(tables())
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
    def test_writer_bytes_match_per_cell_oracle(self, tmp_path_factory, table, decisions):
        ids, tags, scores = table
        preds = PredictionSet(ids=ids, tags=tags, scores=scores,
                              decisions=(scores >= 0.5).astype(np.int8))
        path = tmp_path_factory.mktemp("tsv") / "p.tsv"
        save_predictions(path, preds, decisions=decisions)
        matrix = preds.decisions if decisions else preds.scores
        assert path.read_bytes() == per_cell_tsv(ids, tags, matrix, decisions)

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
