"""The three benchmark workloads: train, tag and score.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), performs one operation in ``run`` (timed), and verifies that
operation's outputs in ``check`` (untimed), returning how many of the
operation's ``attempts`` failed.  ``units`` is the work one operation does,
in the unit of the workload's throughput.

Every call goes through the ``rftag`` module attributes (``training.train``,
``evaluation.snapshot_ensemble``, ...), so the tracer's wrappers see it.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rftag import dsp, evaluation, models, training

N_TAGS = 56   # MediaEval 2019 mood/theme tag count
N_BINS = 256
TAGS = [f"tag{j:02d}" for j in range(N_TAGS)]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; FULL is the benchmark, TINY the self-test."""

    channel_plan: tuple = (32, 64, 128, 256)
    blocks_per_stage: int = 3
    # train
    train_clips: int = 16
    val_clips: int = 8
    clip_frames: tuple = (80, 160)       # clip lengths, all longer than the crop
    crop_frames: int = 64
    batch_size: int = 8
    # tag
    long_tracks: int = 1
    long_seconds: float = 30.0
    short_clips: int = 2
    short_seconds: tuple = (2.5, 4.5)    # clip lengths, all under one window
    window_frames: int = 512
    calib_frames: int = 64               # crop that sets the members' BN statistics
    members: int = 5
    # score
    score_tracks: int = 4000
    oracle_tags: int = 8


FULL = Sizes()
TINY = Sizes(channel_plan=(4, 4, 8, 8), blocks_per_stage=1,
             train_clips=8, val_clips=4, clip_frames=(40, 64), crop_frames=32, batch_size=4,
             long_seconds=3.0, short_clips=1, short_seconds=(0.5,), window_frames=64, calib_frames=16,
             score_tracks=300, oracle_tags=4)


def model_config(sizes: Sizes, shake: bool, seed: int) -> models.ModelConfig:
    template = models.TemplateConfig(channel_plan=sizes.channel_plan,
                                     blocks_per_stage=sizes.blocks_per_stage)
    return models.ModelConfig(template=template, frequency_aware=True, shake_shake=shake,
                              n_tags=N_TAGS, input_bins=N_BINS, seed=seed)


def _tagged_clips(rng, prefix: str, count: int, frame_range: tuple) -> list:
    """Noise spectrograms in dB with a raised band per positive tag."""
    clips = []
    for i in range(count):
        frames = int(rng.integers(frame_range[0], frame_range[1] + 1))
        labels = np.zeros(N_TAGS, dtype=np.float32)
        labels[rng.choice(N_TAGS, size=3, replace=False)] = 1.0
        values = rng.normal(-50.0, 10.0, (N_BINS, frames))
        for j in np.flatnonzero(labels):
            band = j * N_BINS // N_TAGS
            values[band:band + 4] += 15.0
        clips.append(training.TaggedClip(f"{prefix}{i:03d}", values.astype(np.float32), labels))
    return clips


def _audio(rng, seconds: float) -> np.ndarray:
    """A few steady tones in noise, at the front end's 44.1 kHz."""
    n = int(seconds * dsp.TARGET_SAMPLE_RATE)
    t = np.arange(n) / dsp.TARGET_SAMPLE_RATE
    out = 0.05 * rng.standard_normal(n)
    for freq in rng.uniform(80.0, 8000.0, size=4):
        out += 0.1 * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return out


class Train:
    """One ``training.train`` call: two epochs of the paper's full recipe.

    Frequency-aware + shake-shake CP-ResNet, batch 8, random crops, mixup,
    Adam; the second epoch absorbs an SWA snapshot and refreshes its
    batch-norm statistics.  Validation and checkpoint writes are inside the
    timed call.  At the seed commit every step's tape stays alive until a
    generation-2 collection, so the process grows by one tape per step; a
    run therefore makes exactly one call.
    """

    name = "train"
    repeatable = False

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.config = training.TrainConfig(
            total_epochs=2, warmup_epochs=1, constant_epochs=1, decay_epochs=0, tail_epochs=0,
            batch_size=sizes.batch_size, crop_frames=sizes.crop_frames, swa_every=1, seed=seed)
        self.units = self.config.total_epochs * sizes.train_clips      # samples
        self.attempts = self.config.total_epochs * math.ceil(sizes.train_clips / sizes.batch_size)

    def setup(self, work_dir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.train_clips = _tagged_clips(rng, "tr", self.sizes.train_clips, self.sizes.clip_frames)
        self.val_clips = _tagged_clips(rng, "va", self.sizes.val_clips, self.sizes.clip_frames)
        self.model = models.build_model(model_config(self.sizes, shake=True, seed=self.seed))
        self.run_dir = work_dir / "run"

    def built_models(self) -> list:
        return [self.model]

    def run(self):
        return training.train(self.model, self.train_clips, self.val_clips, TAGS,
                              self.config, self.run_dir)

    def check(self, artifacts) -> int:
        """Every step fails if any epoch loss is non-finite, metrics.csv lacks
        a row per epoch, or the SWA checkpoint does not reload."""
        rows = artifacts.metrics_path.read_text().splitlines()[1:]
        ok = len(rows) == self.config.total_epochs
        ok = ok and all(math.isfinite(float(r.split(",")[2])) for r in rows)
        ok = ok and len(artifacts.swa_paths) == 1
        if ok:
            swa_model, _ = models.load_model(artifacts.swa_paths[-1])
            ok = (swa_model.params.keys() == self.model.params.keys()
                  and all(np.isfinite(p.data).all() for p in swa_model.params.values()))
        return 0 if ok else self.attempts


class Tag:
    """An offline tagging job: WAV folder -> log-mel -> 5-member ensemble -> TSV.

    The folder mixes 30 s tracks (about 10 half-overlapping 512-frame
    windows each) with clips shorter than one window, which are tiled.  The
    members are frequency-aware CP-ResNets without shake-shake, written as
    best + 4 SWA checkpoints in set-up.
    """

    name = "tag"
    repeatable = True

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.attempts = sizes.long_tracks + sizes.short_clips          # tracks

    def setup(self, work_dir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        sizes = self.sizes
        wav_dir = work_dir / "wav"
        wav_dir.mkdir(parents=True)
        lengths = [sizes.long_seconds] * sizes.long_tracks
        lengths += [sizes.short_seconds[i % len(sizes.short_seconds)]
                    for i in range(sizes.short_clips)]
        self.units = 0.0                                                # seconds of audio
        for i, seconds in enumerate(lengths):
            samples = _audio(rng, seconds)
            dsp.write_wav(wav_dir / f"track{i:02d}.wav", samples)
            self.units += len(samples) / dsp.TARGET_SAMPLE_RATE
        self.paths = sorted(wav_dir.glob("*.wav"))

        # Untrained members with batch-norm statistics from one crop of the
        # first track, so that their scores spread over (0, 1).
        first = dsp.logmel(dsp.load_wav(self.paths[0]))
        calib = [training.TaggedClip("calib", first.values, np.zeros(N_TAGS))]
        norm = training.normalization_stats(calib)
        run_dir = work_dir / "checkpoints"
        run_dir.mkdir()
        extra = {"norm_mean": repr(norm[0]), "norm_std": repr(norm[1]),
                 "crop_frames": str(sizes.window_frames), "tags": ",".join(TAGS)}
        ckpts = [run_dir / "best.ckpt"]
        ckpts += [run_dir / f"swa_epoch{e}.ckpt" for e in range(sizes.members - 1)]
        for k, path in enumerate(ckpts):
            member = models.build_model(model_config(sizes, shake=False, seed=self.seed * 100 + k))
            training.refresh_bn_statistics(member, calib, sizes.calib_frames, norm,
                                           batch_size=1, seed=self.seed + k)
            models.save_checkpoint(path, member, extra=dict(extra, epoch=str(k)))
        self.artifacts = training.RunArtifacts(
            run_dir=run_dir, best_path=ckpts[0], best_val_pr_auc=0.0, swa_paths=ckpts[1:],
            metrics_path=run_dir / "metrics.csv", metrics=[])
        self.out_path = work_dir / "scores.tsv"

    def built_models(self) -> list:
        return []

    def run(self):
        clips = []
        for path in self.paths:
            spec = dsp.logmel(dsp.load_wav(path))
            clips.append(training.TaggedClip(path.stem, spec.values, np.zeros(N_TAGS)))
        preds = evaluation.snapshot_ensemble(self.artifacts, clips)
        evaluation.save_predictions(self.out_path, preds)
        return preds

    def check(self, preds) -> int:
        """Per track: one finite row in [0, 1] that round-trips through the
        TSV.  The whole job fails if tags or the 5-member provenance are off."""
        ids = [p.stem for p in self.paths]
        loaded = evaluation.load_predictions(self.out_path)
        if (loaded.tags != TAGS or loaded.ids != ids or preds.ids != ids
                or len(preds.provenance) != self.sizes.members):
            return self.attempts
        failed = 0
        for i in range(len(ids)):
            row = loaded.scores[i]
            ok = (np.isfinite(row).all() and (row >= 0).all() and (row <= 1).all()
                  and np.abs(row - preds.scores[i]).max() <= 5e-7)
            failed += not ok
        return failed


class Score:
    """Scoring a finished run: 5 member TSVs -> ensemble -> PR-AUC ->
    F1 thresholds -> decisions TSV, at 4 000 tracks x 56 tags."""

    name = "score"
    repeatable = True

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.units = sizes.score_tracks                                 # tracks
        self.attempts = N_TAGS                                          # scored tags

    def setup(self, work_dir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.sizes.score_tracks
        ids = [f"trk{i:05d}" for i in range(n)]
        labels = rng.random((n, N_TAGS)) < rng.uniform(0.02, 0.15, size=N_TAGS)
        labels[rng.integers(0, n, size=N_TAGS), np.arange(N_TAGS)] = True
        self.labels = evaluation.LabelSet(ids=ids, tags=list(TAGS), labels=labels.astype(np.int8))
        self.member_paths = []
        for m in range(self.sizes.members):
            strength = rng.uniform(0.5, 2.0, size=N_TAGS)
            logits = (2.0 * labels - 1.0) * strength + rng.normal(0.0, 1.5, size=(n, N_TAGS))
            order = rng.permutation(n)
            member = evaluation.PredictionSet(ids=[ids[i] for i in order], tags=list(TAGS),
                                              scores=1.0 / (1.0 + np.exp(-logits[order])))
            path = work_dir / f"member{m}.tsv"
            evaluation.save_predictions(path, member)
            self.member_paths.append(path)
        self.oracle_tags = rng.choice(N_TAGS, size=self.sizes.oracle_tags, replace=False)
        self.out_path = work_dir / "decisions.tsv"

    def built_models(self) -> list:
        return []

    def run(self):
        members = [evaluation.load_predictions(p) for p in self.member_paths]
        ensemble = evaluation.ensemble_average(members)
        report = evaluation.macro_pr_auc(ensemble, self.labels)
        thresholds = evaluation.tune_thresholds(ensemble, self.labels)
        decided = evaluation.apply_thresholds(ensemble, thresholds)
        evaluation.save_predictions(self.out_path, decided, decisions=True)
        return ensemble, report, thresholds

    def check(self, result) -> int:
        """Per tag: AP matches the brute-force oracle (on a seeded sample of
        tags), the threshold lies in [0, 1], and the written decisions equal
        score >= threshold."""
        ensemble, report, thresholds = result
        oracle_ap = _oracles().brute_force_average_precision
        row = {tid: i for i, tid in enumerate(self.labels.ids)}
        aligned = self.labels.labels[[row[t] for t in ensemble.ids]]
        written = evaluation.load_predictions(self.out_path)
        if written.ids != ensemble.ids or written.tags != ensemble.tags:
            return self.attempts
        expected = ensemble.scores >= thresholds.thresholds[None, :]
        bad = set()
        for j in self.oracle_tags:
            want = oracle_ap(ensemble.scores[:, j], aligned[:, j], ensemble.ids)
            if report.ap[j] is None or abs(report.ap[j] - want) > 1e-9:
                bad.add(int(j))
        for j in range(N_TAGS):
            t = thresholds.thresholds[j]
            if not (0.0 <= t <= 1.0) or not np.array_equal(written.scores[:, j] == 1, expected[:, j]):
                bad.add(j)
        return len(bad)


WORKLOADS = {w.name: w for w in (Train, Tag, Score)}


def _oracles():
    """tests/oracles.py of the checkout, the suite's independent reference."""
    path = Path(training.__file__).resolve().parents[2] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("rftag_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
