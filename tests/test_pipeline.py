"""The pipeline's bytes, pinned: a seeded TINY run from a WAV to the decisions TSV.

One synthetic track goes through ``write_wav``, ``load_wav`` and ``logmel``
and is cut into clips.  A frequency-aware shake-shake CP-ResNet at the
benchmark's TINY sizes trains on them for six epochs, leaving five SWA
snapshots, so the ensemble's cap (the best model plus the four latest
snapshots) is exercised.  ``snapshot_ensemble`` scores the validation clips,
``tune_thresholds`` and ``apply_thresholds`` decide them, and
``save_predictions`` writes the scores and the decisions.  Every file the
run writes is compared with ``DIGESTS`` by SHA-256.

The digests assume numpy 2.4.6 with scipy-openblas 0.3.31 (``DYNAMIC_ARCH``,
Haswell kernels) on x86-64.  Every float32 GEMM inner dimension in the run is
at most 512 or a multiple of 128: the convs' are their column depths (at most
45) and output channels (4 and 8), and their weight gradients' the output
cells per sample (2 048, 512 and 128); the head's are 8 and 4.  The one other
GEMM, ``logmel``'s float64 mel product, has depth 1 025.  On that build every
digest is the same at 1 and 2 OpenBLAS threads.  An intended bit change edits
``DIGESTS`` and says which file changed and why.
"""

import hashlib

import numpy as np

from rftag import dsp, evaluation, models, training

N_TAGS = 8
TAGS = [f"tag{j}" for j in range(N_TAGS)]
# frames per training clip, then per validation clip: one window each at the crop
CLIP_FRAMES = (40, 32)
TRAIN_CLIPS, VAL_CLIPS = 4, 4

DIGESTS = {
    "decisions.tsv": "d3446d3c8138592d66e3b4a3d9921debea9cdfcb43cbe1f116306365e37fc3cc",
    "run/best.ckpt": "042ecdbbc76c5871f2a6fabb42c51547eaafe344d073524a5544d1bb45890114",
    "run/metrics.csv": "533cf844a8dfc026d3d229948abacc824731126943eef20c967be9768f99e351",
    "run/swa_epoch1.ckpt": "1382dfbfeca4ed377512972aefdf24e4e523ce94fc473022388bc4541d6f697f",
    "run/swa_epoch2.ckpt": "f1191dafd7e20bf9427bd0e2358381a1b1317505606dbfefece7fb5a09284ddc",
    "run/swa_epoch3.ckpt": "efb21a3c133bd143741591b8ebd67256d90a75396c095495f48b442ca2d58d17",
    "run/swa_epoch4.ckpt": "f19554a359073910382d33e0a1f05919aa6068286dc48e7a66afca3f25e844ae",
    "run/swa_epoch5.ckpt": "a04eb4f252a65f8abc0475ddfd8bb702c6a8acd28261b72cd4069eca89e1e6c0",
    "scores.tsv": "d6df77df087b0fa62299ad510f3aebca38e7a43ee5195c52df2396b1ae365c6e",
    "track.wav": "13ecc7a50ef3bb8a788f99470573e5920d750f964055d4fac1d7cd5eb1825517",
}


def tiny_run(work) -> None:
    rng = np.random.default_rng(15)
    widths = [CLIP_FRAMES[0]] * TRAIN_CLIPS + [CLIP_FRAMES[1]] * VAL_CLIPS
    starts = np.cumsum([0] + widths)
    frames = starts[-1]
    n = dsp.DEFAULT_N_FFT + (frames - 1) * dsp.DEFAULT_HOP
    t = np.arange(n) / dsp.TARGET_SAMPLE_RATE
    samples = 0.05 * rng.standard_normal(n)
    for freq in rng.uniform(80.0, 8000.0, size=4):
        samples += 0.1 * np.sin(2.0 * np.pi * freq * t)
    dsp.write_wav(work / "track.wav", samples)
    spec = dsp.logmel(dsp.load_wav(work / "track.wav"))
    labels = np.zeros((TRAIN_CLIPS + VAL_CLIPS, N_TAGS), dtype=np.float32)
    for row in labels:
        row[rng.choice(N_TAGS, size=2, replace=False)] = 1.0
    clips = [training.TaggedClip(f"c{i:02d}", spec.values[:, lo:hi], labels[i])
             for i, (lo, hi) in enumerate(zip(starts, starts[1:]))]
    train, val = clips[:TRAIN_CLIPS], clips[TRAIN_CLIPS:]

    template = models.TemplateConfig(channel_plan=(4, 4, 8, 8), blocks_per_stage=1)
    model = models.build_model(models.ModelConfig(
        template=template, frequency_aware=True, shake_shake=True, n_tags=N_TAGS,
        input_bins=dsp.DEFAULT_N_MELS, seed=15))
    config = training.TrainConfig(total_epochs=6, warmup_epochs=1, constant_epochs=5,
                                  decay_epochs=0, tail_epochs=0, batch_size=4, crop_frames=32,
                                  swa_every=1, seed=15)
    artifacts = training.train(model, train, val, TAGS, config, work / "run")
    assert len(artifacts.swa_paths) == 5

    preds = evaluation.snapshot_ensemble(artifacts, val)
    truth = evaluation.LabelSet(ids=[c.track_id for c in val], tags=TAGS,
                                labels=np.stack([c.labels for c in val]).astype(np.int8))
    decided = evaluation.apply_thresholds(preds, evaluation.tune_thresholds(preds, truth))
    evaluation.save_predictions(work / "scores.tsv", decided)
    evaluation.save_predictions(work / "decisions.tsv", decided, decisions=True)


def test_pipeline_files_match_their_digests(tmp_path):
    tiny_run(tmp_path)
    got = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert got == DIGESTS
