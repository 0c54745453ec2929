"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (loops, enumeration, finite
differences).  The numeric oracles share no code with the implementations
they check.  The receptive-field probes (``connectivity_rf``,
``empirical_rf``, ``measure_model_rf``) realize an arch with the engine,
pooling with ``avg_pool2d`` (a loop-built average pool the engine does not
offer), and size their input from ``rf.compute_rf``, so only their verdict,
the span of nonzero input gradient, is independent of the calculus they
check.
``reference_forward``, ``oneshot_logmel`` and ``stable_ranking`` are
references of a third kind: they compose the package's own ops (or numpy's
stable sort) the plain, allocating way, so that a leaner composition of the
same ops can be pinned to them bit for bit.
``kept_arrays`` lists what a tape's records keep alive, by walking their
vjps' closures, for the retained-bytes bounds of the tape tests.
"""

import copy
import math
import types
from dataclasses import replace
from functools import partial

import numpy as np

from rftag import autodiff as ad
from rftag import dsp
from rftag.models import build_model, fa_channel, shake_combine
from rftag.rf import compute_rf


def naive_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0)):
    """Direct-summation cross-correlation, quadruple loop."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, co, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci_ in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, ci_, i * sh + u, j * sw + v] * w[oi, ci_, u, v]
                    out[ni, oi, i, j] = acc + (b[oi] if b is not None else 0.0)
    return out


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def finite_difference_grads(f, tensors, step=1e-5):
    """Central finite differences of scalar f() w.r.t. each tensor's data.

    ``f`` must recompute the forward pass from the tensors' current data on
    every call.  Returns one gradient array per tensor.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over all elements."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def first_nonfinite_cell(values):
    """The first (bin, frame) in row-major order holding NaN or inf, or None."""
    for b in range(values.shape[0]):
        for f in range(values.shape[1]):
            if not math.isfinite(values[b, f]):
                return b, f
    return None


def brute_force_average_precision(scores, labels, ids=None):
    """AP from its definition, one positive at a time, without sorting.

    A track's rank is one plus the number of tracks ranked above it: a
    higher score, or an equal score and a smaller id.  Both counts are taken
    by direct comparison with every track.  The precisions at the positives
    are summed in rank order and divided by the number of positives.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if ids is None:
        ids = [str(i) for i in range(len(scores))]
    assert len(set(ids)) == len(ids)
    ids = np.asarray(ids)
    precision_at_rank = {}
    for i in np.flatnonzero(labels):
        higher = scores > scores[i]
        tied = np.flatnonzero(scores == scores[i])
        tied_above = tied[ids[tied] < ids[i]]
        rank = int(higher.sum()) + len(tied_above) + 1
        hits = int((higher & labels).sum()) + int(labels[tied_above].sum()) + 1
        precision_at_rank[rank] = hits / rank
    assert precision_at_rank
    total = 0.0
    for rank in sorted(precision_at_rank):
        total += precision_at_rank[rank]
    return total / len(precision_at_rank)


def stable_ranking(scores, labels, id_order):
    """One tag's (ranked scores, positives) as ``evaluation._ranking`` gives
    them, by one stable sort: descending score, ties by ascending id.

    ``id_order`` is ``evaluation._id_order`` of the tracks' ids; a stable
    sort by descending score of the tracks taken in that order keeps tied
    tracks in id order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = id_order[np.argsort(-scores[id_order], kind="stable")]
    positives = np.concatenate(([0], np.cumsum(np.asarray(labels, dtype=bool)[order])))
    return scores[order], positives


def per_cell_tsv(ids, tags, matrix, decisions=False):
    """A prediction TSV's bytes, formatted one cell at a time.

    ``f"{v:.6f}"`` per score or ``str(int(v))`` per decision, tab-separated
    behind the track id, under a ``track_id`` header, one ``"\\n"``-ended
    line per track, encoded as UTF-8.
    """
    lines = ["\t".join(["track_id"] + list(tags))]
    for tid, row in zip(ids, matrix):
        cells = [str(int(v)) for v in row] if decisions else [f"{v:.6f}" for v in row]
        lines.append("\t".join([tid] + cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def brute_force_thresholds(scores, labels):
    """Per-tag F1 threshold by trying every candidate on every track.

    Candidates are the midpoints between consecutive distinct scores plus
    0.5, tried in ascending order; a track is positive when its score is
    >= the candidate, and a later candidate with an equal F1 wins.  Returns
    (thresholds, f1) arrays; a tag without positives keeps 0.5 and F1 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n, n_tags = scores.shape
    thresholds = np.full(n_tags, 0.5)
    f1s = np.zeros(n_tags)
    for j in range(n_tags):
        column = [float(v) for v in scores[:, j]]
        if not labels[:, j].any():
            continue
        distinct = sorted(set(column))
        candidates = sorted([(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])] + [0.5])
        best_t, best_f1 = 0.5, -1.0
        for t in candidates:
            tp = fp = fn = 0
            for v, positive in zip(column, labels[:, j]):
                if v >= t and positive:
                    tp += 1
                elif v >= t:
                    fp += 1
                elif positive:
                    fn += 1
            f1 = 2 * tp / (2 * tp + fp + fn)
            if f1 >= best_f1:
                best_t, best_f1 = t, f1
        thresholds[j] = best_t
        f1s[j] = best_f1
    return thresholds, f1s


def chain_receptive_field(layers):
    """RF/jump recurrence for a plain chain of (kernel, stride) pairs."""
    r, j = 1, 1
    for k, s in layers:
        r = r + (k - 1) * j
        j = j * s
    return r, j


def connectivity_rf(arch, forward):
    """(freq, time) receptive field of ``forward``, measured as gradient connectivity.

    ``forward`` realizes ``arch``: it maps an all-ones input [1, 1, F, T] to an
    output [1, C, F', T'].  The input positions with nonzero gradient from
    the central output position (all channels) give the extent per axis.
    The input is the analytic receptive field plus a margin of two output
    strides and 4 per axis.  When the support touches the input border the
    central unit was not interior, so the input grows by half and the
    measurement repeats.
    """
    report = compute_rf(arch)
    last = report.rows[-1]
    fext = report.rf_freq + 2 * last.j_freq + 4
    text = report.rf_time + 2 * last.j_time + 4
    while True:
        x = ad.Tensor(np.ones((1, 1, fext, text), dtype=np.float64), requires_grad=True)
        with ad.Tape():
            out = forward(x)
            mask = np.zeros(out.shape, dtype=out.dtype)
            mask[0, :, out.shape[2] // 2, out.shape[3] // 2] = 1.0
            loss = ad.sum_all(ad.mul(out, ad.Tensor(mask)))
        ad.backward(loss)
        grad = np.abs(x.grad[0, 0])
        f_hit = np.flatnonzero(grad.sum(axis=1) > 0)
        t_hit = np.flatnonzero(grad.sum(axis=0) > 0)
        if 0 < f_hit[0] and f_hit[-1] < fext - 1 and 0 < t_hit[0] and t_hit[-1] < text - 1:
            return int(f_hit[-1] - f_hit[0] + 1), int(t_hit[-1] - t_hit[0] + 1)
        fext, text = fext + fext // 2, text + text // 2


def avg_pool2d(x, kernel, stride):
    """Average over (kh, kw) windows at ``stride``, recorded on the tape.

    The receptive-field probes' pool: a max window's influence set is its
    whole window, which the average's gradient reaches.  Forward and
    backward loop over the window offsets.
    """
    (kh, kw), (sh, sw) = kernel, stride
    n, c, h, w = x.shape
    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1

    def tap(i, j):
        return np.s_[:, :, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw]

    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += x.data[tap(i, j)]
    out /= kh * kw

    def vjp(gout):
        gx = np.zeros_like(x.data)
        for i in range(kh):
            for j in range(kw):
                gx[tap(i, j)] += gout / (kh * kw)
        return (gx if x.requires_grad else None,)

    return ad.record("avg_pool", out, [x], vjp)


def empirical_rf(arch):
    """(freq, time) receptive field of a unit instantiation of ``arch``.

    The probe builds the architecture with single-channel convs, all-one
    weights and no nonlinearity.  Pools are instantiated as average pools:
    any element of a max window can influence the output under perturbation,
    so the avg backward measures the true influence set that a single max
    subgradient undercounts.  Pool padding is ignored (padding shifts
    extents, never connectivity span).
    """
    return connectivity_rf(arch, partial(_unit_forward, arch))


def _unit_forward(arch, x):
    skips_into = {}
    for src, dst in arch.skips:
        skips_into.setdefault(dst, []).append(src)
    outputs = {}
    cur = x
    for layer in arch.layers:
        if layer.kind == "conv":
            kf, kt = layer.kernel
            w = ad.Tensor(np.ones((1, 1, kf, kt), dtype=np.float64))
            cur = ad.conv2d(cur, w, stride=layer.stride, padding=layer.padding)
        else:
            cur = avg_pool2d(cur, layer.kernel, layer.stride)
        for src in skips_into.get(layer.name, ()):
            cur = ad.add(cur, outputs[src])
        outputs[layer.name] = cur
    return cur


def measure_model_rf(config):
    """(freq, time) receptive field of the built model, by ``connectivity_rf``.

    The probe is the model rebuilt for the probe input's bins with
    all-positive weights, zero biases and identity BN statistics.  Its max
    pools run as average pools (a max window's influence set is its whole
    window): ``ad.pool2d`` is rebound for the measurement, which the model's
    steps see because they look it up at call time.
    """

    def probe(x):
        model = build_model(replace(config, input_bins=x.shape[2]))
        for name, p in model.params.items():
            if name.endswith(".bias") or name.endswith(".beta"):
                p.data = np.zeros_like(p.data)
            elif name.endswith(".gamma"):
                p.data = np.ones_like(p.data)
            else:
                p.data = np.full_like(p.data, 0.1)
        return model.forward_features(x, mode="eval")

    pool2d = ad.pool2d
    ad.pool2d = lambda x, kind, kernel, stride: avg_pool2d(x, kernel, stride)
    try:
        return connectivity_rf(config.arch(), probe)
    finally:
        ad.pool2d = pool2d


def reference_mel_filterbank(n_fft, n_mels, sr):
    """Triangular mel filters from 0 Hz to sr/2, one band and one bin at a time.

    The band edges are n_mels + 2 points equally spaced on the mel scale
    2595*log10(1 + f/700); bin k sits at k*sr/n_fft Hz.  A bin strictly
    inside a band's edges takes the rising slope up to the band's center and
    the falling slope past it.  A band with no bin strictly inside its edges
    puts unit weight on the bin nearest its center (the first, on a tie).
    """
    top = 2595.0 * math.log10(1.0 + (sr / 2.0) / 700.0)
    edges = [700.0 * (10.0 ** (i * top / (n_mels + 1) / 2595.0) - 1.0)
             for i in range(n_mels + 2)]
    n_bins = n_fft // 2 + 1
    matrix = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        for k in range(n_bins):
            f = k * sr / n_fft
            if left < f <= center:
                matrix[m, k] = (f - left) / (center - left)
            elif center < f < right:
                matrix[m, k] = (right - f) / (right - center)
        if not matrix[m].any():
            nearest = min(range(n_bins), key=lambda k: abs(k * sr / n_fft - center))
            matrix[m, nearest] = 1.0
    return matrix


def reference_forward(model, x, mode="eval"):
    """Logits of ``model`` on ``x`` in ``mode``, walking ``model.trunk`` with
    the allocating ops: ``fa_channel`` before each conv of a
    frequency-aware model, then ``conv2d``, ``batchnorm2d`` in ``mode`` and
    ``relu``, each into a fresh array; blocks add the residual to the
    branch, or to ``shake_combine`` of the two branches.  Eval mixes at 0.5
    and 0.5; train draws alpha then beta per block, in block order, from a
    copy of ``model.rng_shake``, so the model's own draws are left alone.
    Then global average pool and the head.
    """
    rng = copy.deepcopy(model.rng_shake)

    def conv(step, h):
        if step.fa:
            h = fa_channel(h)
        h = ad.conv2d(h, step.weight, None, stride=step.stride, padding=step.padding)
        h = ad.batchnorm2d(h, step.gamma, step.beta, step.state, mode=mode)
        return ad.relu(h) if step.relu else h

    def run(steps, h):
        for step in steps:
            if hasattr(step, "branches"):
                residual = h if step.proj is None else conv(step.proj, h)
                out = [run(branch, h) for branch in step.branches]
                if len(out) == 2:
                    alpha = float(rng.uniform()) if mode == "train" else 0.5
                    beta = float(rng.uniform()) if mode == "train" else 0.5
                    out = [shake_combine(out[0], out[1], alpha, beta)]
                h = ad.add(residual, out[0])
            elif hasattr(step, "weight"):
                h = conv(step, h)
            else:
                h = ad.pool2d(h, "max", kernel=step.kernel, stride=step.stride)
        return h

    pooled = ad.pool2d(run(model.trunk, x), "global_avg")
    flat = ad.reshape(pooled, (x.shape[0], pooled.shape[1]))
    return ad.linear(flat, model.head_w, model.head_b)


def oneshot_logmel(clip):
    """``dsp.logmel``'s values from one pass over the whole clip: the STFT
    power of every frame, A-weighted, projected on the mel filterbank,
    10*log10 above the power floor, less its maximum, clipped, as float32."""
    samples = clip.samples
    if len(samples) < dsp.DEFAULT_N_FFT:
        samples = np.concatenate([samples, np.zeros(dsp.DEFAULT_N_FFT - len(samples))])
    clip = dsp.AudioClip(samples, clip.sample_rate)
    weighted = dsp.stft_power(clip) * dsp.a_weight_power_multipliers(sr=clip.sample_rate)[:, None]
    mel_power = dsp.mel_filterbank(sr=clip.sample_rate) @ weighted
    db = 10.0 * np.log10(mel_power + dsp.POWER_FLOOR)
    return np.clip(db - db.max(), dsp.DB_CLIP, None).astype(np.float32)


def kept_arrays(records) -> dict:
    """The distinct arrays that tape ``records`` keep, by id: every array
    reachable from a record's vjp through closure cells, the functions they
    hold, lists and tuples, and the data of each input a record routes to
    itself.  A view counts as the array it views."""
    kept, seen = {}, set()

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            kept[id(obj)] = obj
        elif isinstance(obj, ad.Tensor):
            visit(obj.data)
        elif isinstance(obj, types.FunctionType) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in obj.__closure__ or ():
                visit(cell.cell_contents)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for rec in records:
        visit(rec.routes)
        visit(rec.vjp)
    return kept
