"""Corrupted WAV files and checkpoints load cleanly or fail naming the path.

Each case takes a small valid file, truncates it, flips one bit, rewrites
one header field or, for a checkpoint, appends bytes, and loads it with
``load_wav`` or ``load_model``.  The load either raises a ValueError that
names the path, or it is clean:

- a WAV declares a rate in the range ``load_wav`` accepts, and the clip
  lasts as long as the header says (frames / rate, to half an output
  sample);
- a checkpoint holds nothing that its model and echo do not: saving the
  model again, with the echo's fields that are not config fields as
  ``extra``, gives the same bytes.

Any other exception type fails the case.  The files hold at most 100
samples, so a case that loads an implausible rate stays small and fails
an assertion rather than memory.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rftag.dsp import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, TARGET_SAMPLE_RATE, load_wav
from rftag.models import (ModelConfig, TemplateConfig, build_model, config_echo, load_model,
                          save_checkpoint)

CHECKS = settings(max_examples=150)

# (offset, struct format) of each header field of a canonical 44-byte WAV header
WAV_FIELDS = {
    "riff size": (4, "<I"), "fmt size": (16, "<I"), "format": (20, "<H"),
    "channels": (22, "<H"), "rate": (24, "<I"), "bits": (34, "<H"), "data size": (40, "<I"),
}


def wav_bytes(audio_format: int, channels: int, bits: int, data: bytes) -> bytes:
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, 44100, 44100 * block, block, bits)
    body = b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


# A ramp of small values: no run of sample bytes reads as a chunk id.
WAVS = {
    "pcm16-mono": wav_bytes(1, 1, 16, np.arange(-24, 24, dtype="<i2").tobytes()),
    "float32-stereo": wav_bytes(3, 2, 32, np.linspace(-0.5, 0.5, 48, dtype="<f4").tobytes()),
}


# where each u32 header field a case may rewrite sits in the base checkpoint
CKPT_FIELDS = {
    "entry count": lambda raw: 8,
    "name length": lambda raw: raw.index(b"in1.weight") - 4,
    "rank": lambda raw: raw.index(b"in1.weight") + 10,
    "first dimension": lambda raw: raw.index(b"in1.weight") + 14,
    "last dimension": lambda raw: raw.index(b"in1.weight") + 26,
    "batchnorm entry count": lambda raw: raw.index(b"in1.bn.mean") - 8,
    "batchnorm rank": lambda raw: raw.index(b"in1.bn.mean") + 11,
    "batchnorm dimension": lambda raw: raw.index(b"in1.bn.mean") + 15,
    # frequency_aware is the echo's first key in sorted order
    "echo length": lambda raw: raw.rindex(b"frequency_aware=") - 4,
}


def cases(fields: dict, append: bool):
    """One corruption of a file whose header fields are ``fields``' keys;
    positions are taken modulo the file's length."""
    kinds = [st.tuples(st.just("truncate"), st.integers(0, 2 ** 16)),
             st.tuples(st.just("flip"), st.integers(0, 2 ** 20)),
             st.tuples(st.just("rewrite"), st.sampled_from(sorted(fields)),
                       st.integers(0, 2 ** 32 - 1))]
    if append:
        kinds.append(st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)))
    return st.one_of(kinds)


def corrupt(raw: bytes, fields: dict, case: tuple) -> bytes:
    kind, *args = case
    out = bytearray(raw)
    if kind == "truncate":
        return raw[:args[0] % len(raw)]
    if kind == "flip":
        bit = args[0] % (8 * len(raw))
        out[bit // 8] ^= 1 << (bit % 8)
    elif kind == "rewrite":
        at, fmt = fields[args[0]]
        struct.pack_into(fmt, out, at, args[1] % 2 ** (8 * struct.calcsize(fmt)))
    else:
        out += args[0]
    return bytes(out)


def loads_or_names_path(load, path):
    """The loader's result, or None after a ValueError that names ``path``."""
    try:
        return load(path)
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@pytest.fixture(scope="module")
def checkpoint(workdir):
    """The base checkpoint's bytes and its fields' (offset, struct format)."""
    config = ModelConfig(template=TemplateConfig(n_stages=2, blocks_per_stage=1,
                                                 channel_plan=(4, 6), pool_stages=1),
                         rho=2, frequency_aware=True, n_tags=3, input_bins=32)
    path = workdir / "base.ckpt"
    save_checkpoint(path, build_model(config))
    raw = path.read_bytes()
    return raw, {name: (find(raw), "<I") for name, find in CKPT_FIELDS.items()}


@pytest.mark.parametrize("base", sorted(WAVS))
@CHECKS
@given(cases(WAV_FIELDS, append=False))
@example(("rewrite", "rate", 1))
@example(("rewrite", "rate", 20))
@example(("rewrite", "rate", 2 ** 31))
def test_corrupted_wav_loads_cleanly_or_names_path(workdir, base, case):
    raw = corrupt(WAVS[base], WAV_FIELDS, case)
    path = workdir / f"{base}.wav"
    path.write_bytes(raw)
    clip = loads_or_names_path(load_wav, path)
    if clip is None:
        return
    # a clean load keeps the canonical layout, so the header fields sit at their offsets
    field = {name: struct.unpack_from(fmt, raw, at)[0] for name, (at, fmt) in WAV_FIELDS.items()}
    rate = field["rate"]
    assert MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE, rate
    frames = field["data size"] // (field["channels"] * field["bits"] // 8)
    assert abs(len(clip.samples) - frames * TARGET_SAMPLE_RATE / rate) <= 0.5


@CHECKS
@given(cases(CKPT_FIELDS, append=True))
@example(("append", bytes(13)))
@example(("append", b"\n"))
def test_corrupted_checkpoint_loads_cleanly_or_names_path(workdir, checkpoint, case):
    raw = corrupt(*checkpoint, case)
    path = workdir / "case.ckpt"
    path.write_bytes(raw)
    loaded = loads_or_names_path(load_model, path)
    if loaded is None:
        return
    model, echo = loaded
    again = workdir / "again.ckpt"
    config = config_echo(model.config)
    save_checkpoint(again, model, extra={k: v for k, v in echo.items() if k not in config})
    assert again.read_bytes() == raw
