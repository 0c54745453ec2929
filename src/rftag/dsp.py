"""PCM audio to perceptually-weighted log-mel spectrograms.

Pipeline: WAV decode -> mono 44.1 kHz float -> Hann STFT power ->
A-weighting (power-domain multiplier per FFT bin) -> triangular mel
projection -> 10*log10 -> ref-max normalization -> clip at -100 dB.

The STFT power spectrum is one-sided and normalized so that the bins of a
frame sum to the windowed frame's energy (interior bins carry a factor 2,
DC and Nyquist a factor 1, everything divided by n_fft).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TARGET_SAMPLE_RATE = 44100
MIN_SAMPLE_RATE = 8000      # the lowest standard PCM rate
MAX_SAMPLE_RATE = 768000    # the highest common one
DEFAULT_N_FFT = 2048
DEFAULT_HOP = 512
DEFAULT_N_MELS = 256
POWER_FLOOR = 1e-10
DB_CLIP = -100.0


@dataclass
class AudioClip:
    """Mono floating-point audio in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = TARGET_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")


@dataclass
class Spectrogram:
    """dB-scaled log-mel matrix, ``bins x frames``, max entry 0 dB."""

    values: np.ndarray

    @property
    def bins(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


@dataclass
class MelFilterbank:
    """Triangular mel filters evaluated at FFT bin centers."""

    matrix: np.ndarray  # n_mels x (n_fft//2 + 1)
    centers_hz: np.ndarray


# ---------------------------------------------------------------------------
# WAV decoding
# ---------------------------------------------------------------------------


def load_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE file to mono 44.1 kHz.

    Supports PCM 16-bit and IEEE float 32-bit, 1 or 2 channels.  Stereo is
    averaged to mono; 16-bit samples are scaled by 1/32768; other rates are
    resampled to 44.1 kHz by linear interpolation.  A chunk that declares
    more bytes than the file holds is an error, not a truncated read, and
    so is a rate outside [8 kHz, 768 kHz], which no real recording has and
    whose resampling could take gigabytes or leave a single sample.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (csize,) = struct.unpack_from("<I", raw, pos + 4)
        if csize > len(raw) - pos - 8:
            raise ValueError(f"{path}: {cid.decode('latin-1')!r} chunk declares {csize} bytes "
                             f"but {len(raw) - pos - 8} are present")
        body = raw[pos + 8:pos + 8 + csize]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + csize + (csize & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")

    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk holds {len(fmt)} bytes, expected at least 16")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == 0xFFFE and len(fmt) >= 26:
        # WAVE_FORMAT_EXTENSIBLE: actual format is the first two GUID bytes
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if channels not in (1, 2):
        raise ValueError(f"{path}: unsupported channel count {channels} (expected 1 or 2)")
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        raise ValueError(f"{path}: fmt chunk declares a sample rate of {rate}, outside "
                         f"[{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz")

    if (audio_format, bits) not in ((1, 16), (3, 32)):
        kind = {1: "PCM", 3: "IEEE float"}.get(audio_format, f"format code {audio_format}")
        raise ValueError(f"{path}: unsupported encoding {kind} at {bits}-bit "
                         "(expected 16-bit PCM or 32-bit float)")
    frame_bytes = channels * bits // 8
    if len(data) % frame_bytes:
        raise ValueError(f"{path}: data chunk holds {len(data)} bytes, not a whole number "
                         f"of {frame_bytes}-byte frames ({channels} x {bits}-bit)")
    if audio_format == 1:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    if rate != TARGET_SAMPLE_RATE:
        samples = resample_linear(samples, rate, TARGET_SAMPLE_RATE)
    return AudioClip(samples=samples, sample_rate=TARGET_SAMPLE_RATE)


def write_wav(path, samples: np.ndarray, sample_rate: int = TARGET_SAMPLE_RATE) -> None:
    """Write mono 16-bit PCM."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(pcm))
    Path(path).write_bytes(hdr + pcm)


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Linear-interpolation resampling."""
    n = len(samples)
    new_n = int(round(n * dst_rate / src_rate))
    if n == 0 or new_n == 0:
        return np.zeros(0, dtype=np.float64)
    src_t = np.arange(n) / src_rate
    dst_t = np.arange(new_n) / dst_rate
    return np.interp(dst_t, src_t, samples)


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------


def hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, window: int, hop: int) -> int:
    if n_samples < window:
        raise ValueError(f"clip of {n_samples} samples is shorter than one window ({window})")
    return (n_samples - window) // hop + 1


def stft_power(clip: AudioClip, window: int = DEFAULT_N_FFT, hop: int = DEFAULT_HOP) -> np.ndarray:
    """One-sided power spectrogram, (window//2 + 1) x frames.

    Per frame: |rfft(hann * frame)|^2 scaled so the bins sum to the windowed
    frame energy (Parseval); interior bins doubled, all divided by window.
    """
    x = clip.samples
    n_frames = frame_count(len(x), window, hop)
    frames = sliding_window_view(x, window)[::hop][:n_frames]
    win = hann_periodic(window)
    spec = np.fft.rfft(frames * win, axis=1)
    power = (spec.real ** 2 + spec.imag ** 2) / window
    power[:, 1:-1] *= 2.0
    return power.T.copy()


# ---------------------------------------------------------------------------
# mel filterbank and perceptual weighting
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_fft: int = DEFAULT_N_FFT, n_mels: int = DEFAULT_N_MELS,
                   sr: int = TARGET_SAMPLE_RATE, fmin: float = 0.0,
                   fmax: float = None) -> MelFilterbank:
    """Triangular filters with centers equally spaced on the mel scale.

    Filters are evaluated at FFT bin center frequencies.  At 256 bands the
    lowest mel centers are closer together than one FFT bin; a triangle whose
    open support contains no bin center falls back to unit weight at the bin
    nearest its center so every band stays a single nonempty bump.
    """
    if fmax is None:
        fmax = sr / 2.0
    if not (0 <= fmin < fmax <= sr / 2.0):
        raise ValueError(f"need 0 <= fmin < fmax <= sr/2, got fmin={fmin}, fmax={fmax}")
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sr / n_fft)
    in_range = np.count_nonzero((bin_hz >= fmin) & (bin_hz <= fmax))
    if n_mels + 2 > in_range:
        raise ValueError(
            f"too many bands for n_fft: {n_mels} mel bands need {n_mels + 2} grid points "
            f"but only {in_range} FFT bins lie in [{fmin}, {fmax}] Hz")

    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    matrix = np.zeros((n_mels, n_bins), dtype=np.float64)
    for m in range(n_mels):
        left, center, right = pts[m], pts[m + 1], pts[m + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        row = np.maximum(0.0, np.minimum(rising, falling))
        if not np.any(row > 0):
            row[int(np.argmin(np.abs(bin_hz - center)))] = 1.0
        matrix[m] = row
    return MelFilterbank(matrix=matrix, centers_hz=pts[1:-1].copy())


def a_weighting_db(freq_hz: np.ndarray) -> np.ndarray:
    """Standard A-weighting curve in dB at the given frequencies."""
    f2 = np.asarray(freq_hz, dtype=np.float64) ** 2
    num = (12194.0 ** 2) * f2 ** 2
    den = ((f2 + 20.6 ** 2)
           * np.sqrt((f2 + 107.7 ** 2) * (f2 + 737.9 ** 2))
           * (f2 + 12194.0 ** 2))
    with np.errstate(divide="ignore"):
        ra = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        return 20.0 * np.log10(np.maximum(ra, 1e-300)) + 2.0


def a_weight_power_multipliers(n_fft: int = DEFAULT_N_FFT,
                               sr: int = TARGET_SAMPLE_RATE) -> np.ndarray:
    """A-weighting converted to power-domain multipliers per FFT bin.

    Bin 0 reuses bin 1's weight (the curve diverges to -inf at 0 Hz).
    """
    freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    db = a_weighting_db(freqs)
    db[0] = db[1]
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# the full front end
# ---------------------------------------------------------------------------


_STFT_BLOCK = 256
"""Frames per block of ``logmel``'s STFT.

One-shot, a 30 s clip's STFT temporaries (frames, spectrum, power and its
weighted copy) peak at about 85 MB in float64; a block of 256 frames peaks
at about 13 MB.  Blocks start at multiples of 256 frames and hold at least
256 (but a whole short clip), so each mel product is a full-size GEMM
whose columns OpenBLAS rounds as it does in the one-shot product."""


def _blocks(frames: int) -> list:
    """Frame blocks [lo, hi) of ``_STFT_BLOCK`` frames, the remainder joining
    the last one, so no block but a whole short clip is narrower than a block."""
    starts = list(range(0, frames, _STFT_BLOCK))[:max(1, frames // _STFT_BLOCK)]
    return list(zip(starts, starts[1:] + [frames]))


def logmel(clip: AudioClip) -> Spectrogram:
    """Perceptually-weighted log-mel spectrogram, ref-max normalized.

    ``DEFAULT_N_FFT``-sample Hann windows every ``DEFAULT_HOP`` samples,
    ``DEFAULT_N_MELS`` bands at the clip's sample rate.  A clip shorter than
    one window is zero-padded to a single window, giving one frame.

    The STFT, A-weighting and mel projection run over blocks of
    ``_STFT_BLOCK`` frames into one float64 dB matrix; every step works per
    frame, so the result is bit for bit that of one pass over the whole
    clip, without its temporaries.
    """
    filterbank = mel_filterbank(sr=clip.sample_rate)
    weights = a_weight_power_multipliers(sr=clip.sample_rate)[:, None]
    samples = clip.samples
    if len(samples) < DEFAULT_N_FFT:
        samples = np.concatenate([samples, np.zeros(DEFAULT_N_FFT - len(samples))])
    frames = frame_count(len(samples), DEFAULT_N_FFT, DEFAULT_HOP)
    # The result outlives every temporary below.  Allocated first, it lies
    # below them on the heap, so it never pins their freed memory resident.
    values = np.empty((DEFAULT_N_MELS, frames), dtype=np.float32)
    db = np.empty((DEFAULT_N_MELS, frames))
    for lo, hi in _blocks(frames):
        block = samples[lo * DEFAULT_HOP:(hi - 1) * DEFAULT_HOP + DEFAULT_N_FFT]
        power = stft_power(AudioClip(block, clip.sample_rate))
        np.matmul(filterbank.matrix, power * weights, out=db[:, lo:hi])
    db += POWER_FLOOR
    np.log10(db, out=db)
    db *= 10.0
    db -= db.max()
    np.clip(db, DB_CLIP, None, out=db)
    values[...] = db
    return Spectrogram(values=values)
