import math
import struct
import tracemalloc

import numpy as np
import pytest

from rftag import dsp
from rftag.dsp import (
    AudioClip,
    a_weight_power_multipliers,
    frame_count,
    hann_periodic,
    hz_to_mel,
    load_wav,
    logmel,
    mel_filterbank,
    mel_to_hz,
    resample_linear,
    stft_power,
    write_wav,
)

from oracles import oneshot_logmel, reference_mel_filterbank


def write_pcm16(path, samples_i16, rate=44100, channels=1):
    data = np.asarray(samples_i16, dtype="<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                 rate * 2 * channels, 2 * channels, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    path.write_bytes(hdr + data)


def write_float32(path, samples_f32, rate=44100, channels=1):
    data = np.asarray(samples_f32, dtype="<f4").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 3, channels, rate,
                                 rate * 4 * channels, 4 * channels, 32)
    hdr += b"data" + struct.pack("<I", len(data))
    path.write_bytes(hdr + data)


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        write_pcm16(p, [0, 16384, -32768])
        clip = load_wav(p)
        np.testing.assert_allclose(clip.samples, [0.0, 0.5, -1.0])
        assert clip.sample_rate == 44100

    def test_stereo_average(self, tmp_path):
        p = tmp_path / "s.wav"
        write_float32(p, [1.0, 0.0], channels=2)  # one frame: L=1, R=0
        clip = load_wav(p)
        np.testing.assert_allclose(clip.samples, [0.5])

    def test_resample_doubles_length(self, tmp_path):
        p = tmp_path / "r.wav"
        n = 1000
        write_pcm16(p, np.zeros(n, dtype=np.int16), rate=22050)
        clip = load_wav(p)
        assert abs(len(clip.samples) - 2 * n) <= 1

    def test_unsupported_depth_names_format(self, tmp_path):
        p = tmp_path / "u.wav"
        data = np.zeros(4, dtype="<i1").tobytes()
        hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 44100, 44100, 1, 8)
        hdr += b"data" + struct.pack("<I", len(data))
        p.write_bytes(hdr + data)
        with pytest.raises(ValueError, match="PCM.*8-bit"):
            load_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(ValueError, match="RIFF"):
            load_wav(p)

    @pytest.mark.parametrize("bad,then", [(np.nan, np.inf), (np.inf, -np.inf), (-np.inf, np.nan)])
    def test_non_finite_float_sample_names_path_and_index(self, tmp_path, bad, then):
        p = tmp_path / "f.wav"
        write_float32(p, [0.0, 0.5, 0.25, bad, then], channels=1)
        with pytest.raises(ValueError) as err:
            load_wav(p)
        assert str(err.value) == f"{p}: data chunk sample 3 is {bad}, not a finite number"

    def test_non_finite_sample_is_named_by_its_interleaved_index(self, tmp_path):
        p = tmp_path / "st.wav"
        write_float32(p, [0.0, 0.5, 0.25, np.inf], channels=2)  # the second frame's R
        with pytest.raises(ValueError) as err:
            load_wav(p)
        assert str(err.value) == f"{p}: data chunk sample 3 is inf, not a finite number"

    def test_finite_float_extremes_load_exactly(self, tmp_path):
        p = tmp_path / "e.wav"
        f32 = np.finfo(np.float32)
        x = np.array([f32.max, -f32.max, f32.smallest_subnormal, -2.5, 0.0], dtype=np.float32)
        write_float32(p, x)
        np.testing.assert_array_equal(load_wav(p).samples, x.astype(np.float64))

    def test_roundtrip_through_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, 500)
        p = tmp_path / "rt.wav"
        write_wav(p, x)
        clip = load_wav(p)
        # half-step quantization plus the 32767-write/32768-read scale skew
        np.testing.assert_allclose(clip.samples, x, atol=2.0 / 32768)

    def test_writer_riff_size_is_the_file_length_less_8(self, tmp_path):
        p = tmp_path / "size.wav"
        write_wav(p, np.zeros(37))
        raw = p.read_bytes()
        assert raw[:4] == b"RIFF" and struct.unpack_from("<I", raw, 4)[0] == len(raw) - 8

    @staticmethod
    def write_raw(path, data, channels, bits, code=1, fmt_size=16):
        block = channels * bits // 8
        fmt = struct.pack("<HHIIHH", code, channels, 44100, 44100 * block, block, bits)[:fmt_size]
        body = b"fmt " + struct.pack("<I", fmt_size) + fmt + b"\x00" * (fmt_size & 1)
        body += b"data" + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)

    def test_chunk_overrun_names_path_chunk_and_counts(self, tmp_path):
        p = tmp_path / "short.wav"
        self.write_raw(p, b"\x00" * 200, channels=1, bits=16)
        raw = bytearray(p.read_bytes())
        at = raw.index(b"data") + 4
        raw[at:at + 4] = struct.pack("<I", 4000)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"short\.wav: 'data' chunk declares 4000 bytes "
                                             r"but 200 are present"):
            load_wav(p)

    def test_odd_byte_count_names_path_and_chunk(self, tmp_path):
        p = tmp_path / "odd.wav"
        self.write_raw(p, b"\x01\x02\x03", channels=1, bits=16)
        with pytest.raises(ValueError, match=r"odd\.wav: data chunk holds 3 bytes"):
            load_wav(p)

    def test_stereo_odd_sample_count_names_path_and_chunk(self, tmp_path):
        p = tmp_path / "st.wav"
        self.write_raw(p, np.zeros(3, dtype="<i2").tobytes(), channels=2, bits=16)
        with pytest.raises(ValueError, match=r"st\.wav: data chunk holds 6 bytes.*4-byte frames"):
            load_wav(p)

    def test_short_fmt_chunk_names_path_and_chunk(self, tmp_path):
        p = tmp_path / "fmt.wav"
        self.write_raw(p, b"\x00\x00", channels=1, bits=16, fmt_size=10)
        with pytest.raises(ValueError, match=r"fmt\.wav: fmt chunk holds 10 bytes"):
            load_wav(p)

    def test_zero_sample_rate_names_path_and_field(self, tmp_path):
        p = tmp_path / "rate.wav"
        write_pcm16(p, [0, 1, 2], rate=0)
        with pytest.raises(ValueError, match=r"rate\.wav: fmt chunk declares a sample rate of 0"):
            load_wav(p)


class TestStft:
    def test_sine_argmax_bin(self):
        t = np.arange(44100) / 44100.0
        clip = AudioClip(np.sin(2 * np.pi * 441.0 * t))
        power = stft_power(clip, window=2048, hop=512)
        assert power.shape[0] == 1025
        peaks = power.argmax(axis=0)
        assert set(np.unique(peaks)) <= {20, 21}  # 441*2048/44100 = 20.48

    def test_silence_all_zero(self):
        clip = AudioClip(np.zeros(4096))
        power = stft_power(clip, hop=512)
        np.testing.assert_array_equal(power, 0.0)

    def test_frame_count_formula(self):
        clip = AudioClip(np.zeros(44100))
        power = stft_power(clip, window=2048, hop=512)
        assert power.shape[1] == (44100 - 2048) // 512 + 1 == 83

    def test_frame_count_property(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            window = int(rng.integers(16, 256))
            hop = int(rng.integers(1, window + 1))
            n = int(rng.integers(window, window * 20))
            clip = AudioClip(rng.standard_normal(n))
            power = stft_power(clip, window=window, hop=hop)
            assert power.shape == (window // 2 + 1, (n - window) // hop + 1)

    def test_default_window_and_hop(self):
        # (3584 - 2048) // 512 + 1 frames of 2048 // 2 + 1 bins
        power = stft_power(AudioClip(np.random.default_rng(4).standard_normal(3584)))
        assert power.shape == (1025, 4)

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            stft_power(AudioClip(np.zeros(100)), window=2048, hop=512)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        window, hop = 512, 512
        x = rng.standard_normal(window)
        clip = AudioClip(x)
        power = stft_power(clip, window=window, hop=hop)
        windowed = x * hann_periodic(window)
        energy = np.sum(windowed ** 2)
        np.testing.assert_allclose(power[:, 0].sum(), energy, rtol=1e-6)


class TestMelFilterbank:
    def test_mel_of_700(self):
        np.testing.assert_allclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0), rtol=1e-12)
        assert abs(hz_to_mel(700.0) - 781.2) < 0.1

    def test_mel_roundtrip(self):
        f = np.linspace(0, 22050, 100)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-6)

    def test_rows_nonnegative_single_bump(self):
        fb = mel_filterbank()
        assert fb.shape == (256, 1025) and fb.dtype == np.float64
        assert np.all(fb >= 0)
        for row in fb:
            support = np.flatnonzero(row > 0)
            assert support.size >= 1
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
            peak = row.argmax()
            assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)

    def test_peak_bins_never_decrease(self):
        assert np.all(np.diff(mel_filterbank().argmax(axis=1)) >= 0)

    def test_bin_coverage_between_centers(self):
        # the first and last of 64 centers: points 1 and 64 of 66 equally spaced in mel, 0 to sr/2
        top = 2595.0 * math.log10(1.0 + 22050.0 / 700.0)
        lo, hi = (700.0 * (10.0 ** (m * top / 65 / 2595.0) - 1.0) for m in (1, 64))
        bin_hz = np.arange(1025) * (44100 / 2048)
        covered = mel_filterbank(n_fft=2048, n_mels=64).sum(axis=0) > 0
        inside = (bin_hz >= lo) & (bin_hz <= hi)
        assert np.all(covered[inside])

    def test_mel_scale_at_known_points(self):
        # 2595 * log10(1 + f/700): 1 kHz is 999.985 mel, 1000 mel is 1000.022 Hz
        assert abs(hz_to_mel(1000.0) - 999.985) < 1e-3
        assert abs(mel_to_hz(1000.0) - 1000.022) < 1e-3
        assert hz_to_mel(0.0) == 0.0

    # the reference puts the band edges on the equal-mel grid, so this pins the centers too;
    # the default (2048, 256, 44100) has one band that falls back to its nearest bin
    @pytest.mark.parametrize("n_fft,n_mels,sr", [(2048, 64, 44100), (2048, 256, 22050),
                                                 (2048, 256, 44100)])
    def test_matrix_is_the_reference(self, n_fft, n_mels, sr):
        got = mel_filterbank(n_fft=n_fft, n_mels=n_mels, sr=sr)
        np.testing.assert_allclose(got, reference_mel_filterbank(n_fft, n_mels, sr),
                                   rtol=0, atol=1e-12)

    def test_too_many_bands_rejected(self):
        with pytest.raises(ValueError) as err:
            mel_filterbank(n_fft=64, n_mels=256)
        assert str(err.value) == ("too many bands for n_fft: 256 mel bands need 258 grid points "
                                  "but only 33 FFT bins lie in [0.0, 22050.0] Hz")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="fmin"):
            mel_filterbank(fmin=5000, fmax=1000)


class TestLogmel:
    def test_silence_flat(self):
        spec = logmel(AudioClip(np.zeros(8192)))
        assert np.all(spec.values == spec.values.reshape(-1)[0])

    def test_max_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        spec = logmel(AudioClip(rng.standard_normal(8192) * 0.1))
        assert spec.values.max() == 0.0
        assert np.all(spec.values >= -100.0)

    def test_bins_and_frame_formula(self):
        rng = np.random.default_rng(4)
        n = 20000
        spec = logmel(AudioClip(rng.standard_normal(n) * 0.1))
        assert spec.values.shape == (256, (n - 2048) // 512 + 1)

    def test_amplitude_doubling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8192)
        base = logmel(AudioClip(x))
        doubled = logmel(AudioClip(2 * x))
        # ref-max normalization cancels the global gain everywhere the power
        # floor is negligible
        above_floor = base.values > -50.0
        assert above_floor.mean() > 0.5
        np.testing.assert_allclose(doubled.values[above_floor],
                                   base.values[above_floor], atol=1e-3)

    def test_amplitude_doubling_prenormalization(self):
        # doubling the waveform scales power by exactly 4, i.e. +20*log10(2) dB
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8192) * 0.1
        fb = mel_filterbank()
        weighted = a_weight_power_multipliers()[:, None]
        p1 = fb @ (stft_power(AudioClip(x)) * weighted)
        p2 = fb @ (stft_power(AudioClip(2 * x)) * weighted)
        np.testing.assert_allclose(10 * np.log10(p2) - 10 * np.log10(p1),
                                   20 * np.log10(2.0), atol=1e-9)

    def test_mel_projection_linearity(self):
        rng = np.random.default_rng(7)
        fb = mel_filterbank()
        power = rng.uniform(0.01, 1.0, size=(1025, 7))
        a = 3.7
        db = 10 * np.log10(fb @ power + 0.0)
        db_scaled = 10 * np.log10(fb @ (a * power) + 0.0)
        np.testing.assert_allclose(db_scaled - db, 10 * np.log10(a), rtol=1e-9)

    def test_short_clip_padded_flag(self):
        spec = logmel(AudioClip(np.ones(100) * 0.1))
        assert spec.values.shape == (256, 1)

    def test_pure_function_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8192) * 0.1
        a = logmel(AudioClip(x.copy()))
        b = logmel(AudioClip(x.copy()))
        assert np.array_equal(a.values, b.values)

    def test_default_filterbank_uses_the_clip_rate(self):
        rng = np.random.default_rng(9)
        clip = AudioClip(rng.standard_normal(8192) * 0.1, sample_rate=22050)
        assert np.array_equal(logmel(clip).values, oneshot_logmel(clip))

    @pytest.mark.parametrize("frames", [1, dsp._STFT_BLOCK - 1, dsp._STFT_BLOCK,
                                        dsp._STFT_BLOCK + 1, "30 s"])
    def test_blocks_give_the_one_shot_bits(self, frames):
        rng = np.random.default_rng(10)
        if frames == "30 s":
            n = 30 * dsp.TARGET_SAMPLE_RATE
        else:
            n = dsp.DEFAULT_N_FFT + (frames - 1) * dsp.DEFAULT_HOP + 100
        clip = AudioClip(rng.standard_normal(n) * 0.1)
        got = logmel(clip).values
        assert got.shape[1] == (n - dsp.DEFAULT_N_FFT) // dsp.DEFAULT_HOP + 1
        assert got.dtype == np.float32 and np.array_equal(got, oneshot_logmel(clip))

    def test_logmel_keeps_no_one_shot_temporaries(self):
        # one pass over a 30 s clip traces 85 MB of STFT temporaries; in blocks
        # the peak is the float32 result, its float64 dB matrix, the filterbank
        # and at most four float64 windows' worth per frame of one block
        clip = AudioClip(np.random.default_rng(11).standard_normal(30 * dsp.TARGET_SAMPLE_RATE))
        frames = frame_count(len(clip.samples), dsp.DEFAULT_N_FFT, dsp.DEFAULT_HOP)
        result = dsp.DEFAULT_N_MELS * frames * (4 + 8)
        filterbank = dsp.DEFAULT_N_MELS * (dsp.DEFAULT_N_FFT // 2 + 1) * 8
        block = 4 * dsp._STFT_BLOCK * dsp.DEFAULT_N_FFT * 8
        tracemalloc.start()
        try:
            logmel(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result + filterbank + block, f"traced peak {peak} bytes"

    @pytest.mark.parametrize("tenths,want", [(-20, -70.4), (-15, -39.4), (-12, -26.2),
                                             (-10, -19.1), (-6, -8.6), (-3, -3.2), (0, 0.0),
                                             (3, 1.2), (6, 1.0), (9, -1.1), (10, -2.5),
                                             (12, -6.6), (13, -9.3)])
    def test_aweighting_matches_the_iec_table(self, tenths, want):
        # IEC 61672-1, table 3, at the exact base-ten band centres 1 kHz * 10^(n/10)
        assert abs(float(dsp.a_weighting_db(1000.0 * 10.0 ** (tenths / 10))) - want) <= 0.05

    def test_aweight_bin0_copies_bin1(self):
        w = a_weight_power_multipliers()
        assert w[0] == w[1]
        assert np.all(np.isfinite(w)) and np.all(w > 0)


class TestResample:
    def test_one_sample_holds_its_value(self):
        np.testing.assert_array_equal(resample_linear(np.array([0.7]), 22050, 44100), [0.7, 0.7])
        np.testing.assert_array_equal(resample_linear(np.array([0.7]), 44100, 44100), [0.7])

    def test_preserves_sine_shape(self):
        t = np.arange(2000) / 22050.0
        x = np.sin(2 * np.pi * 220.0 * t)
        y = resample_linear(x, 22050, 44100)
        t2 = np.arange(len(y)) / 44100.0
        # linear interpolation curvature error ~ (pi*f/sr)^2 / 2; the final
        # sample extrapolates by sample-and-hold, so skip it
        np.testing.assert_allclose(y[:-1], np.sin(2 * np.pi * 220.0 * t2)[:-1], atol=1e-3)
