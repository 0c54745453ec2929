import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from rftag import autodiff as ad
from rftag.autodiff import (
    AdamState,
    BatchNormState,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    batchnorm2d,
    bce_with_logits,
    conv2d,
    linear,
    mul,
    pool2d,
    relu,
    reshape,
    sigmoid,
    sum_all,
)
from rftag.models import ModelConfig, TemplateConfig, build_model, fa_channel

from oracles import (
    avg_pool2d,
    finite_difference_grads,
    max_relative_error,
    naive_conv2d,
    naive_matmul,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# the conv geometries of the CP-ResNet: (x shape, weight shape, stride, padding)
MODEL_GEOMETRIES = {
    "in1_3x3_stride2_fa": ((2, 2, 7, 6), (3, 2, 3, 3), (2, 2), (1, 1)),
    "3x3_stride1": ((2, 3, 5, 4), (2, 3, 3, 3), (1, 1), (1, 1)),
    "1x3_pad01": ((2, 3, 4, 5), (2, 3, 1, 3), (1, 1), (0, 1)),
    "1x1_projection": ((2, 3, 4, 4), (4, 3, 1, 1), (1, 1), (0, 0)),
}

# geometries where the padding reaches furthest into the taps
PADDING_EDGE_GEOMETRIES = {
    "tap_wholly_in_padding": ((2, 2, 1, 1), (3, 2, 3, 3), (1, 1), (1, 1)),
    "3x3_pad2": ((2, 2, 4, 5), (3, 2, 3, 3), (1, 1), (2, 2)),
    "stride2_odd_extents": ((2, 2, 7, 5), (3, 2, 3, 3), (2, 2), (1, 1)),
    "1x3_pad01_one_frame": ((2, 3, 4, 1), (2, 3, 1, 3), (1, 1), (0, 1)),
}


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_sum_oracle(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.data, 9.0)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w))

    def test_shape_formula(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        out = conv2d(x, w, stride=(2, 2), padding=(1, 1))
        assert out.shape == (2, 4, 4, 4)

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 2))
        b = rng.standard_normal(4)
        got = conv2d(t64(x), t64(w), t64(b), stride=(2, 1), padding=(1, 1))
        want = naive_conv2d(x, w, b, stride=(2, 1), padding=(1, 1))
        np.testing.assert_allclose(got.data, want, rtol=1e-12)

    @pytest.mark.parametrize("geometry", MODEL_GEOMETRIES)
    def test_matches_naive_oracle_model_geometries(self, geometry):
        xs, ws, stride, padding = MODEL_GEOMETRIES[geometry]
        rng = np.random.default_rng(1)
        x = rng.standard_normal(xs)
        w = rng.standard_normal(ws)
        b = rng.standard_normal(ws[0])
        got = conv2d(t64(x), t64(w), t64(b), stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry", PADDING_EDGE_GEOMETRIES)
    def test_matches_naive_oracle_padding_edges(self, geometry):
        xs, ws, stride, padding = PADDING_EDGE_GEOMETRIES[geometry]
        rng = np.random.default_rng(2)
        x = rng.standard_normal(xs)
        w = rng.standard_normal(ws)
        b = rng.standard_normal(ws[0])
        got = conv2d(t64(x), t64(w), t64(b), stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 4\).*\(1, 3, 3, 3\)"):
            conv2d(x, w)

    def test_kernel_exceeds_padded_extent(self):
        with pytest.raises(ValueError, match="exceeds"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))
        # one tap past the padded extent is refused, the padded extent itself is not
        x = Tensor(np.zeros((1, 1, 2, 2)))
        for over, fits, padding, shape in (((5, 1), (4, 1), (1, 0), (1, 1, 1, 2)),
                                           ((1, 5), (1, 4), (0, 1), (1, 1, 2, 1))):
            with pytest.raises(ValueError, match="exceeds padded input extents"):
                conv2d(x, Tensor(np.zeros((1, 1) + over)), padding=padding)
            assert conv2d(x, Tensor(np.ones((1, 1) + fits)), padding=padding).shape == shape

    def test_negative_padding_rejected(self):
        # a negative pad would read as a crop
        with pytest.raises(ValueError, match=r"padding must be >= 0, got \(-1, 0\)"):
            conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), padding=(-1, 0))

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError, match=r"weight shape \(1, 1, 0, 3\)"):
            conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 0, 3))), padding=(1, 1))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        w = t64(rng.standard_normal((2, 2, 3, 3)))
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        a, b = 1.7, -0.4
        lhs = conv2d(t64(a * x + b * y), w, padding=(1, 1)).data
        rhs = a * conv2d(t64(x), w, padding=(1, 1)).data + b * conv2d(t64(y), w, padding=(1, 1)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def band_of(monkeypatch, weight_shape, wo, rows, itemsize=8):
    """Make conv2d's bands ``rows`` output rows of a weight and output width;
    returns the bytes of one row of columns."""
    row_bytes = int(np.prod(weight_shape[1:])) * wo * itemsize
    monkeypatch.setattr(ad, "_BAND_BYTES", rows * row_bytes)
    return row_bytes


# outputs that span three or more bands: (x shape, weight shape, stride,
# padding, rows per band, the band sizes that gives)
BAND_GEOMETRIES = {
    "3x3_stride2_padding_rows_on_band_edges": ((2, 3, 9, 6), (2, 3, 3, 3), (2, 2), (1, 1), 2,
                                               [2, 2, 1]),
    "1x3_pad01": ((2, 3, 7, 5), (2, 3, 1, 3), (1, 1), (0, 1), 3, [3, 2, 2]),
    "last_band_of_one_row": ((2, 2, 7, 4), (3, 2, 3, 3), (1, 1), (1, 1), 2, [2, 2, 2, 1]),
}

# conv2d(x, w, freq_coord=True) geometries: x has one channel fewer than w
FREQ_COORD_GEOMETRIES = {
    "in1_3x3_stride2": ((2, 1, 9, 6), (3, 2, 3, 3), (2, 2), (1, 1)),
    "1x3_pad01": ((2, 3, 7, 5), (2, 4, 1, 3), (1, 1), (0, 1)),
    "one_bin": ((2, 2, 1, 4), (2, 3, 3, 3), (1, 1), (1, 1)),
}


class TestConvBands:
    @pytest.mark.parametrize("geometry", BAND_GEOMETRIES)
    def test_bands_match_naive_oracle(self, geometry, monkeypatch):
        xs, ws, stride, padding, rows, sizes = BAND_GEOMETRIES[geometry]
        rng = np.random.default_rng(3)
        x = rng.standard_normal(xs)
        w = rng.standard_normal(ws)
        b = rng.standard_normal(ws[0])
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        row_bytes = band_of(monkeypatch, ws, want.shape[3], rows)
        assert [hi - lo for lo, hi in ad._bands(want.shape[2], row_bytes)] == sizes
        got = conv2d(t64(x), t64(w), t64(b), stride=stride, padding=padding)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, 1], ids=["one_band", "one_row_bands"])
    @pytest.mark.parametrize("geometry", FREQ_COORD_GEOMETRIES)
    def test_freq_coord_is_the_appended_plane_bit_for_bit(self, geometry, rows, dtype,
                                                          monkeypatch):
        xs, ws, stride, padding = FREQ_COORD_GEOMETRIES[geometry]
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in (xs, ws, ws[:1])]
        out_shape = conv2d(Tensor(arrays[0]), Tensor(arrays[1]), stride=stride, padding=padding,
                           freq_coord=True).shape
        if rows:
            band_of(monkeypatch, ws, out_shape[3], rows, np.dtype(dtype).itemsize)
        gout = Tensor(rng.standard_normal(out_shape).astype(dtype))
        results = []
        for freq_coord in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            with Tape():
                y = conv2d(x if freq_coord else fa_channel(x), w, b, stride=stride,
                           padding=padding, freq_coord=freq_coord)
                loss = sum_all(mul(y, gout))
            backward(loss)
            results.append((y.data, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_freq_coord_weight_needs_the_extra_channel(self):
        with pytest.raises(ValueError, match="2 channels plus the frequency coordinate"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))),
                   padding=(1, 1), freq_coord=True)


class TestInPlace:
    """``out=`` on batchnorm2d, relu and add: the allocating bits; under a
    tape, only over the output of the last record, an op whose vjp never
    reads its output."""

    @staticmethod
    def ops(rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
        other = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
        gamma = Tensor(rng.uniform(0.5, 2.0, 3).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        state = BatchNormState(mean=rng.standard_normal(3).astype(np.float32),
                               var=rng.uniform(0.5, 2.0, 3).astype(np.float32))
        return {
            "batchnorm2d": (lambda out: batchnorm2d(x, gamma, beta, state, mode="eval", out=out), x),
            "relu": (lambda out: relu(x, out=out), x),
            "add": (lambda out: add(other, x, out=out), x),
        }

    @pytest.mark.parametrize("op", ["batchnorm2d", "relu", "add"])
    def test_writes_the_allocating_bits_into_out(self, op):
        run, x = self.ops(np.random.default_rng(5))[op]
        want = run(None).data
        target = x.data
        got = run(target)
        assert got.data is target and np.array_equal(target, want)

    @pytest.mark.parametrize("op", ["batchnorm2d", "relu", "add"])
    def test_refused_while_a_tape_records(self, op):
        run, x = self.ops(np.random.default_rng(5))[op]
        x.requires_grad = True
        before = x.data.copy()
        with Tape(), pytest.raises(ValueError, match=f"{op} cannot write in place"):
            run(x.data)
        assert np.array_equal(x.data, before)

    @staticmethod
    def taped_batchnorm(rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, 3).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        return lambda: batchnorm2d(x, gamma, beta, BatchNormState()), [x, gamma, beta]

    @pytest.mark.parametrize("consumer", ["relu", "add"])
    @pytest.mark.parametrize("over", ["relu", "max_pool", "consumed_batchnorm2d"])
    def test_refused_over_an_output_a_recorded_vjp_may_read(self, over, consumer):
        # relu's and max pool's vjps read their output; a batch-norm output
        # that a later record took as input may be read by that record's vjp
        bn, _ = self.taped_batchnorm(np.random.default_rng(6))
        with Tape():
            h = bn()
            if over == "relu":
                h = relu(h)
            elif over == "max_pool":
                h = pool2d(h, "max", kernel=(2, 2))
            else:
                relu(h)
            before = h.data.copy()
            with pytest.raises(ValueError, match=f"{consumer} cannot write in place"):
                if consumer == "relu":
                    relu(h, out=h.data)
                else:
                    add(Tensor(np.ones_like(h.data)), h, out=h.data)
        assert np.array_equal(h.data, before)

    def test_batchnorm_refuses_out_over_the_last_record(self):
        # its own vjp reads x, so even an overwritable producer is refused
        bn, params = self.taped_batchnorm(np.random.default_rng(6))
        with Tape():
            h = bn()
            before = h.data.copy()
            with pytest.raises(ValueError, match="batchnorm2d cannot write in place"):
                batchnorm2d(h, params[1], params[2], BatchNormState(), out=h.data)
        assert np.array_equal(h.data, before)

    def test_taped_relu_over_batchnorm_gives_the_allocating_gradients(self):
        grads = []
        for in_place in (False, True):
            bn, params = self.taped_batchnorm(np.random.default_rng(6))
            with Tape():
                h = bn()
                r = relu(h, out=h.data if in_place else None)
                loss = sum_all(mul(r, r))
            assert (r.data is h.data) == in_place
            backward(loss)
            grads.append([p.grad for p in params])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_out_must_match_the_input(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"relu out= must be a float32 array of shape \(2, 3\)"):
            relu(x, out=np.empty((3, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64 \\(2, 3\\)"):
            relu(x, out=np.empty((2, 3)))


class TestBatchNorm:
    def test_constant_input_zero_output(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0))
        state = BatchNormState()
        out = batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_affine_definition(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 3, 3))
        eps = 1e-5
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        want = 2.0 * (x - mu[None, :, None, None]) / np.sqrt(var[None, :, None, None] + eps) + 1.0
        out = batchnorm2d(t64(x), t64(2 * np.ones(2)), t64(np.ones(2)), BatchNormState(), eps=eps)
        np.testing.assert_allclose(out.data, want, rtol=1e-10)

    def test_moment_check(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((2, 3, 4, 4)) * 3 + 1)
        gamma = t64(np.array([1.0, 2.0, 0.5]))
        beta = t64(np.array([0.0, 1.0, -1.0]))
        out = batchnorm2d(x, gamma, beta, BatchNormState()).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), beta.data, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), gamma.data ** 2, atol=1e-4)

    def test_eval_without_stats_errors(self):
        x = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="running statistics"):
            batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState(), mode="eval")

    @pytest.mark.parametrize("channels", [1, 4])
    def test_running_stats_length_must_match_channels(self, channels):
        x = Tensor(np.ones((1, 3, 2, 2)))
        state = BatchNormState.identity(channels)
        with pytest.raises(ValueError, match=rf"running statistics shapes \({channels},\)/"
                                             rf"\({channels},\) do not match 3 channels"):
            batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, mode="eval")

    def test_eval_uses_running_stats(self):
        state = BatchNormState.identity(2)
        x = Tensor(np.ones((1, 2, 2, 2)))
        out = batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, eps=1e-5, mode="eval")
        np.testing.assert_allclose(out.data, 1.0 / np.sqrt(1 + 1e-5), rtol=1e-6)


    def test_eval_scale_shift_float32(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32) * 2 + 0.5
        gamma = rng.uniform(0.5, 1.5, 4).astype(np.float32)
        beta = rng.standard_normal(4).astype(np.float32)
        state = BatchNormState(mean=rng.standard_normal(4).astype(np.float32),
                               var=rng.uniform(0.2, 3.0, 4).astype(np.float32))
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), state, eps=1e-5, mode="eval")
        assert out.dtype == np.float32
        c = (slice(None), None, None)
        want = gamma[c] * (x - state.mean[c]) / np.sqrt(state.var[c] + 1e-5) + beta[c]
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)


    def test_train_float32_matches_float64_definition(self):
        # conv-like magnitudes; the bound is a few float32 roundings of outputs up to ~10
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((8, 64, 32, 16)) * 3 + 2).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, 64).astype(np.float32)
        beta = rng.standard_normal(64).astype(np.float32)
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), BatchNormState())
        assert out.dtype == np.float32
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=(0, 2, 3))
        var = x64.var(axis=(0, 2, 3))
        c = (slice(None), None, None)
        want = gamma[c] * (x64 - mu[c]) / np.sqrt(var[c] + 1e-5) + beta[c]
        np.testing.assert_allclose(out.data, want, rtol=0, atol=2e-6)


class TestElementwise:
    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_ln3(self):
        out = sigmoid(t64([np.log(3.0)]))
        np.testing.assert_allclose(out.data, 0.75, rtol=1e-12)

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(Tensor([-1e4, 1e4])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


class TestPool:
    def test_global_avg_constant(self):
        out = pool2d(Tensor(np.full((1, 2, 3, 3), 4.25)), "global_avg")
        assert out.shape == (1, 2, 1, 1)
        np.testing.assert_allclose(out.data, 4.25)

    def test_max_pool(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = pool2d(x, "max", kernel=(2, 2), stride=(2, 2))
        assert out.data.reshape(-1)[0] == 4.0
        # a kernel of one along an axis pools along the other only
        np.testing.assert_array_equal(pool2d(x, "max", kernel=(1, 2)).data[0, 0], [[2.0], [4.0]])
        np.testing.assert_array_equal(pool2d(x, "max", kernel=(2, 1)).data[0, 0], [[3.0, 4.0]])

    def test_avg_pool(self):
        # the average pool is the receptive-field probes' oracle, not an engine kind
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        with pytest.raises(ValueError, match="unknown pool kind 'avg'"):
            pool2d(x, "avg", kernel=(2, 2), stride=(2, 2))
        assert avg_pool2d(x, (2, 2), (2, 2)).data.reshape(-1)[0] == 2.5

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pool2d(Tensor(np.zeros((1, 1, 2, 2))), "max", kernel=(3, 3))

    @pytest.mark.parametrize("kind", ["max"])
    @pytest.mark.parametrize("kernel,stride,message", [
        ((0, 2), None, r"pool kernel must be >= 1, got \(0, 2\)"),
        ((2, 2), (0, 1), r"pool strides must be >= 1, got \(0, 1\)"),
    ], ids=["kernel", "stride"])
    def test_kernel_and_stride_below_one_rejected(self, kind, kernel, stride, message):
        with pytest.raises(ValueError, match=message):
            pool2d(Tensor(np.zeros((1, 1, 4, 4))), kind, kernel=kernel, stride=stride)

    @pytest.mark.parametrize("rows,kernel,stride,gout,want", [
        # two 2x2/2 windows, each [[1, 1], [1, 0]]
        ([[1, 1, 1, 1], [1, 0, 1, 0]], (2, 2), (2, 2), [[2, 3]],
         [[2, 0, 3, 0], [0, 0, 0, 0]]),
        # two overlapping 2x2/1 windows, [[1, 1], [1, 0]] and [[1, 1], [0, 1]]
        ([[1, 1, 1], [1, 0, 1]], (2, 2), (1, 1), [[2, 3]],
         [[2, 3, 0], [0, 0, 0]]),
    ], ids=["2x2_stride2", "2x2_stride1"])
    def test_max_tie_goes_to_first_tap(self, rows, kernel, stride, gout, want):
        x = t64(np.array(rows, dtype=np.float64)[None, None], requires_grad=True)
        with Tape():
            out = pool2d(x, "max", kernel=kernel, stride=stride)
            loss = sum_all(mul(out, t64(np.array(gout, dtype=np.float64)[None, None])))
        backward(loss)
        np.testing.assert_array_equal(out.data[0, 0], np.ones((1, 2)))
        np.testing.assert_array_equal(x.grad[0, 0], want)


class TestLinear:
    def test_identity(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = linear(t64(x), t64(np.eye(3)), t64(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_worked_example(self):
        out = linear(t64([[1.0, 2.0]]), t64([[1.0], [1.0]]), t64([3.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((5, 2))
        out = linear(t64(a), t64(b))
        np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestBCE:
    def test_zero_logits(self):
        z = t64(np.zeros((2, 3)))
        y = t64(np.random.default_rng(5).uniform(size=(2, 3)))
        out = bce_with_logits(z, y)
        np.testing.assert_allclose(out.data, np.log(2.0), rtol=1e-12)

    def test_confident_correct(self):
        out = bce_with_logits(t64([[10.0]]), t64([[1.0]]))
        np.testing.assert_allclose(out.data, np.log1p(np.exp(-10.0)), rtol=1e-10)
        assert abs(out.item() - 4.54e-5) < 1e-6

    def test_symmetric_target_zero_grad(self):
        z = t64([[0.0]], requires_grad=True)
        with Tape():
            loss = bce_with_logits(z, t64([[0.5]]))
        backward(loss)
        np.testing.assert_allclose(z.grad, 0.0, atol=1e-15)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bce_with_logits(Tensor([[0.0]]), Tensor([[1.5]]))

    def test_out_of_range_message_names_the_bad_target(self):
        # in-range targets, the bounds among them, come before the bad one
        with pytest.raises(ValueError) as err:
            bce_with_logits(Tensor(np.zeros((1, 4))), Tensor([[0.0, 0.5, 1.0, 1.5]]))
        assert str(err.value) == "targets must lie in [0, 1], found 1.5"

    def test_nonnegative_and_converges_to_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = t64(rng.standard_normal((3, 4)) * 5)
            y = t64(rng.uniform(size=(3, 4)))
            assert bce_with_logits(z, y).item() >= 0.0
        big = bce_with_logits(t64([[30.0, -30.0]]), t64([[1.0, 0.0]]))
        assert big.item() < 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.random.default_rng(7).standard_normal((2, 3)), requires_grad=True)
        with Tape():
            loss = sum_all(x)
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = t64([1.0, -2.0], requires_grad=True)
        with Tape():
            loss = sum_all(mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, -4.0], rtol=1e-12)

    def test_non_scalar_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ValueError, match="tape"):
            backward(Tensor([1.0]))

    def test_accumulation_across_calls(self):
        x = t64([3.0], requires_grad=True)
        for _ in range(2):
            with Tape():
                loss = sum_all(mul(x, x))
            backward(loss)
        np.testing.assert_allclose(x.grad, [12.0])
        x.zero_grad()
        assert x.grad is None

    def test_tape_topological_order(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            z = add(y, x)
            loss = sum_all(z)
        positions = {id(r.output): r.index for r in tape.records}
        for rec in tape.records:
            for tin in rec.inputs:
                if id(tin) in positions:
                    assert positions[id(tin)] < rec.index
        assert loss._record.index == len(tape) - 1

    def test_diamond_graph_visits_each_node_once(self):
        # d(x*x + x*x)/dx = 4x; double-counting a shared node would give 8x
        x = t64([2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
            loss = sum_all(add(y, y))
        backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])  # d(2*x^2)/dx = 4x = 8

    def test_backward_frees_tape_without_gc(self):
        # with the cyclic collector off, only reference counting can free the
        # tape and the activations it recorded
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((2, 2, 6, 6)))
        w = t64(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        gamma = t64(np.ones(3), requires_grad=True)
        beta = t64(np.zeros(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                h = conv2d(x, w, padding=(1, 1))
                h = relu(batchnorm2d(h, gamma, beta, BatchNormState()))
                loss = sum_all(mul(h, h))
            tape_ref = weakref.ref(tape)
            activations = [weakref.ref(r.output.data) for r in tape.records[:-1]]
            del tape, h
            backward(loss)
            assert tape_ref() is None
            assert len(activations) == 4 and all(ref() is None for ref in activations)
        finally:
            gc.enable()
        assert loss._record is None
        assert w.grad is not None and gamma.grad is not None

    @pytest.mark.parametrize("chain", ["conv_relu_max_pool", "conv_batchnorm_relu"])
    def test_taped_forward_retains_only_its_outputs(self, chain):
        # conv, relu and max pool keep no padded copy, mask or argmax on the
        # tape, and train-mode batch norm keeps no normalized input
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 8, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 8, 3, 3)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        chains = {
            "conv_relu_max_pool": (
                lambda: pool2d(relu(conv2d(x, w, padding=(1, 1))), "max", kernel=(2, 2)),
                ["conv2d", "relu", "max_pool"], 294_912),
            "conv_batchnorm_relu": (
                lambda: relu(batchnorm2d(conv2d(x, w, padding=(1, 1)), gamma, beta, BatchNormState())),
                ["conv2d", "batchnorm2d", "relu"], 393_216),
        }
        forward, names, want_outputs = chains[chain]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                forward()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        outputs = sum(rec.output.data.nbytes for rec in tape.records)
        assert [rec.name for rec in tape.records] == names
        assert outputs == want_outputs
        assert retained <= 1.05 * outputs, f"retained {retained} bytes for {outputs} of outputs"

    def test_eval_forward_peak_is_two_activations_and_a_band(self, monkeypatch):
        # fa model, batch 4 x 64 bins x 64 frames: in1 and in2 give 8 x 32 x 32
        # float32 per sample, the largest consecutive pair; with bands of
        # 32 KiB no fa copy, full column matrix or batch-norm/relu copy is live
        model = build_model(ModelConfig(
            template=TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(8, 16),
                                    pool_stages=1),
            frequency_aware=True, n_tags=3, input_bins=64))
        monkeypatch.setattr(ad, "_BAND_BYTES", 32 << 10)
        batch = 4 * 64 * 64 * 4
        activation = 4 * 8 * 32 * 32 * 4
        tracemalloc.start()
        try:
            x = Tensor(np.random.default_rng(6).standard_normal((4, 1, 64, 64)).astype(np.float32))
            model.forward(x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.05 * (batch + 2 * activation + ad._BAND_BYTES)
        assert peak <= bound, f"traced peak {peak} bytes, bound {bound:.0f}"

    def test_eval_mode_records_nothing(self):
        x = t64([1.0], requires_grad=True)
        y = mul(x, x)  # no active tape
        assert y._record is None and not y.requires_grad

    def test_nested_tape_records_while_open_then_outer_resumes(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as outer:
            a = mul(x, x)
            with Tape() as inner:
                b = sum_all(x)
            c = add(a, x)
        assert [r.name for r in outer.records] == ["mul", "add"]
        assert [r.name for r in inner.records] == ["sum_all"]
        assert a._record.tape is outer and b._record.tape is inner and c._record.tape is outer
        assert mul(x, x)._record is None

    def test_tape_exited_out_of_order_rejected(self):
        x = t64([1.0], requires_grad=True)
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="tape exited out of order"):
            outer.__exit__(None, None, None)
        assert mul(x, x)._record.tape is inner
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert mul(x, x)._record is None


class TestGradcheck:
    """Finite-difference checks for every differentiable op (64-bit)."""

    def check(self, make_loss, params, tol=1e-4, step=1e-5):
        for p in params:
            p.zero_grad()
        with Tape():
            loss = make_loss()
        backward(loss)
        numeric = finite_difference_grads(lambda: float(make_loss().data), params, step=step)
        for p, num in zip(params, numeric):
            err = max_relative_error(p.grad, num)
            assert err < tol, f"gradient mismatch: rel err {err:.2e}"

    def test_conv2d_grads(self):
        rng = np.random.default_rng(10)
        x = t64(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = t64(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = t64(rng.standard_normal(3), requires_grad=True)
        tgt = t64(rng.uniform(size=(2, 3, 3, 3)))

        def loss():
            out = conv2d(x, w, b, stride=(2, 2), padding=(1, 1))
            return bce_with_logits(out, tgt)

        self.check(loss, [x, w, b])

    @pytest.mark.parametrize("geometry", MODEL_GEOMETRIES)
    def test_conv2d_grads_model_geometries(self, geometry):
        xs, ws, stride, padding = MODEL_GEOMETRIES[geometry]
        rng = np.random.default_rng(15)
        x = t64(rng.standard_normal(xs), requires_grad=True)
        w = t64(rng.standard_normal(ws) * 0.5, requires_grad=True)
        b = t64(rng.standard_normal(ws[0]), requires_grad=True)
        shape = conv2d(x, w, b, stride=stride, padding=padding).shape
        tgt = t64(rng.uniform(size=shape))

        def loss():
            return bce_with_logits(conv2d(x, w, b, stride=stride, padding=padding), tgt)

        self.check(loss, [x, w, b])

    @pytest.mark.parametrize("geometry", PADDING_EDGE_GEOMETRIES)
    def test_conv2d_grads_padding_edges(self, geometry):
        xs, ws, stride, padding = PADDING_EDGE_GEOMETRIES[geometry]
        rng = np.random.default_rng(17)
        x = t64(rng.standard_normal(xs), requires_grad=True)
        w = t64(rng.standard_normal(ws) * 0.5, requires_grad=True)
        b = t64(rng.standard_normal(ws[0]), requires_grad=True)
        shape = conv2d(x, w, b, stride=stride, padding=padding).shape
        tgt = t64(rng.uniform(size=shape))

        def loss():
            return bce_with_logits(conv2d(x, w, b, stride=stride, padding=padding), tgt)

        self.check(loss, [x, w, b])

    def test_batchnorm_grads(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = t64(rng.standard_normal(2), requires_grad=True)

        def loss():
            state = BatchNormState()
            out = batchnorm2d(x, gamma, beta, state, eps=1e-3)
            return sum_all(mul(out, out))

        self.check(loss, [x, gamma, beta])

    def test_batchnorm_eval_grads(self):
        # eval mode treats the running statistics as constants
        rng = np.random.default_rng(18)
        x = t64(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = t64(rng.standard_normal(2), requires_grad=True)
        state = BatchNormState(mean=rng.standard_normal(2), var=rng.uniform(0.5, 2.0, size=2))

        def loss():
            out = batchnorm2d(x, gamma, beta, state, eps=1e-3, mode="eval")
            return sum_all(mul(out, out))

        self.check(loss, [x, gamma, beta])

    def test_pool_grads(self):
        rng = np.random.default_rng(12)
        x = t64(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        for pool in (lambda x: pool2d(x, "max", kernel=(2, 2), stride=(2, 2)),
                     lambda x: avg_pool2d(x, (2, 2), (2, 2))):
            def loss(pool=pool):
                out = pool(x)
                return sum_all(mul(out, out))
            self.check(loss, [x])

    @pytest.mark.parametrize("kernel,stride", [((3, 3), (1, 1)), ((3, 2), (2, 1))])
    def test_pool_grads_overlapping_windows(self, kernel, stride):
        # an input cell in several windows sums one gradient per window that holds it
        rng = np.random.default_rng(16)
        x = t64(rng.standard_normal((2, 2, 7, 6)), requires_grad=True)
        for pool in (lambda x: pool2d(x, "max", kernel=kernel, stride=stride),
                     lambda x: avg_pool2d(x, kernel, stride)):
            def loss(pool=pool):
                out = pool(x)
                return sum_all(mul(out, out))
            self.check(loss, [x])

    def test_global_pool_linear_sigmoid_grads(self):
        rng = np.random.default_rng(13)
        x = t64(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = t64(rng.standard_normal((3, 2)), requires_grad=True)
        b = t64(rng.standard_normal(2), requires_grad=True)

        def loss():
            pooled = pool2d(x, "global_avg")
            flat = reshape(pooled, (2, 3))
            out = sigmoid(linear(flat, w, b))
            return sum_all(mul(out, out))

        self.check(loss, [x, w, b])

    def test_relu_grads(self):
        rng = np.random.default_rng(14)
        # keep values away from the kink at 0
        x = t64(np.sign(rng.standard_normal((3, 4))) * rng.uniform(0.5, 2.0, (3, 4)),
                requires_grad=True)

        def loss():
            return sum_all(mul(relu(x), relu(x)))

        self.check(loss, [x])

    def test_composed_networks_many_seeds(self):
        # three few-layer networks, >= 10 seeds total
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = t64(rng.standard_normal((2, 1, 6, 6)), requires_grad=True)
            w1 = t64(rng.standard_normal((2, 1, 3, 3)) * 0.5, requires_grad=True)
            b1 = t64(rng.standard_normal(2) * 0.1, requires_grad=True)
            gamma = t64(rng.uniform(0.8, 1.2, 2), requires_grad=True)
            beta = t64(rng.standard_normal(2) * 0.1, requires_grad=True)
            w2 = t64(rng.standard_normal((2, 3)) * 0.5, requires_grad=True)
            b2 = t64(rng.standard_normal(3) * 0.1, requires_grad=True)
            tgt = t64(rng.uniform(size=(2, 3)))
            params = [x, w1, b1, gamma, beta, w2, b2]

            def loss():
                h = conv2d(x, w1, b1, padding=(1, 1))
                h = batchnorm2d(h, gamma, beta, BatchNormState(), eps=1e-3)
                h = relu(h)
                h = avg_pool2d(h, (2, 2), (2, 2))
                h = pool2d(h, "global_avg")
                h = reshape(h, (2, 2))
                z = linear(h, w2, b2)
                return bce_with_logits(z, tgt)

            self.check(loss, params)


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        a = conv2d(Tensor(x.copy()), Tensor(w.copy()), padding=(1, 1)).data
        b = conv2d(Tensor(x.copy()), Tensor(w.copy()), padding=(1, 1)).data
        assert np.array_equal(a, b)


class TestAdam:
    def test_zero_grad_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros(2)}, state, lr=1e-3)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        for g in (0.37, -2.2, 100.0):
            p = t64([0.0], requires_grad=True)
            state = AdamState()
            adam_step({"p": p}, {"p": np.array([g])}, state, lr=1e-2)
            assert abs(p.data[0] - (-1e-2 * np.sign(g))) < 1e-6 * 1e-2

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(21)
        init = rng.standard_normal(4)
        pa, pb = t64(init.copy(), True), t64(init.copy(), True)
        state = AdamState()
        for step in range(20):
            g = rng.standard_normal(4)
            adam_step({"a": pa, "b": pb}, {"a": g.copy(), "b": g.copy()}, state, lr=1e-3)
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            adam_step({}, {}, AdamState(), lr=0.0)
