"""Unit tests for the Wirtinger derivatives, pair histogram and RNG
streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlap_lab.numcore import (STENCIL_H, PairHistogram, RngStream,
                                 _mixed_second, wirtinger_mixed_derivative)

class TestWirtinger:
    def test_pure_holomorphic_pair(self):
        # f = zbar1 * z2 has mixed derivative exactly 1
        d = wirtinger_mixed_derivative(
            lambda z1, z2: np.conj(z1) * z2, 0.3 + 0.1j, -0.2 + 0.4j)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_annihilates_wrong_sector(self):
        # f = z1 * zbar2 is killed by d/dzbar1 d/dz2
        d = wirtinger_mixed_derivative(
            lambda z1, z2: z1 * np.conj(z2), 0.3 + 0.1j, -0.2 + 0.4j)
        assert abs(d) < 1e-9

    def test_convention_sign(self):
        # f = |z1|^2 |z2|^2: derivative = z1 * zbar2
        z1, z2 = 0.7 - 0.2j, 0.4 + 0.9j
        d = wirtinger_mixed_derivative(
            lambda a, b: abs(a) ** 2 * abs(b) ** 2, z1, z2)
        assert d == pytest.approx(z1 * np.conj(z2), abs=1e-8)

    def test_richardson_improves_order(self):
        def f(a, b):
            u = np.conj(a) * b + 0.1 * np.conj(a) ** 3 * b ** 2
            return np.exp(u)

        z1, z2 = 0.5 + 0.3j, -0.1 + 0.2j
        a = np.conj(z1)
        du_dz2 = a + 0.2 * a ** 3 * z2
        du_da = z2 + 0.3 * a ** 2 * z2 ** 2
        exact = (1.0 + 0.6 * a ** 2 * z2 + du_dz2 * du_da) * f(z1, z2)
        # at STENCIL_H rounding hides the h^2 error, so the order is seen
        # at h = 0.1; the derivative is that combination at STENCIL_H
        raw = _mixed_second(f, z1, z2, 0.1)
        rich = (4.0 * _mixed_second(f, z1, z2, 0.05) - raw) / 3.0
        assert abs(rich - exact) < abs(raw - exact) / 3.0
        assert wirtinger_mixed_derivative(f, z1, z2) == (
            4.0 * _mixed_second(f, z1, z2, 0.5 * STENCIL_H)
            - _mixed_second(f, z1, z2, STENCIL_H)) / 3.0


class TestPairHistogram:
    def edges(self):
        return np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 3)

    def test_accumulate_counts_and_weights(self):
        h = PairHistogram(*self.edges())
        h.accumulate([0.1, 0.1, 0.9], [-0.5, 0.5, 0.5],
                     [1.0 + 1j, 2.0, -1j])
        assert h.count.sum() == 3
        assert h.weight[0, 0] == 1.0 + 1j
        assert h.weight[0, 1] == 2.0
        assert h.weight[3, 1] == -1j

    def test_matches_histogram2d_bitwise(self):
        # interior edges, right edges, points outside and NaN, accumulated
        # twice so that the sums also run on top of nonzero bins
        e1, e2 = np.linspace(-1.0, 3.0, 9), np.array([-2.0, -0.3, 0.1, 2.5])
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1.5, 3.5, 600), rng.uniform(-2.5, 3.0, 600)
        x[:60], y[60:120] = rng.choice(e1, 60), rng.choice(e2, 60)
        x[120:130], y[130:140] = e1[-1], e2[-1]
        x[140:145], y[145:150] = np.nan, np.nan
        x[150:155], y[155:160] = -np.inf, np.inf
        w = rng.normal(size=600) + 1j * rng.normal(size=600)
        h = PairHistogram(e1, e2)
        weight = np.zeros(h.weight.shape, complex)
        count = np.zeros(h.count.shape, np.int64)
        for _ in range(2):
            h.accumulate(x, y, w)
            re, im, cnt = (np.histogram2d(x, y, bins=(e1, e2), weights=v)[0]
                           for v in (w.real, w.imag, None))
            weight += re + 1j * im
            count += cnt.astype(np.int64)
        assert np.array_equal(h.weight.view(np.uint64),
                              weight.view(np.uint64))
        assert h.count.dtype == np.int64
        assert np.array_equal(h.count, count)
        assert 0 < count.sum() < 2 * 600

    def test_bin_areas(self):
        h = PairHistogram(*self.edges())
        assert np.allclose(h.bin_areas(), 0.25 * 1.0)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            PairHistogram([0.0, 0.0, 1.0], [0.0, 1.0])


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        c = RngStream(43, 0).generator().standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_distinct_from_parent(self):
        s = RngStream(1, 5)
        sub = s.substream(1)
        assert sub != s
        a = s.generator().standard_normal(8)
        b = sub.generator().standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("field", ["seed", "stream", "sub"])
    @pytest.mark.parametrize("value", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_outside_64_bits_refused(self, field, value):
        # seed -1 drew what seed 2**64 - 1 draws, and 2**64 + 5 what 5 draws
        with pytest.raises(ValueError, match=f"^{field} must lie in"):
            RngStream(**{"seed": 3, "stream": 4, "sub": 0, field: value})

    @pytest.mark.parametrize("field", ["seed", "stream", "sub"])
    @pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), "1", None])
    def test_non_integer_refused(self, field, value):
        # RngStream(1.5) drew exactly what RngStream(1) draws
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            RngStream(**{"seed": 3, "stream": 4, "sub": 0, field: value})

    def test_non_integer_substream_refused(self):
        with pytest.raises(TypeError, match="^sub must be an integer"):
            RngStream(3, 4).substream(1.5)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint64])
    def test_numpy_integers_accepted(self, kind):
        stream = RngStream(kind(3), kind(4), kind(1))
        assert stream == RngStream(3, 4, 1)
        assert all(type(v) is int
                   for v in (stream.seed, stream.stream, stream.sub))
        assert np.array_equal(
            stream.generator().standard_normal(8),
            RngStream(3, 4, 1).generator().standard_normal(8))

    @pytest.mark.parametrize("field", ["seed", "stream", "sub"])
    def test_64_bit_extremes_accepted(self, field):
        for value in (0, 2 ** 64 - 1):
            stream = RngStream(**{"seed": 3, "stream": 4, "sub": 0,
                                  field: value})
            assert 0 <= stream.generator().random() < 1

    def test_substream_zero_is_the_stream(self):
        a = RngStream(3, 4).generator().standard_normal(8)
        b = RngStream(3, 4).substream(0).generator().standard_normal(8)
        assert np.array_equal(a, b)

    @given(st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1)),
           st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1)))
    @example((0, 1), (1, 0))
    @example((1, 0), (0, 1 << 20))
    @settings(max_examples=200, deadline=None)
    def test_stream_substream_keys_injective(self, a, b):
        # (stream, substream) -> generator state is injective: a rejected
        # draw's redraw never reuses another sample's stream.
        def state(stream, sub):
            rs = RngStream(11, stream)
            if sub:
                rs = rs.substream(sub)
            s = rs.generator().bit_generator.state["state"]
            return tuple(s["key"]) + tuple(s["counter"])

        if a != b:
            assert state(*a) != state(*b)
