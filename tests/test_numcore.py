"""Unit tests for the Wirtinger derivatives, pair histogram and RNG
streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlap_lab.numcore import (PairHistogram, RngStream, _mixed_second,
                                 wirtinger_mixed_derivative)

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
        raw = _mixed_second(f, z1, z2, 0.1)
        rich = wirtinger_mixed_derivative(f, z1, z2, h=0.1)
        assert abs(rich - exact) < abs(raw - exact) / 3.0


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
        assert h.n_matrices == 1

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
