"""Tests for the orthogonal filter bank.

The filter coefficients are cross-checked against an independent derivation
by spectral factorization (roots of the maximally-flat half-band polynomial),
and the transform against direct energy/round-trip oracles.
"""

from __future__ import annotations

from dataclasses import fields
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from faultwave import (
    DecompositionTree,
    DegenerateInputError,
    ShapeError,
    Trace,
    detail_series,
    dwt_decompose,
    dwt_reconstruct,
    select_channel,
    wavelet_energy_index,
)
from faultwave.dwt import (DB4_HIGHPASS, DB4_LOWPASS, FILTER_LEN, _alignment_shift,
                           _first_wrapped, _support_length, boundary_artifact_mask,
                           check_length, quadrature_mirror, window_energies, window_groups)
from conftest import FAULT_ONSET_SAMPLE, assert_bitwise_equal, make_record, rng_trace


def spectral_factorization_lowpass(vanishing_moments: int = 4) -> np.ndarray:
    """Independent derivation of the orthonormal lowpass filter.

    Builds sum_k C(N-1+k, k) y^k, maps each root y to its stable z-plane
    pair via z^2 - (2 - 4y) z + 1 = 0, and expands
    c * (1+z^-1)^N * prod(1 - z_i z^-1) normalized to sum sqrt(2).
    """
    n = vanishing_moments
    poly_y = [comb(n - 1 + k, k) for k in range(n)]
    y_roots = np.roots(poly_y[::-1])
    taps = np.array([1.0 + 0j])
    for _ in range(n):
        taps = np.convolve(taps, [1.0, 1.0])
    for y in y_roots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z = (b + disc) / 2.0
        if abs(z) > 1.0:
            z = (b - disc) / 2.0
        taps = np.convolve(taps, [1.0, -z])
    taps = np.real(taps)
    return taps * sqrt(2.0) / taps.sum()


class TestFilterPair:
    def test_matches_spectral_factorization(self):
        derived = spectral_factorization_lowpass()
        np.testing.assert_allclose(DB4_LOWPASS, derived, atol=1e-10)

    def test_sum_is_sqrt2(self):
        assert abs(DB4_LOWPASS.sum() - sqrt(2.0)) < 1e-10

    def test_unit_norm(self):
        assert abs(np.sum(DB4_LOWPASS ** 2) - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_double_shift_orthogonality(self, k):
        h = DB4_LOWPASS
        assert abs(np.dot(h[: -2 * k], h[2 * k :])) < 1e-10

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_vanishing_moments(self, p):
        h = DB4_LOWPASS
        n = np.arange(h.shape[0])
        assert abs(np.sum((-1.0) ** n * n**p * h)) < 1e-8

    def test_highpass_is_quadrature_mirror(self):
        n = np.arange(8)
        np.testing.assert_array_equal(DB4_HIGHPASS, (-1.0) ** n * DB4_LOWPASS[::-1])
        assert np.array_equal(DB4_HIGHPASS, quadrature_mirror(DB4_LOWPASS))


class TestDecompose:
    def test_zero_trace_gives_zero_coefficients(self):
        tree = dwt_decompose(Trace(np.zeros(64), 2000.0), 3)
        assert all(np.all(d == 0) for d in tree.details)
        assert np.all(tree.approx == 0)

    def test_constant_trace_level_one(self):
        c = 2.5
        tree = dwt_decompose(Trace(np.full(64, c), 2000.0), 1)
        np.testing.assert_allclose(tree.details[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(tree.approx, c * sqrt(2.0), atol=1e-12)

    def test_energy_conservation_random_trace(self):
        x = rng_trace(64, seed=3)
        tree = dwt_decompose(Trace(x, 2000.0), 3)
        total = sum(float(np.sum(d**2)) for d in tree.details) + float(
            np.sum(tree.approx**2)
        )
        assert abs(total - np.sum(x**2)) <= 1e-9 * np.sum(x**2)

    def test_coefficient_counts_are_nonredundant(self):
        tree = dwt_decompose(Trace(rng_trace(256), 2000.0), 4)
        count = sum(d.shape[0] for d in tree.details) + tree.approx.shape[0]
        assert count == 256

    def test_linearity(self):
        x, y = rng_trace(128, 1), rng_trace(128, 2)
        a, b = 1.7, -0.4
        combined = dwt_decompose(Trace(a * x + b * y, 2000.0), 2)
        tx = dwt_decompose(Trace(x, 2000.0), 2)
        ty = dwt_decompose(Trace(y, 2000.0), 2)
        for d_c, d_x, d_y in zip(combined.details, tx.details, ty.details):
            np.testing.assert_allclose(d_c, a * d_x + b * d_y, atol=1e-10)
        np.testing.assert_allclose(combined.approx, a * tx.approx + b * ty.approx, atol=1e-10)

    def test_shift_by_two_covariance_level_one(self):
        x = rng_trace(128, 5)
        shifted = np.roll(x, 2)
        d_orig = dwt_decompose(Trace(x, 2000.0), 1).details[0]
        d_shift = dwt_decompose(Trace(shifted, 2000.0), 1).details[0]
        np.testing.assert_allclose(d_shift, np.roll(d_orig, 1), atol=1e-12)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            dwt_decompose(Trace(np.zeros(100), 2000.0), 3)

    def test_level_beyond_the_length_rejected_without_computing_2_to_the_level(self):
        with pytest.raises(ShapeError, match="divisible"):
            check_length(400, 10**12)

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError, match="shorter"):
            dwt_decompose(Trace(np.zeros(4), 2000.0), 1)

    def test_zero_levels_rejected(self):
        with pytest.raises(ShapeError, match="^levels must be >= 1, got 0$"):
            dwt_decompose(Trace(np.zeros(64), 2000.0), 0)


class TestTree:
    def test_a_tree_is_its_coefficients(self):
        assert [f.name for f in fields(DecompositionTree)] == ["details", "approx"]

    def test_detail_series_and_reconstruction_are_arrays_on_the_record_axis(self):
        x = rng_trace(64)
        tree = dwt_decompose(Trace(x, 2000.0), 3)
        for level in (1, 2, 3):
            series = detail_series(tree, level)
            assert type(series) is np.ndarray and series.shape == x.shape
        back = dwt_reconstruct(tree)
        assert type(back) is np.ndarray and back.shape == x.shape


class TestReconstruct:
    def test_round_trip_random_traces(self):
        for seed in range(5):
            x = rng_trace(2048, seed)
            tree = dwt_decompose(Trace(x, 2000.0), 5)
            back = dwt_reconstruct(tree)
            assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    def test_zero_tree_reconstructs_zero(self):
        tree = dwt_decompose(Trace(np.zeros(64), 2000.0), 2)
        assert np.all(dwt_reconstruct(tree) == 0)

    def test_single_detail_coefficient_has_unit_energy(self):
        tree = dwt_decompose(Trace(np.zeros(64), 2000.0), 1)
        tree.details[0][10] = 1.0
        energy = np.sum(dwt_reconstruct(tree) ** 2)
        assert abs(energy - 1.0) < 1e-10

    def test_inconsistent_lengths_rejected(self):
        tree = dwt_decompose(Trace(rng_trace(64), 2000.0), 2)
        tree.details[0] = tree.details[0][:-1]
        with pytest.raises(ShapeError):
            dwt_reconstruct(tree)
        with pytest.raises(ShapeError, match="^level-2 detail has 3 entries, expected 4$"):
            dwt_reconstruct(DecompositionTree([np.zeros(8), np.zeros(3)], np.zeros(4)))

    def test_approximation_of_the_wrong_size_rejected(self):
        tree = dwt_decompose(Trace(rng_trace(64), 2000.0), 2)
        tree.approx = tree.approx[:-1]
        with pytest.raises(ShapeError, match="^approximation has 15 entries, expected 16$"):
            dwt_reconstruct(tree)


class TestDetailSeries:
    def test_clean_sinusoid_has_tiny_level_one_detail(self, baseline_record):
        trace = select_channel(baseline_record, "a")
        series = detail_series(dwt_decompose(trace, 1), 1)
        assert series.shape == (trace.n_samples,)
        assert series.max() < 1e-3

    def test_fault_spike_lands_near_onset(self, ag_record):
        trace = select_channel(ag_record, "a")
        series = detail_series(dwt_decompose(trace, 1), 1)
        usable = ~boundary_artifact_mask(trace.n_samples, 1)
        peak = int(np.argmax(np.where(usable, series, 0.0)))
        assert abs(peak - FAULT_ONSET_SAMPLE) <= 10

    def test_zero_input_zero_series(self):
        series = detail_series(dwt_decompose(Trace(np.zeros(64), 2000.0), 2), 2)
        assert np.all(series == 0)

    def test_level_out_of_range(self):
        tree = dwt_decompose(Trace(np.zeros(64), 2000.0), 2)
        with pytest.raises(ShapeError, match="level"):
            detail_series(tree, 3)

    @pytest.mark.parametrize("f0", [50.0, 49.5])  # 40 and 40.4 samples per cycle
    @pytest.mark.parametrize("n", [400, 4096])
    def test_equals_roll_reference_bitwise(self, n, f0):
        trace = select_channel(make_record("AG", snr_db=20.0, fundamental_hz=f0, seed=2,
                                           duration_s=n / 2000.0), "a")
        for level in range(1, (n & -n).bit_length()):
            tree = dwt_decompose(trace, level)
            assert_bitwise_equal(detail_series(tree, level),
                                 roll_detail_series(tree, level))

    @pytest.mark.parametrize("n, level", [(8, 1), (8, 2), (8, 3), (16, 3), (64, 5), (32, 4)])
    def test_shift_past_the_record_equals_roll_reference_bitwise(self, n, level):
        """Half a support can exceed the record; np.roll wraps the shift."""
        tree = dwt_decompose(Trace(rng_trace(n, level), 2000.0), level)
        assert_bitwise_equal(detail_series(tree, level), roll_detail_series(tree, level))


def roll_detail_series(tree, level: int) -> np.ndarray:
    """Reference: the repeated magnitudes circularly shifted by ``np.roll``."""
    series = np.repeat(np.abs(tree.details[level - 1]), 1 << level)
    return np.roll(series, _alignment_shift(level))


class TestEnergyIndex:
    def test_zero_trace(self):
        assert wavelet_energy_index(Trace(np.zeros(64), 2000.0), 1, (0, 64)) == 0.0

    def test_quadratic_homogeneity(self):
        x = rng_trace(128, 9)
        base = wavelet_energy_index(Trace(x, 2000.0), 1, (20, 100))
        scaled = wavelet_energy_index(Trace(3.0 * x, 2000.0), 1, (20, 100))
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_fault_contrast_exceeds_ten_fold(self, ag_record):
        trace = select_channel(ag_record, "a")
        pre = wavelet_energy_index(trace, 1, (0, 120))
        post = wavelet_energy_index(trace, 1, (FAULT_ONSET_SAMPLE, 400))
        assert post > 10.0 * pre

    def test_empty_span_rejected(self):
        with pytest.raises(DegenerateInputError, match="span"):
            wavelet_energy_index(Trace(np.zeros(64), 2000.0), 1, (10, 10))


class TestProperties:
    """Orthogonality at random valid lengths, levels and scales."""

    @settings(max_examples=60, deadline=None)
    @given(level=st.integers(1, 5), blocks=st.integers(1, 128), seed=st.integers(0, 2**16),
           scale=st.floats(1e-6, 1e6))
    def test_perfect_reconstruction_and_energy_conservation(self, level, blocks, seed, scale):
        n = blocks << level
        assume(n >= FILTER_LEN)
        x = scale * rng_trace(n, seed)
        tree = dwt_decompose(Trace(x, 2000.0), level)
        back = dwt_reconstruct(tree)
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))
        energy = sum(float(np.sum(band**2)) for band in [*tree.details, tree.approx])
        assert abs(energy - float(np.sum(x**2))) <= 1e-9 * float(np.sum(x**2))


def index_analyze_level(a: np.ndarray, h: np.ndarray, h1: np.ndarray):
    """Reference: gather the block through a modulo'd (n/2, FILTER_LEN) index array."""
    n = a.shape[0]
    k = np.arange(n // 2)
    idx = (2 * k[:, None] + np.arange(FILTER_LEN)[None, :]) % n
    block = a[idx]
    return block @ h, block @ h1


class TestAnalyzeLevel:
    """The strided block against the modulo-index gather, bit for bit."""

    @staticmethod
    def assert_pyramids_equal(x: np.ndarray, levels: int):
        tree = dwt_decompose(Trace(x, 2000.0), levels)
        approx = x
        for detail in tree.details:
            approx, expected = index_analyze_level(approx, DB4_LOWPASS, DB4_HIGHPASS)
            assert_bitwise_equal(detail, expected)
        assert_bitwise_equal(tree.approx, approx)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_eight_samples_wrap_more_than_once(self, levels):
        """At N = 8 every level past the first is shorter than the filter."""
        self.assert_pyramids_equal(rng_trace(8, seed=levels), levels)

    @settings(max_examples=60, deadline=None)
    @given(level=st.integers(1, 6), blocks=st.integers(1, 256), seed=st.integers(0, 2**16))
    def test_pyramid_equals_index_reference_bitwise(self, level, blocks, seed):
        n = blocks << level
        assume(n >= FILTER_LEN)
        self.assert_pyramids_equal(rng_trace(n, seed), level)


def loop_boundary_mask(n_samples: int, level: int) -> np.ndarray:
    """Reference: mark each wrapped coefficient's positions one at a time."""
    step = 1 << level
    mask = np.zeros(n_samples, dtype=bool)
    shift = _alignment_shift(level)
    for k in range(max(_first_wrapped(n_samples, level), 0), n_samples // step):
        start = (k * step + shift) % n_samples
        mask[(start + np.arange(step)) % n_samples] = True
    return mask


class TestBoundaryArtifactMask:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_equals_loop_reference_at_every_valid_length(self, level):
        step = 1 << level
        for n in range(-(-FILTER_LEN // step) * step, 4097, step):
            check_length(n, level)
            np.testing.assert_array_equal(boundary_artifact_mask(n, level),
                                          loop_boundary_mask(n, level), err_msg=f"n={n}")


def loop_window_energies(tree, level: int, starts: np.ndarray, width: int) -> np.ndarray:
    """Reference: sum each window's squared coefficients in its own slice."""
    d2 = tree.details[level - 1] ** 2
    step, sup = 1 << level, _support_length(level)
    last = _first_wrapped(2 * tree.details[0].shape[0], level)
    firsts = np.maximum((starts - sup) // step + 1, 0)
    stops = np.maximum(np.minimum(-(-(starts + width) // step), last), firsts)
    return np.array([d2[a:b].sum() for a, b in zip(firsts, stops)]) / width


@st.composite
def window_grids(draw):
    """(level, n, width, hop, from_end): n divisible by 2**level up to 8192."""
    level = draw(st.integers(1, 4))
    n = draw(st.integers(-(-FILTER_LEN >> level), 8192 >> level)) << level
    width = draw(st.integers(2, n))
    hop = draw(st.integers(1, width))
    return level, n, width, hop, draw(st.booleans())


class TestWindowEnergies:
    """The grouped gather against the one-slice-per-window sum, bit for bit."""

    @staticmethod
    def both(level, n, width, hop, from_end, seed=0):
        tree = dwt_decompose(Trace(rng_trace(n, seed), 2000.0), level)
        starts = np.arange(0, n - width + 1, hop)
        if from_end:  # end the last window at the record end, past the last unwrapped coefficient
            starts += (n - width) - starts[-1]
        return window_energies(tree, level, starts, width), loop_window_energies(
            tree, level, starts, width)

    @settings(max_examples=60, deadline=None)
    @given(grid=window_grids(), seed=st.integers(0, 2**16))
    @example(grid=(4, 1024, 2, 1, True), seed=0)
    @example(grid=(3, 8192, 8192, 1, False), seed=1)
    def test_equals_loop_reference_bitwise(self, grid, seed):
        assert_bitwise_equal(*self.both(*grid, seed=seed))

    def test_tail_windows_without_coefficients_are_zero(self):
        got, expected = self.both(4, 1024, 2, 1, True)
        assert np.any(expected == 0.0) and np.any(expected > 0.0)
        np.testing.assert_array_equal(got, expected)

    def test_no_windows(self):
        tree = dwt_decompose(Trace(rng_trace(64), 2000.0), 1)
        got = window_energies(tree, 1, np.arange(0), 8)
        assert got.shape == (0,) and got.dtype == np.float64


class TestPlannedWindowEnergies:
    """Windows on the detectors' grid, summed with a plan from ``window_groups``,
    against the one-slice-per-window sum, bit for bit."""

    @staticmethod
    def both(level, n, width, hop, seed=0):
        tree = dwt_decompose(Trace(rng_trace(n, seed), 2000.0), level)
        starts = np.arange(0, n - width + 1, hop)
        groups = window_groups(n, level, starts, width)
        return window_energies(tree, level, starts, width, groups), loop_window_energies(
            tree, level, starts, width)

    @settings(max_examples=60, deadline=None)
    @given(grid=window_grids(), seed=st.integers(0, 2**16))
    @example(grid=(2, 400, 40, 10, False), seed=0)  # the detectors' 50 Hz window at 2 kHz
    @example(grid=(3, 4096, 41, 10, False), seed=1)  # 48.8 Hz: 41 samples per cycle
    def test_equals_loop_reference_bitwise(self, grid, seed):
        level, n, width, hop, _ = grid
        assert_bitwise_equal(*self.both(level, n, width, hop, seed=seed))

    @pytest.mark.parametrize("level, hop", [(1, 3), (2, 5), (2, 10), (3, 7), (3, 12), (4, 10)])
    @pytest.mark.parametrize("n, width", [(400, 40), (4096, 41), (4096, 40)])
    def test_hop_off_the_coefficient_grid_equals_loop_reference_bitwise(self, level, hop, n,
                                                                        width):
        assert hop % (1 << level) != 0
        assert_bitwise_equal(*self.both(level, n, width, hop, seed=level))

    def test_window_longer_than_the_record_gives_no_windows(self):
        got, expected = self.both(1, 64, 65, 1)
        assert got.shape == expected.shape == (0,)
