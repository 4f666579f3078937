"""Tests for whitening, fixed-point unmixing, and the performance index.

Source-recovery checks brute-force all permutation/sign assignments against
the known sources; the Gaussian contrast constant of the test's negentropy
proxy is re-derived by quadrature.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from faultwave import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    DetectorConfig,
    IcaConfig,
    NumericalError,
    Spans,
    center,
    fastica,
    fit_ica,
    ica_detect,
    performance_index,
    whiten,
)
from faultwave.ica import (RANK_TOLERANCE, RETAIN, _build_template, _phase_slots, _read_template,
                           _symmetric_decorrelation, _trailing_mean, _whitening_model, index_plan)
from faultwave.signal_model import cycle_length
from conftest import FAULT_ONSET_SAMPLE, assert_bitwise_equal, make_record, rng_trace

FS = 2000.0

# E[log cosh(nu)] for nu ~ N(0,1), frozen from high-resolution quadrature.
GAUSSIAN_LOGCOSH_MEAN = 0.374567207491438


def negentropy_proxy(direction: np.ndarray, z: np.ndarray) -> float:
    """J(w) = (E[log cosh(w.z)] - E[log cosh(nu)])**2, the objective of the tanh contrast."""
    return float((np.mean(np.log(np.cosh(direction @ z))) - GAUSSIAN_LOGCOSH_MEAN) ** 2)


def two_sources(n: int = 4000) -> np.ndarray:
    """50 Hz sine plus 120 Hz sawtooth, unit-scale and independent."""
    t = np.arange(n) / FS
    sine = np.sin(2 * np.pi * 50.0 * t)
    saw = 2.0 * ((120.0 * t) % 1.0) - 1.0
    return np.vstack([sine, saw])


def random_mixing(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mixing = rng.uniform(-1.0, 1.0, (2, 2))
    while abs(np.linalg.det(mixing)) < 0.1:
        mixing = rng.uniform(-1.0, 1.0, (2, 2))
    return mixing


def best_assignment_correlation(recovered: np.ndarray, truth: np.ndarray) -> float:
    """Best min-row |correlation| over all permutation/sign assignments."""
    r = truth.shape[0]
    corr = np.corrcoef(np.vstack([recovered, truth]))[:r, r:]
    best = 0.0
    for perm in itertools.permutations(range(r)):
        worst_row = min(abs(corr[i, perm[i]]) for i in range(r))
        best = max(best, worst_row)
    return best


class TestCenter:
    def test_removes_and_returns_offsets(self):
        x = rng_trace(1000, 1).reshape(2, 500) + np.array([[2.0], [-3.0]])
        centered, mean = center(x)
        np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)
        assert mean[0] == pytest.approx(2.0, abs=0.2)
        assert mean[1] == pytest.approx(-3.0, abs=0.2)

    def test_idempotent(self):
        x = np.random.default_rng(2).standard_normal((3, 200))
        once, _ = center(x)
        twice, residual_mean = center(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)
        np.testing.assert_allclose(residual_mean, 0.0, atol=1e-12)


class TestWhiten:
    def test_whitened_covariance_is_identity(self):
        x = np.random.default_rng(3).standard_normal((3, 4000))
        x = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.3], [0.2, 0.0, 0.7]]) @ x
        centered, _ = center(x)
        z, _ = whiten(centered)
        cov = z @ z.T / z.shape[1]
        assert np.max(np.abs(cov - np.eye(z.shape[0]))) <= 1e-8

    def test_rank_deficient_input_reduces_dimension(self):
        row = rng_trace(500, 4)
        x = np.vstack([row, row, row])
        centered, _ = center(x)
        z, model = whiten(centered)
        assert z.shape[0] == 1
        assert model.projection.shape == (1, 3)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            whiten(np.zeros((3, 100)))

    def test_retain_count_caps_components(self):
        x = np.random.default_rng(6).standard_normal((3, 2000))
        centered, _ = center(x)
        z, _ = whiten(centered, retain=2)
        assert z.shape[0] == 2

    @pytest.mark.parametrize("retain", [0.99, 2.0, True])
    def test_retain_that_is_not_an_integer_rejected(self, retain):
        centered, _ = center(np.random.default_rng(7).standard_normal((3, 300)))
        with pytest.raises(ConfigError, match="retain must be an integer"):
            whiten(centered, retain=retain)

    def test_overflowing_covariance_rejected(self):
        x = np.random.default_rng(8).standard_normal((3, 300))
        centered, _ = center(1e200 * x)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflows"):
            whiten(centered)
        # a subnormal record whose whitening map, scaled back to the data, overflows
        with pytest.raises(NumericalError, match="^the whitening map of this subnormal data"):
            whiten(center(1e-310 * x)[0])


class TestFastica:
    def test_two_source_recovery(self):
        sources = two_sources()
        for seed in range(5):
            mixed = random_mixing(100 + seed) @ sources
            model, _ = fit_ica(mixed, seed=seed)
            assert model.converged
            assert best_assignment_correlation(model.sources, sources) >= 0.99

    def test_already_independent_input_yields_signed_permutation(self):
        centered, _ = center(two_sources())
        z, _ = whiten(centered)
        w = fastica(z, seed=3).unmixing
        best = min(
            np.max(np.abs(w - np.array([[s0, 0.0], [0.0, s1]])[:, perm]))
            for perm in ([0, 1], [1, 0])
            for s0 in (1.0, -1.0)
            for s1 in (1.0, -1.0)
        )
        assert best < 0.05

    def test_rows_are_orthonormal(self):
        mixed = random_mixing(42) @ two_sources()
        model, _ = fit_ica(mixed, seed=0)
        gram = model.unmixing @ model.unmixing.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-8

    def test_same_seed_is_bitwise_stable(self):
        centered, _ = center(random_mixing(9) @ two_sources())
        z, _ = whiten(centered)
        w1 = fastica(z, seed=11).unmixing
        w2 = fastica(z, seed=11).unmixing
        assert np.array_equal(w1, w2)

    def test_three_source_recovery_with_full_brute_force(self):
        n = 4000
        t = np.arange(n) / FS
        sources = np.vstack([
            np.sin(2 * np.pi * 50.0 * t),
            2.0 * ((120.0 * t) % 1.0) - 1.0,
            np.sign(np.sin(2 * np.pi * 77.0 * t)),
        ])
        rng = np.random.default_rng(500)
        mixing = rng.uniform(-1.0, 1.0, (3, 3))
        while abs(np.linalg.det(mixing)) < 0.1:
            mixing = rng.uniform(-1.0, 1.0, (3, 3))
        model, _ = fit_ica(mixing @ sources, seed=0)

        # exhaustive r! * 2**r assignments (signs flip correlations wholesale)
        corr = np.corrcoef(np.vstack([model.sources, sources]))[:3, 3:]
        best = 0.0
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                worst_row = min(signs[i] * corr[i, perm[i]] for i in range(3))
                best = max(best, worst_row)
        assert best >= 0.99

    def test_non_convergence_is_reported_not_raised(self):
        mixed = random_mixing(5) @ two_sources()
        centered, _ = center(mixed)
        z, _ = whiten(centered)
        model = fastica(z, max_iter=1, tol=1e-15, seed=0)
        assert not model.converged
        assert model.iterations_used == 1

    def test_non_finite_update_raises(self):
        z = 1e305 * np.random.default_rng(4).standard_normal((2, 300))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="non-finite"):
            fastica(z)

    def test_rank_lost_in_decorrelation_raises(self):
        with pytest.raises(NumericalError, match="lost rank"):
            _symmetric_decorrelation(np.ones((2, 2)))


class TestNegentropyProxy:
    def test_gaussian_logcosh_constant_matches_quadrature(self):
        value, _ = quad(
            lambda x: np.log(np.cosh(x)) * np.exp(-x * x / 2.0) / np.sqrt(2 * np.pi),
            -40.0, 40.0, limit=400,
        )
        assert GAUSSIAN_LOGCOSH_MEAN == pytest.approx(value, abs=1e-10)

    def test_converged_rows_beat_random_directions(self):
        sources = two_sources()
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            mixing = rng.uniform(-1.0, 1.0, (2, 2))
            while abs(np.linalg.det(mixing)) < 0.1:
                mixing = rng.uniform(-1.0, 1.0, (2, 2))
            centered, _ = center(mixing @ sources)
            z, _ = whiten(centered)
            model = fastica(z, seed=seed)
            j_fit = np.median([negentropy_proxy(w, z) for w in model.unmixing])
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            if j_fit >= negentropy_proxy(direction, z):
                wins += 1
        assert wins >= 10  # median over seeds favors the converged rows


class TestPerformanceIndex:
    SPANS = Spans((0, 120), (0, 400))

    def test_values_are_finite_and_nonnegative(self, ag_record):
        pi = performance_index(ag_record, self.SPANS)
        assert np.all(np.isfinite(pi.values))
        assert np.all(pi.values >= 0.0)
        assert pi.values.shape[0] == 400

    def test_default_spans_are_the_resolved_defaults(self, ag_record):
        """No spans and the spans :meth:`Spans.resolve` fills in give one index, bit for bit."""
        default = performance_index(ag_record)
        resolved = performance_index(ag_record, Spans().resolve(ag_record.n_samples))
        assert Spans().resolve(ag_record.n_samples) == self.SPANS
        assert_bitwise_equal(default.values, resolved.values)
        assert_bitwise_equal(default.whitening_eigenvalues, resolved.whitening_eigenvalues)

    def test_no_fault_shows_no_jump(self, baseline_record):
        pi = performance_index(baseline_record, self.SPANS)
        assert pi.values.max() <= 5.0 * np.median(pi.values)

    def test_fault_crossing_lands_near_onset(self):
        record = make_record("AG", snr_db=20.0, seed=1)
        report = ica_detect(record, DetectorConfig(method="ica"),
                            Spans((0, 120), (0, 400)),
                            IcaConfig())
        first = int(np.flatnonzero(report.index_series > report.threshold_used)[0])
        assert abs(first - FAULT_ONSET_SAMPLE) <= 20

    def test_prefault_mean_far_below_peak(self, ag_record):
        pi = performance_index(ag_record, self.SPANS)
        pre = pi.values[:FAULT_ONSET_SAMPLE].mean()
        assert pre <= 0.05 * pi.values.max()

    def test_scaling_record_leaves_crossing_unchanged(self):
        record = make_record("AG", snr_db=20.0, seed=2)
        scaled = type(record)(
            sample_rate_hz=record.sample_rate_hz,
            samples=7.5 * record.samples,
            labels=record.labels,
        )
        spans = Spans((0, 120), (0, 400))
        a = ica_detect(record, DetectorConfig(method="ica"), spans, IcaConfig())
        b = ica_detect(scaled, DetectorConfig(method="ica"), spans, IcaConfig())
        assert a.onset_sample == b.onset_sample

    def test_spans_out_of_order_rejected(self, ag_record):
        with pytest.raises(BoundsError):
            performance_index(ag_record, Spans((200, 320), (0, 400)))

    def test_short_prefault_rejected(self, ag_record):
        with pytest.raises(BoundsError, match="cycles"):
            performance_index(ag_record, Spans((0, 60), (0, 400)))

    def test_zero_prefault_rejected(self):
        record = make_record("NONE")
        zeroed = type(record)(
            sample_rate_hz=record.sample_rate_hz,
            samples=np.concatenate(
                [np.zeros((3, 120)), record.samples[:, 120:]], axis=1
            ),
            labels=record.labels,
        )
        with pytest.raises(DegenerateInputError, match="zero"):
            performance_index(zeroed, Spans((0, 120), (0, 400)))

    def test_fundamental_under_two_samples_per_cycle_rejected(self, ag_record):
        with pytest.raises(ConfigError, match=r"^sample_rate_hz=2000\.0 violates Nyquist for "
                                              "fundamental_hz=1500$"):
            performance_index(ag_record, self.SPANS, config=IcaConfig(fundamental_hz=1500))

    @pytest.mark.parametrize("fundamental_hz", [0.0, -50.0, float("inf"), float("nan")])
    def test_non_positive_or_non_finite_fundamental_rejected(self, fundamental_hz):
        with pytest.raises(ConfigError, match="fundamental_hz must be finite and positive"):
            IcaConfig(fundamental_hz=fundamental_hz)


def gather_read_template(template, i1, f):
    """Reference: four gathers of the template and the Catmull-Rom cubic per sample."""
    period = template.shape[1]
    p0 = template[:, (i1 - 1) % period]
    p1 = template[:, i1]
    p2 = template[:, (i1 + 1) % period]
    p3 = template[:, (i1 + 2) % period]
    return p1 + 0.5 * f * (
        p2 - p0 + f * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3 + f * (3.0 * (p1 - p2) + p3 - p0))
    )


class TestReadTemplate:
    """The per-slot cubic table against the four-gather cubic, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 3), period=st.integers(2, 64),
           detune=st.floats(-0.45, 0.45), anchor=st.integers(0, 500),
           span=st.tuples(st.integers(0, 4096), st.integers(1, 4096)), seed=st.integers(0, 2**16))
    @example(rows=3, period=2, detune=0.3, anchor=7, span=(0, 400), seed=0)
    @example(rows=3, period=3, detune=-0.2, anchor=120, span=(5, 4096), seed=1)
    @example(rows=3, period=40, detune=2000.0 / 49.9987 - 40, anchor=120, span=(0, 4096), seed=2)
    @example(rows=3, period=40, detune=0.0, anchor=120, span=(0, 4096), seed=3)
    def test_equals_gather_reference_bitwise(self, rows, period, detune, anchor, span, seed):
        fs = 2000.0
        fundamental_hz = fs / (period + detune)
        template = rng_trace(rows * period, seed).reshape(rows, period)
        slots = _phase_slots(span[0], span[0] + span[1], anchor, fs, fundamental_hz,
                             period)
        assert_bitwise_equal(_read_template(template, *slots),
                             gather_read_template(template, *slots))

    @settings(max_examples=40, deadline=None)
    @given(period=st.integers(2, 64), fundamental_hz=st.integers(1, 100),
           anchor=st.integers(0, 500), seed=st.integers(0, 2**16))
    def test_integer_samples_per_cycle_is_exact_lookup(self, period, fundamental_hz, anchor,
                                                      seed):
        fs = float(fundamental_hz * period)
        template = rng_trace(3 * period, seed).reshape(3, period)
        samples = np.arange(0, 8 * period + 5)
        slots = _phase_slots(0, samples.shape[0], anchor, fs, fundamental_hz, period)
        assert_bitwise_equal(_read_template(template, *slots),
                             template[:, (samples - anchor) % period])


def gather_trailing_mean(raw, window):
    """Reference: each window sum from two gathers of the zero-led running sum."""
    cumulative = np.concatenate(([0.0], np.cumsum(raw)))
    idx = np.arange(1, raw.shape[0] + 1)
    lo = np.maximum(idx - window, 0)
    return (cumulative[idx] - cumulative[lo]) / (idx - lo)


class TestTrailingMean:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3000), window=st.integers(2, 200), exponent=st.floats(-30, 10),
           seed=st.integers(0, 2**16))
    @example(n=40, window=40, exponent=0.0, seed=0)  # the window covers the whole series
    @example(n=5, window=40, exponent=0.0, seed=1)  # ... and more
    def test_equals_gather_reference_bitwise(self, n, window, exponent, seed):
        raw = 10.0**exponent * rng_trace(n, seed) ** 2
        assert_bitwise_equal(_trailing_mean(raw, window), gather_trailing_mean(raw, window))


class TestPhaseSlots:
    """performance_index computes the slots once and slices them for each span."""

    @settings(max_examples=60, deadline=None)
    @given(period=st.integers(2, 64), detune=st.floats(-0.45, 0.45), anchor=st.integers(0, 500),
           lo=st.integers(0, 4096), cuts=st.tuples(st.integers(0, 4096), st.integers(1, 4096)))
    @example(period=40, detune=2000.0 / 49.9987 - 40, anchor=120, lo=0, cuts=(100, 4000))
    def test_slice_equals_slots_of_the_sub_range(self, period, detune, anchor, lo, cuts):
        fs = 2000.0
        fundamental_hz = fs / (period + detune)
        a, b = sorted((lo + cuts[0], lo + cuts[1]))
        whole = _phase_slots(lo, b + 1, anchor, fs, fundamental_hz, period)
        part = _phase_slots(a, b + 1, anchor, fs, fundamental_hz, period)
        for got, expected in zip(whole, part):
            assert_bitwise_equal(got[a - lo:], expected)

    @pytest.mark.parametrize("f0", [49.5, 50.0, 49.9987])
    @pytest.mark.parametrize("spans", [((0, 120), (0, 400)), ((50, 170), (50, 400)),
                                       ((0, 200), (0, 201))])
    def test_index_equals_per_span_reference_bitwise(self, f0, spans):
        """The index as computed before: slots per span, the whitened matrix
        discarded, and the gather-based trailing mean."""
        record = make_record("AG", snr_db=20.0, fundamental_hz=f0, seed=6)
        (p_lo, p_hi), (a_lo, a_hi) = spans
        period = int(round(FS / f0))
        template = _build_template(
            record.samples, (p_lo, p_hi), index_plan(record.n_samples, FS, f0, Spans(*spans))[4])
        normal = _read_template(
            template, *_phase_slots(a_lo, a_hi, p_hi, FS, f0, period))
        actual = record.samples[:, a_lo:a_hi]
        _, whitening = whiten(center(actual)[0], retain=RETAIN)
        raw = np.sum((whitening.projection @ (normal - actual)) ** 2, axis=0)
        pi = performance_index(record, Spans(*spans), IcaConfig(fundamental_hz=f0))
        assert_bitwise_equal(pi.values, gather_trailing_mean(raw, period))
        assert_bitwise_equal(pi.whitening_eigenvalues, whitening.eigenvalues)


def loop_build_template(samples, calibration, slots, frac, period):
    """Reference: one pair of ``np.bincount`` deposits per template row."""
    lo, hi = calibration
    segment = samples[:, lo:hi]
    right = (slots + 1) % period
    weights = np.bincount(slots, weights=1.0 - frac, minlength=period)
    weights += np.bincount(right, weights=frac, minlength=period)
    template = np.zeros((samples.shape[0], period))
    for row in range(samples.shape[0]):
        template[row] = np.bincount(slots, weights=(1.0 - frac) * segment[row], minlength=period)
        template[row] += np.bincount(right, weights=frac * segment[row], minlength=period)
    return template / weights[None, :]


class TestBuildTemplate:
    """One deposit per neighbor over row-offset slots against one per row, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(period=st.integers(2, 64), detune=st.floats(-0.45, 0.45), lo=st.integers(0, 300),
           cycles=st.floats(2.0, 40.0), exponent=st.floats(-30, 10), seed=st.integers(0, 2**16))
    @example(period=40, detune=0.0, lo=0, cycles=3.0, exponent=0.0, seed=0)  # 50 Hz
    @example(period=40, detune=2000.0 / 49.5 - 40, lo=0, cycles=3.0, exponent=0.0, seed=1)
    def test_equals_per_row_reference_bitwise(self, period, detune, lo, cycles, exponent, seed):
        fs = 2000.0
        fundamental_hz = fs / (period + detune)
        assume(fs > 2 * fundamental_hz)  # cycle_length's Nyquist rule
        hi = lo + int(np.ceil(cycles * (period + detune)))
        samples = 10.0**exponent * rng_trace(3 * (hi + 5), seed).reshape(3, hi + 5)
        slots, frac = _phase_slots(lo, hi, hi, fs, fundamental_hz, period)
        deposits = index_plan(hi + 5, fs, fundamental_hz, Spans((lo, hi), (lo, hi + 5)))[4]
        assert_bitwise_equal(_build_template(samples, (lo, hi), deposits),
                             loop_build_template(samples, (lo, hi), slots, frac, period))

    @pytest.mark.parametrize("f0", [50.0, 49.5])  # 40 and 40.4 samples per cycle
    def test_record_template_equals_per_row_reference_bitwise(self, f0):
        record = make_record("AG", snr_db=20.0, fundamental_hz=f0, seed=3)
        slots, frac = _phase_slots(0, 120, 120, FS, f0, 40)
        deposits = index_plan(record.n_samples, FS, f0, Spans((0, 120), (0, record.n_samples)))[4]
        assert_bitwise_equal(_build_template(record.samples, (0, 120), deposits),
                             loop_build_template(record.samples, (0, 120), slots, frac, 40))


class TestIndexPlan:
    @settings(max_examples=300, deadline=None)
    @given(period=st.integers(2, 64), detune=st.floats(-0.5, 0.5), start=st.floats(0.0, 3.0),
           cycles=st.floats(2.0, 6.0))
    @example(period=64, detune=0.5, start=0.0, cycles=2.0)  # the smallest weight seen, 1.02
    def test_two_calibration_cycles_give_every_slot_a_weight_of_one(self, period, detune, start,
                                                                    cycles):
        """Each of the ``period`` template slots receives a total deposit weight of
        at least 1 from a calibration span of two cycles or more, starting 0-3
        cycles into the record, so the template divides by no vanishing weight."""
        fs = 2000.0
        fundamental_hz = fs / (period + detune)
        assume(fs > 2 * fundamental_hz)  # cycle_length's Nyquist rule
        assume(cycle_length(fs, fundamental_hz, 10**6) == period)  # within rounding
        lo = int(start * period)
        hi = lo + int(cycles * period)
        slot_weight = index_plan(hi + 1, fs, fundamental_hz, Spans((lo, hi), (lo, hi + 1)))[4][2]
        assert slot_weight.size == period
        assert slot_weight.min() >= 1.0


def argsort_whitening_model(centered, retain=None):
    """Reference: the eigenpairs put in descending order by ``np.argsort``;
    returns (projection, eigenvalues)."""
    cov = centered @ centered.T / centered.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    keep = eigvals > RANK_TOLERANCE * eigvals[0]
    r = int(np.count_nonzero(keep))
    if retain is not None:
        r = min(r, max(retain, 1))
    eigvals = eigvals[:r]
    return (1.0 / np.sqrt(eigvals))[:, None] * eigvecs[:, :r].T, eigvals


class TestWhiteningOrder:
    """Reversing eigh's ascending output against sorting it with argsort, bit for bit.

    Where the eigenvalues differ, argsort of eigh's ascending output is the
    identity, so its reverse is the plain reverse. Tied eigenvalues keep the
    same order too: argsort leaves equal entries of an already ascending array
    where they are, which the tied cases below check (zero rows tie the zero
    eigenvalues; orthogonal rows of equal norm tie the nonzero ones). The index
    would not see a swap anyway: it keeps two components of positive, equal
    eigenvalue, and sums their two squares, which adds the same either way.
    """

    @staticmethod
    def assert_same_model(centered, retain):
        projection, eigenvalues = argsort_whitening_model(centered, retain)
        model = _whitening_model(centered, retain)
        assert_bitwise_equal(model.projection, projection)
        assert_bitwise_equal(model.eigenvalues, eigenvalues)
        assert_bitwise_equal(whiten(centered, retain)[0], projection @ centered)

    @pytest.mark.parametrize("retain", [None, 1, RETAIN])
    @pytest.mark.parametrize("f0", [50.0, 49.5])  # 40 and 40.4 samples per cycle
    @pytest.mark.parametrize("fault", ["AG", "AB", "NONE"])
    def test_record_equals_argsort_reference_bitwise(self, fault, f0, retain):
        for snr_db in (None, 20.0):
            record = make_record(fault, snr_db=snr_db, fundamental_hz=f0, seed=8)
            self.assert_same_model(center(record.samples)[0], retain)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 2000), exponent=st.floats(-30, 10), seed=st.integers(0, 2**16),
           retain=st.sampled_from([None, 1, 2, 3]))
    def test_random_equals_argsort_reference_bitwise(self, n, exponent, seed, retain):
        x = 10.0**exponent * rng_trace(3 * n, seed).reshape(3, n)
        self.assert_same_model(center(x)[0], retain)

    @pytest.mark.parametrize("retain", [None, 1, RETAIN])
    @pytest.mark.parametrize("centered", [
        np.vstack([center(rng_trace(500, 4)[None])[0], np.zeros((2, 500))]),
        np.kron(np.diag([1.0, 1.0, 0.0]), [1.0, -1.0]),
        np.kron(np.eye(3), [1.0, -1.0]),
        2.0**-20 * np.kron(np.eye(3), [1.0, -1.0, 1.0, -1.0]),
    ], ids=["two-zero", "two-equal-one-zero", "three-equal", "three-equal-small"])
    def test_tied_eigenvalues_equal_argsort_reference_bitwise(self, centered, retain):
        eigenvalues = np.linalg.eigvalsh(centered @ centered.T / centered.shape[1])
        assert np.any(eigenvalues[1:] == eigenvalues[:-1])
        self.assert_same_model(centered, retain)


class TestRotationInvariance:
    """The index equals the FastICA-unmixed one: the unmixing is orthogonal
    on whitened data, and a squared Euclidean norm cannot see a rotation.

    The unmixed index differs from the whitened one only by the round-off
    of subtracting after the projection and by FastICA's orthogonality
    defect ``E = W W^T - I``: ``|(|W v|**2 - |v|**2)| <= ||E||_2 |v|**2``.
    The round-off is bounded by 1e-12 of the series peak, or of 1 (the
    whitened unit) where the whole series is round-off.
    """

    CALIBRATION, ANALYSIS = (0, 120), (0, 400)

    def unmixed_index(self, record, config, **fastica_options):
        """The index as ``|W P (normal - mean) - sources|**2`` through a FastICA fit
        (unmixing ``W``, whitening projection ``P``, row means of the analysis data)."""
        fs, f0 = record.sample_rate_hz, config.fundamental_hz
        period = int(round(fs / f0))
        lo, hi = self.ANALYSIS
        anchor = self.CALIBRATION[1]
        deposits = index_plan(record.n_samples, fs, f0, Spans(self.CALIBRATION, self.ANALYSIS))[4]
        template = _build_template(record.samples, self.CALIBRATION, deposits)
        normal = _read_template(template, *_phase_slots(lo, hi, anchor, fs, f0, period))
        actual = record.samples[:, lo:hi]
        model, whitening = fit_ica(actual, retain=RETAIN, **fastica_options)
        unmixed = model.unmixing @ whitening.projection @ (normal - actual.mean(axis=1)[:, None])
        raw = np.sum((unmixed - model.sources) ** 2, axis=0)
        defect = model.unmixing @ model.unmixing.T - np.eye(model.unmixing.shape[0])
        return _trailing_mean(raw, period), whitening.eigenvalues, np.linalg.norm(defect, 2)

    def test_matches_unmixed_index(self):
        for fault, snr_db, f0 in itertools.product(("AG", "AB", "NONE"), (None, 20.0),
                                                   (49.5, 50.0)):
            record = make_record(fault, snr_db=snr_db, fundamental_hz=f0, seed=4)
            config = IcaConfig(fundamental_hz=f0)
            pi = performance_index(record, Spans(self.CALIBRATION, self.ANALYSIS), config)
            expected, eigenvalues, defect = self.unmixed_index(record, config)
            case = (fault, snr_db, f0)
            assert defect < 1e-10, case
            bound = defect * pi.values + 1e-12 * max(expected.max(), 1.0)
            assert np.all(np.abs(pi.values - expected) <= bound), case
            np.testing.assert_array_equal(pi.whitening_eigenvalues, eigenvalues, err_msg=case)

    def test_fastica_options_leave_unmixed_index_unchanged(self):
        """Seed, tolerance and a fit stopped early only change the rotation."""
        record = make_record("AG", snr_db=20.0, seed=5)
        config = IcaConfig()
        pi = performance_index(record, Spans(self.CALIBRATION, self.ANALYSIS), config).values
        for options in (dict(seed=17), dict(max_iter=1), dict(tol=1e-2),
                        dict(seed=3, max_iter=7, tol=1e-9)):
            expected, _, defect = self.unmixed_index(record, config, **options)
            assert defect < 1e-10, options
            bound = defect * pi + 1e-12 * max(expected.max(), 1.0)
            assert np.all(np.abs(pi - expected) <= bound), options
