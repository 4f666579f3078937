"""Fixed-point ICA and the fault performance index.

The ICA step: remove the row means of a channel matrix, whiten by PCA
(dropping near-zero principal components), then run the symmetric
fixed-point iteration with the ``tanh`` or cube contrast.

The fault performance index is the whitened residual between the record and
a periodic "normal" template built from the fault-free calibration span: it
stays near zero while the record matches its healthy pattern and jumps at
fault onset. It is a squared norm, blind to the orthogonal rotation ICA adds
after whitening, so it needs no FastICA fit.

The index is planned once per geometry: :func:`index_plan` resolves the
:class:`~faultwave.signal_model.Spans` and checks the ICA span rules, derives
the template period and caches read-only phase slots (16 bytes per sample
from calibration start to analysis end) and the template deposits of the
calibration samples (64 bytes each) for the last :data:`PLAN_CACHE_SIZE`
geometries: 14.4 MB at 409,600 samples, default spans. A call on a known
geometry does only sample work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundsError, ConfigError, DegenerateInputError, NumericalError
from .signal_model import Spans, ThreePhaseRecord, check_fundamental, cycle_length, is_integer

# Eigenvalues below this fraction of the largest are treated as rank loss.
RANK_TOLERANCE = 1e-12

# Principal components the performance index keeps: balanced three-phase
# voltages span two dimensions, and dropping the third keeps a pure-noise
# direction from dominating the index.
RETAIN = 2

PLAN_CACHE_SIZE = 8  # plans kept per cache here and in detect; least recently used go first


@dataclass(eq=False)
class WhiteningModel:
    """PCA whitening map fitted to one centered data matrix: ``projection``
    takes centered data to unit covariance; ``eigenvalues`` are the kept
    component variances, descending."""

    projection: np.ndarray
    eigenvalues: np.ndarray


@dataclass(eq=False)
class IcaModel:
    """Fitted FastICA model: orthonormal ``unmixing`` rows act on whitened
    data, and ``sources`` is the unmixing applied to the data it was fitted on."""

    unmixing: np.ndarray
    sources: np.ndarray
    iterations_used: int
    converged: bool


@dataclass(eq=False)
class PiSeries:
    """Per-sample performance index: ``values[i]`` is at sample ``spans.analysis[0] + i``."""

    values: np.ndarray
    whitening_eigenvalues: np.ndarray


@dataclass(frozen=True)
class IcaConfig:
    """The fundamental that phase-locks the normal template.

    The index is invariant to the ICA rotation, so it has no FastICA
    options; :func:`fastica` and :func:`fit_ica` take their own.
    """

    fundamental_hz: float = 50.0

    def __post_init__(self) -> None:
        check_fundamental(self.fundamental_hz)


def center(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove row means; returns the centered matrix and the means."""
    mean = np.add.reduce(matrix, 1) / matrix.shape[1]  # bitwise ``matrix.mean(axis=1)``
    return matrix - mean[:, None], mean


def whiten(centered: np.ndarray, retain: int | None = None) -> tuple[np.ndarray, WhiteningModel]:
    """PCA-whiten centered data so the channel covariance is the identity.

    Components are ordered by descending eigenvalue; eigenvalues below
    ``RANK_TOLERANCE`` times the largest are dropped. ``retain`` further caps
    the kept components at that count (at least 1).

    Args:
        centered: m x N matrix with zero row means.
        retain: Optional component count.

    Raises:
        ConfigError: ``retain`` is not an integer.
        DegenerateInputError: all-zero input.
        NumericalError: the covariance overflows.
    """
    model = _whitening_model(centered, retain)
    return model.projection @ centered, model


def _whitening_model(centered: np.ndarray, retain: int | None = None) -> WhiteningModel:
    """The map :func:`whiten` fits, for callers that need only its projection."""
    if retain is not None and not is_integer(retain):
        raise ConfigError(f"retain must be an integer component count, got {retain!r}")
    cov = centered @ centered.T / centered.shape[1]
    if not np.logical_and.reduce(np.isfinite(cov), None):
        raise NumericalError("the channel covariance overflows float64")
    # eigh's eigenvalues ascend, so reversing is the descending sort.
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]

    if eigvals[0] <= 0.0:
        raise DegenerateInputError("cannot whiten all-zero data")
    keep = eigvals > RANK_TOLERANCE * eigvals[0]
    r = int(np.count_nonzero(keep))
    if retain is not None:
        r = min(r, max(int(retain), 1))

    eigvals = eigvals[:r]
    # Row-major, the layout ``projection @ x`` has always multiplied in.
    projection = np.multiply((1.0 / np.sqrt(eigvals))[:, None], eigvecs[:, :r].T, order="C")
    return WhiteningModel(projection, eigvals)


def _contrast_funcs(contrast: str):
    if contrast == "tanh":
        return np.tanh, lambda u: 1.0 - np.tanh(u) ** 2
    if contrast == "cube":
        return lambda u: u**3, lambda u: 3.0 * u**2
    raise ConfigError(f"unknown contrast {contrast!r}")


def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W, making the rows orthonormal up to round-off.

    On an ill-conditioned update the rows can miss orthonormality by more
    than machine epsilon: ``||W W^T - I||_2`` has reached 1.3e-11.
    """
    s, u = np.linalg.eigh(w @ w.T)
    if s[0] <= RANK_TOLERANCE * s[-1]:
        raise NumericalError("unmixing update lost rank during decorrelation")
    return (u * (1.0 / np.sqrt(s))) @ u.T @ w


def fastica(
    z: np.ndarray,
    contrast: str = "tanh",
    max_iter: int = 500,
    tol: float = 1e-6,
    seed: int = 0,
) -> IcaModel:
    """Symmetric fixed-point iteration on whitened data.

    Every sweep updates each row as ``w <- E[z g(w.z)] - E[g'(w.z)] w`` and
    re-orthonormalizes all rows symmetrically; convergence is declared when
    ``max_k |1 - |<w_new, w_old>||`` drops below ``tol``. Initialization is a
    seeded random orthonormal matrix, so results are reproducible.

    Non-convergence is reported through ``converged=False`` rather than an
    exception; NaN in the update raises :class:`NumericalError`.
    """
    r, n_cols = z.shape
    g, g_prime = _contrast_funcs(contrast)
    rng = np.random.default_rng(seed)
    w = _symmetric_decorrelation(rng.standard_normal((r, r)))

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        projected = w @ z
        w_new = (g(projected) @ z.T) / n_cols - g_prime(projected).mean(axis=1)[:, None] * w
        if not np.all(np.isfinite(w_new)):
            raise NumericalError("fixed-point update produced non-finite values")
        w_new = _symmetric_decorrelation(w_new)
        drift = np.max(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1))))
        w = w_new
        if drift < tol:
            converged = True
            break

    return IcaModel(
        unmixing=w,
        sources=w @ z,
        iterations_used=iterations,
        converged=converged,
    )


def fit_ica(
    matrix: np.ndarray,
    retain: int | None = None,
    contrast: str = "tanh",
    max_iter: int = 500,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[IcaModel, WhiteningModel]:
    """Center, whiten, and run :func:`fastica` on a raw data matrix in one step.

    Returns the fitted :class:`IcaModel` plus the whitening model.
    """
    z, whitening = whiten(center(matrix)[0], retain=retain)
    return fastica(z, contrast=contrast, max_iter=max_iter, tol=tol, seed=seed), whitening


def _phase_slots(
    lo: int, hi: int, anchor: int, fs: float, fundamental_hz: float, period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Template slot and fraction of samples ``lo..hi-1``, locked to the fundamental.

    A sample's position in the cycle is ``slot + fraction`` slots, with
    ``slot`` in ``0..period-1`` and ``fraction`` in [0, 1). The sample offset
    is reduced modulo the true samples-per-cycle before scaling to slots, so
    a fundamental that does not divide the sample rate cannot accumulate
    phase drift across the span, and an integer ratio yields exact integer
    slots ((k - anchor) mod period) with fraction 0. Every step is
    elementwise, so slicing the result for a sub-range of samples gives the
    same values as computing it on that sub-range.
    """
    samples_per_cycle = fs / fundamental_hz
    remainder = np.mod(np.arange(lo, hi) - anchor, samples_per_cycle)
    positions = remainder * (period / samples_per_cycle)
    floor = np.floor(positions)
    return floor.astype(int) % period, positions - floor


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def index_plan(n_samples: int, fs: float, fundamental_hz: float, spans: Spans | None) -> tuple:
    """The geometry of :func:`performance_index`, once its spans pass the rules it
    documents (same errors, in that order): the ``spans`` resolved against the
    record (:meth:`Spans.resolve`); the :func:`cycle_length` ``period`` its
    template tiles with; read-only :func:`_phase_slots` ``slots`` and ``frac``
    of the analysis samples; and the ``deposits`` of the calibration samples:
    ``bins`` their slot and the next one up (row r of three offset by
    ``r * period``), ``weights`` those bins' shares ``1 - frac`` and ``frac``,
    ``slot_weight`` the total each slot receives: at least 1, since the
    calibration span holds two cycles."""
    spans = (spans or Spans()).resolve(n_samples)
    (p_lo, p_hi), (a_lo, a_hi) = spans.calibration, spans.analysis
    if p_lo > a_lo or p_hi >= a_hi:
        raise BoundsError(f"spans.calibration=({p_lo}, {p_hi}), spans.analysis=({a_lo}, {a_hi}): "
                          "the calibration span must precede the analysis span")
    period = cycle_length(fs, fundamental_hz, n_samples)
    if p_hi - p_lo < 2 * period:
        raise BoundsError(f"spans.calibration=({p_lo}, {p_hi}) covers fewer than two "
                          f"fundamental cycles ({2 * period} samples)")
    slots, frac = _phase_slots(p_lo, a_hi, p_hi, fs, fundamental_hz, period)
    calibration = slice(0, p_hi - p_lo)
    neighbors = np.stack((slots[calibration], (slots[calibration] + 1) % period))
    weights = np.stack((1.0 - frac[calibration], frac[calibration]))
    slot_weight = (np.bincount(neighbors[0], weights[0], period)
                   + np.bincount(neighbors[1], weights[1], period))
    bins = (neighbors[:, None, :] + period * np.arange(3)[:, None]).reshape(2, -1)
    for array in (slots, frac, bins, weights, slot_weight):
        array.flags.writeable = False
    return spans, period, slots[a_lo - p_lo:], frac[a_lo - p_lo:], (bins, weights, slot_weight)


def _build_template(samples: np.ndarray, calibration: tuple[int, int],
                    deposits: tuple) -> np.ndarray:
    """Average the calibration span of the three rows of ``samples`` into one
    phase-locked cycle through the :func:`index_plan` ``deposits`` of its samples:
    each sample lands on its two neighboring phase slots with linear weights, so
    slot averages stay centered even when the fundamental does not divide the
    sample rate (at an integer ratio, an exact per-slot average). One
    ``np.bincount`` per neighbor adds each row's deposits in per-row order.
    """
    lo, hi = calibration
    segment = samples[:, lo:hi]
    if not np.logical_or.reduce(segment, None, bool):
        raise DegenerateInputError(
            f"the record is identically zero on spans.calibration=({lo}, {hi})")
    bins, weights, slot_weight = deposits
    size = 3 * slot_weight.size
    template = np.bincount(bins[0], weights=(weights[0] * segment).ravel(), minlength=size)
    template += np.bincount(bins[1], weights=(weights[1] * segment).ravel(), minlength=size)
    return template.reshape(3, -1) / slot_weight


def _read_template(template: np.ndarray, slots: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Tile the cycle template over samples at :func:`_phase_slots` ``slots`` and ``frac``.

    Catmull-Rom interpolation between phase slots; at integer slot positions
    (fundamental dividing the sample rate) it degenerates to exact lookup.

    The cubic's coefficients depend only on the slot, so they are tabulated
    once per slot (``p1``, ``0.5(p2-p0)``, ``0.5(2p0-5p1+4p2-p3)``,
    ``0.5(3(p1-p2)+p3-p0)``, with ``p0``..``p3`` the slots around it), the
    table is gathered once at each sample's slot, and the cubic is evaluated
    by Horner's rule in place. This is the textbook form
    ``p1 + 0.5f(p2-p0 + f(... + f(...)))`` with the factor 0.5 moved onto each
    coefficient; scaling by 0.5 is exact, so the result is bitwise the same.
    """
    rows, period = template.shape
    wrapped = np.concatenate((template[:, -1:], template, template[:, :2]), axis=1)
    p0, p1, p2, p3 = (wrapped[:, i:i + period] for i in range(4))
    table = np.concatenate((
        p1,
        0.5 * (p2 - p0),
        0.5 * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3),
        0.5 * (3.0 * (p1 - p2) + p3 - p0),
    ))
    c = table.take(slots, axis=1).reshape(4, rows, -1)
    out = c[3]
    for coefficient in (c[2], c[1], c[0]):
        out *= frac
        out += coefficient
    return out


def performance_index(
    record: ThreePhaseRecord, spans: Spans | None = None, config: IcaConfig = IcaConfig()
) -> PiSeries:
    """Fault performance index over the analysis span.

    The whitening map is fitted on the analysis-span data; a "normal"
    template is built by tiling the calibration span periodically
    (phase-locked, one fundamental period long) over the analysis span; and
    the index at sample k is the squared norm of the whitened difference
    between the template and the record, aggregated over a trailing
    one-cycle window. Near zero while the record is healthy, it jumps at
    fault onset. FastICA's unmixing is orthogonal on whitened data, so
    unmixing both would leave the index as it is.

    The resolved spans, the period and the phase geometry come from the cached
    :func:`index_plan`: the analysis slots and the calibration deposits, so
    building the template takes two ``np.bincount`` calls on the data. The
    whitening map is fitted without whitening the analysis data itself,
    which the index never reads.

    Args:
        record: Record under analysis.
        spans: ``calibration`` is known to be fault-free; it must start no
            later than ``analysis``, the range the index is computed on, end
            before it does, and cover at least two fundamental cycles. ``None``
            takes the defaults of :meth:`Spans.resolve`.
        config: The fundamental used for phase locking.

    Raises:
        BoundsError: spans outside the record, out of order, or a calibration
            span shorter than two cycles.
        ConfigError: a fundamental at or above Nyquist (:func:`cycle_length`).
        DegenerateInputError: a record no longer than one cycle, or all zero
            on the calibration span.
        NumericalError: the record overflows the whitening covariance.
    """
    spans, period, slots, frac, deposits = index_plan(
        record.n_samples, record.sample_rate_hz, config.fundamental_hz, spans)
    template = _build_template(record.samples, spans.calibration, deposits)
    normal = _read_template(template, slots, frac)
    actual = record.samples[:, slice(*spans.analysis)]

    whitening = _whitening_model(center(actual)[0], retain=RETAIN)
    raw = np.add.reduce((whitening.projection @ (normal - actual)) ** 2, 0)
    return PiSeries(
        values=_trailing_mean(raw, period),
        whitening_eigenvalues=whitening.eigenvalues,
    )


def _trailing_mean(raw: np.ndarray, window: int) -> np.ndarray:
    """Mean of the last ``window`` samples (shorter at the series head).

    Aggregating the per-sample squared norm over one cycle keeps the index
    near zero on healthy data without delaying the rise at fault onset; the
    window trails, so no post-onset sample leaks into earlier index values.
    Each window sum is a difference of two running sums, taken on slices:
    the head keeps the running sum itself and divides by its length.
    """
    cumulative = raw.cumsum()
    sums = cumulative.copy()
    sums[window:] -= cumulative[:-window]
    head = min(window, raw.shape[0])
    sums[:head] /= np.arange(1, head + 1)
    sums[head:] /= window
    return sums
