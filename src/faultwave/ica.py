"""Blind source separation by fixed-point ICA and the fault performance index.

Pipeline: remove the row means of a channel matrix, whiten by PCA (dropping
near-zero principal components), then run the symmetric fixed-point
iteration that maximizes a negentropy proxy
``J(w) = (E[G(w.z)] - E[G(nu)])**2`` for ``nu`` standard normal, with
``G = log cosh`` (tanh contrast) or ``G(u) = u**4/4`` (cube contrast).

The fault performance index is the whitened residual between the record and
a periodic "normal" template built from the fault-free calibration span: it
stays near zero while the record matches its healthy pattern and jumps at
fault onset. It is a squared norm, blind to the orthogonal rotation ICA adds
after whitening, so it needs no FastICA fit.

The index is planned once per geometry: :func:`_phase_slots` caches read-only
slots and fractions keyed on ``(lo, hi, anchor, fs, fundamental_hz, period)``
for the last :data:`PLAN_CACHE_SIZE` keys, 16 bytes per sample from
calibration start to analysis end (6.5 MB at 409,600 samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    NumericalError,
    ShapeError,
)
from .signal_model import ThreePhaseRecord

# E[log cosh(nu)] for nu ~ N(0,1); frozen from high-resolution quadrature
# (tests re-derive it). E[nu**4 / 4] = 3/4 for the cube contrast.
GAUSSIAN_LOGCOSH_MEAN = 0.374567207491438
GAUSSIAN_QUARTIC_MEAN = 0.75

# Eigenvalues below this fraction of the largest are treated as rank loss.
RANK_TOLERANCE = 1e-12

# Principal components the performance index keeps: balanced three-phase
# voltages span two dimensions, and dropping the third keeps a pure-noise
# direction from dominating the index.
RETAIN = 2

PLAN_CACHE_SIZE = 8  # phase-slot plans kept; the least recently used goes first


@dataclass(eq=False)
class WhiteningModel:
    """Centering plus PCA whitening map fitted to one data matrix."""

    mean: np.ndarray
    projection: np.ndarray
    eigenvalues: np.ndarray


@dataclass(eq=False)
class IcaModel:
    """Fitted unmixing model; ``unmixing`` acts on whitened data (see :func:`unmix`)."""

    unmixing: np.ndarray
    sources: np.ndarray
    iterations_used: int
    converged: bool


@dataclass(eq=False)
class PiSeries:
    """Per-sample performance index over an analysis span."""

    values: np.ndarray
    start_sample: int
    sample_rate_hz: float
    window_len: int
    whitening_eigenvalues: np.ndarray

    def time_axis(self) -> np.ndarray:
        return (self.start_sample + np.arange(self.values.shape[0])) / self.sample_rate_hz


@dataclass(frozen=True)
class IcaConfig:
    """The fundamental that phase-locks the normal template.

    The index is invariant to the ICA rotation, so it has no FastICA
    options; :func:`fastica` and :func:`fit_ica` take their own.
    """

    fundamental_hz: float = 50.0

    def __post_init__(self) -> None:
        check_fundamental(self.fundamental_hz)


def check_fundamental(fundamental_hz: float) -> None:
    """Raise ConfigError unless ``fundamental_hz`` is finite and positive."""
    if not 0 < fundamental_hz < np.inf:
        raise ConfigError(f"fundamental_hz must be finite and positive, got {fundamental_hz}")


def center(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove row means; returns the centered matrix and the means."""
    mean = matrix.mean(axis=1)
    return matrix - mean[:, None], mean


def whiten(
    centered: np.ndarray,
    retain: int | float | None = None,
    mean: np.ndarray | None = None,
) -> tuple[np.ndarray, WhiteningModel]:
    """PCA-whiten centered data so the channel covariance is the identity.

    Components are ordered by descending eigenvalue; eigenvalues below
    ``RANK_TOLERANCE`` times the largest are dropped. ``retain`` further caps
    the kept components: an int keeps that many, a float in (0, 1] keeps the
    smallest count reaching that variance fraction.

    Args:
        centered: m x N matrix with zero row means.
        retain: Optional component cap (count or variance fraction).
        mean: Row means removed beforehand, stored for later inversion
            (zeros if omitted).

    Raises:
        DegenerateInputError: all-zero input.
    """
    model = _whitening_model(centered, retain, mean)
    return model.projection @ centered, model


def _whitening_model(
    centered: np.ndarray,
    retain: int | float | None = None,
    mean: np.ndarray | None = None,
) -> WhiteningModel:
    """The map :func:`whiten` fits, for callers that need only its projection."""
    m, n_cols = centered.shape
    cov = centered @ centered.T / n_cols
    # eigh's eigenvalues ascend, so reversing is the descending sort.
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]

    if eigvals[0] <= 0.0:
        raise DegenerateInputError("cannot whiten all-zero data")
    keep = eigvals > RANK_TOLERANCE * eigvals[0]
    r = int(np.count_nonzero(keep))
    if isinstance(retain, int):
        r = min(r, max(retain, 1))
    elif isinstance(retain, float):
        if not 0.0 < retain <= 1.0:
            raise ConfigError(f"variance fraction must lie in (0, 1], got {retain}")
        fractions = np.cumsum(eigvals) / np.sum(eigvals)
        r = min(r, int(np.searchsorted(fractions, retain) + 1))

    eigvals = eigvals[:r]
    # Row-major, the layout ``projection @ x`` has always multiplied in.
    projection = np.multiply((1.0 / np.sqrt(eigvals))[:, None], eigvecs[:, :r].T, order="C")
    mean = np.zeros(m) if mean is None else np.asarray(mean, dtype=float)
    return WhiteningModel(mean, projection, eigvals)


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
    retain: int | float | None = None,
    contrast: str = "tanh",
    max_iter: int = 500,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[IcaModel, WhiteningModel]:
    """Center, whiten, and unmix a raw data matrix in one step.

    Returns the fitted :class:`IcaModel` plus the whitening model; :func:`unmix`
    applies both to new data.
    """
    centered, mean = center(matrix)
    z, whitening = whiten(centered, retain=retain, mean=mean)
    return fastica(z, contrast=contrast, max_iter=max_iter, tol=tol, seed=seed), whitening


def unmix(model: IcaModel, whitening: WhiteningModel, matrix: np.ndarray) -> np.ndarray:
    """Apply the fitted unmixing to new data: S = W . projection . (X - mean).

    On the training matrix this reproduces ``model.sources`` exactly.

    Raises:
        ShapeError: channel count differs from the whitening model.
    """
    if matrix.shape[0] != whitening.mean.shape[0]:
        raise ShapeError(
            f"matrix has {matrix.shape[0]} rows, whitening model expects "
            f"{whitening.mean.shape[0]}"
        )
    return model.unmixing @ whitening.projection @ (matrix - whitening.mean[:, None])


def negentropy_proxy(direction: np.ndarray, z: np.ndarray, contrast: str = "tanh") -> float:
    """Evaluate J(w) = (E[G(w.z)] - E[G(nu)])**2 for a unit direction."""
    u = np.asarray(direction, dtype=float) @ z
    if contrast == "tanh":
        value = np.mean(np.log(np.cosh(u)))
        reference = GAUSSIAN_LOGCOSH_MEAN
    elif contrast == "cube":
        value = np.mean(u**4 / 4.0)
        reference = GAUSSIAN_QUARTIC_MEAN
    else:
        raise ConfigError(f"unknown contrast {contrast!r}")
    return float((value - reference) ** 2)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
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
    slots, frac = floor.astype(int) % period, positions - floor
    slots.flags.writeable = frac.flags.writeable = False
    return slots, frac


def _build_template(
    samples: np.ndarray,
    calibration: tuple[int, int],
    slots: np.ndarray,
    frac: np.ndarray,
    period: int,
) -> np.ndarray:
    """Average the calibration span into one phase-locked cycle.

    ``slots`` and ``frac`` are the :func:`_phase_slots` of the span's
    samples. Each sample is deposited onto its two neighboring phase slots
    with linear weights, so slot averages stay centered even when the
    fundamental does not divide the sample rate. At an integer
    samples-per-cycle ratio the deposit is an exact per-slot average.
    Row r is bins ``r*period ... (r+1)*period - 1`` of one ``np.bincount`` per
    neighbor, each adding the same deposits in the same order as per row.
    """
    lo, hi = calibration
    segment = samples[:, lo:hi]
    if not np.any(segment):
        raise DegenerateInputError(
            f"the record is identically zero on spans.calibration=({lo}, {hi})")

    right = (slots + 1) % period
    left_weight = 1.0 - frac
    weights = np.bincount(slots, weights=left_weight, minlength=period)
    weights += np.bincount(right, weights=frac, minlength=period)
    if np.any(weights <= 1e-12):
        raise BoundsError(
            f"spans.calibration=({lo}, {hi}) does not cover every phase of the fundamental cycle")
    rows = samples.shape[0]
    offsets = period * np.arange(rows)[:, None]
    template = np.bincount((slots + offsets).ravel(), weights=(left_weight * segment).ravel(),
                           minlength=rows * period)
    template += np.bincount((right + offsets).ravel(), weights=(frac * segment).ravel(),
                            minlength=rows * period)
    return template.reshape(rows, period) / weights


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
    record: ThreePhaseRecord,
    calibration_span: tuple[int, int],
    analysis_span: tuple[int, int],
    config: IcaConfig = IcaConfig(),
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

    Each sample's phase slot is computed once, over the one range from the
    calibration start to the analysis end that holds both spans; the
    template build and the template read take their slices of it. The
    whitening map is fitted without whitening the analysis data itself,
    which the index never reads.

    Args:
        record: Record under analysis.
        calibration_span: Half-open sample range known to be fault-free; must
            start no later than the analysis span, end before it does, and
            cover at least two fundamental cycles.
        analysis_span: Half-open sample range the index is computed on.
        config: The fundamental used for phase locking.

    Raises:
        BoundsError: spans outside the record, out of order, or a calibration
            span shorter than two cycles.
        DegenerateInputError: the record is all zero on the calibration span.
    """
    n = record.n_samples
    p_lo, p_hi = calibration_span
    a_lo, a_hi = analysis_span
    named = f"spans.calibration=({p_lo}, {p_hi}), spans.analysis=({a_lo}, {a_hi})"
    if not (0 <= p_lo < p_hi <= n and 0 <= a_lo < a_hi <= n):
        raise BoundsError(f"{named} lie outside the record (N={n})")
    if p_lo > a_lo or p_hi >= a_hi:
        raise BoundsError(f"{named}: the calibration span must precede the analysis span")

    fs = record.sample_rate_hz
    if not fs / config.fundamental_hz < n:
        raise DegenerateInputError(
            f"one {config.fundamental_hz} Hz cycle is longer than the record ({n} samples)")
    period = int(round(fs / config.fundamental_hz))
    if period < 2:
        raise ConfigError(
            f"fundamental {config.fundamental_hz} Hz leaves fewer than 2 samples per cycle"
        )
    if p_hi - p_lo < 2 * period:
        raise BoundsError(f"spans.calibration=({p_lo}, {p_hi}) covers fewer than two "
                          f"fundamental cycles ({2 * period} samples)")

    anchor = p_hi
    slots, frac = _phase_slots(p_lo, a_hi, anchor, fs, config.fundamental_hz, period)
    calibration, analysis = slice(0, p_hi - p_lo), slice(a_lo - p_lo, None)
    template = _build_template(record.samples, calibration_span, slots[calibration],
                               frac[calibration], period)
    normal = _read_template(template, slots[analysis], frac[analysis])
    actual = record.samples[:, a_lo:a_hi]

    whitening = _whitening_model(center(actual)[0], retain=RETAIN)
    raw = np.sum((whitening.projection @ (normal - actual)) ** 2, axis=0)
    return PiSeries(
        values=_trailing_mean(raw, period),
        start_sample=a_lo,
        sample_rate_hz=fs,
        window_len=period,
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
    cumulative = np.cumsum(raw)
    sums = cumulative.copy()
    sums[window:] -= cumulative[:-window]
    head = min(window, raw.shape[0])
    sums[:head] /= np.arange(1, head + 1)
    sums[head:] /= window
    return sums
