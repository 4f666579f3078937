"""Orthogonal wavelet filter bank (8-tap Daubechies, 4 vanishing moments).

Implements the analysis/synthesis pyramid with periodic extension:

    a_j(k) = sum_m a_{j+1}(m) h(m - 2k)
    d_j(k) = sum_m a_{j+1}(m) h1(m - 2k)

with the input samples as the finest approximation and all indices wrapped
modulo the current length. Periodic extension keeps the transform exactly
orthogonal, so energy is conserved and reconstruction is exact up to
round-off. Record lengths must be divisible by 2**levels. The analysis block
and the energy windows are rows of :func:`~faultwave.signal_model.sliding_rows`.

:func:`window_groups` is the part of the windowed energy that depends only
on the geometry (16 bytes per window); the energy detector plans it once per
record shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .signal_model import Trace, sliding_rows

# 8-tap orthonormal lowpass with four vanishing moments, transcribed from the
# standard table; tests re-derive it by spectral factorization and check the
# filter identities numerically.
DB4_LOWPASS = np.array(
    [
        0.2303778133088965,
        0.7148465705529154,
        0.6308807679298587,
        -0.027983769416859854,
        -0.18703481171909308,
        0.030841381835560763,
        0.03288301166688519,
        -0.010597401785069032,
    ]
)


def quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    """Return h1[n] = (-1)**n * h[L-1-n]."""
    n = np.arange(lowpass.shape[0])
    return (-1.0) ** n * lowpass[::-1]


# Shared by every transform, so neither may be written to.
DB4_HIGHPASS = quadrature_mirror(DB4_LOWPASS)
DB4_LOWPASS.flags.writeable = DB4_HIGHPASS.flags.writeable = False

FILTER_LEN = DB4_LOWPASS.shape[0]


@dataclass(eq=False)
class DecompositionTree:
    """Multi-level coefficient pyramid.

    ``details[j-1]`` holds level-j detail coefficients d_j (level 1 is the
    finest, N/2 entries); ``approx`` holds a_J. Total coefficient count equals
    the original length: the transform is non-redundant.
    """

    levels: int
    details: list[np.ndarray]
    approx: np.ndarray
    original_length: int
    sample_rate_hz: float


def _analyze_level(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pyramid stage: row k of the block is ``a[(2k + i) mod n]``, i < FILTER_LEN.

    ``a`` is repeated end to end until a row starting at the last even index
    fits, which also covers levels shorter than the filter, where a row wraps
    more than once; the block copies the first n/2 of its ``sliding_rows``.
    """
    n = a.shape[0]
    wrapped = np.concatenate((a,) * (1 + -(-(FILTER_LEN - 2) // n)))
    block = sliding_rows(wrapped, FILTER_LEN, 2)[:n // 2].copy()
    return block @ DB4_LOWPASS, block @ DB4_HIGHPASS


def _synthesize_level(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    n = 2 * approx.shape[0]
    k = np.arange(approx.shape[0])
    out = np.zeros(n)
    # Transpose of the analysis operator; for fixed tap i the target indices
    # (2k+i) mod n are distinct, so fancy-index accumulation is collision-free.
    for i in range(FILTER_LEN):
        pos = (2 * k + i) % n
        out[pos] += approx * DB4_LOWPASS[i] + detail * DB4_HIGHPASS[i]
    return out


def check_length(n: int, levels: int) -> None:
    """Raise ShapeError unless ``n`` is divisible by 2**levels (``levels`` >= 1)
    and at least the filter length."""
    if levels < 1:
        raise ShapeError(f"levels must be >= 1, got {levels}")
    if n < FILTER_LEN:
        raise ShapeError(f"trace length {n} is shorter than the filter ({FILTER_LEN})")
    if levels >= n.bit_length() or n % (1 << levels) != 0:
        raise ShapeError(f"trace length {n} is not divisible by 2**{levels}")


def dwt_decompose(trace: Trace, levels: int) -> DecompositionTree:
    """Decompose a trace into ``levels`` detail bands plus one approximation.

    Args:
        trace: Input channel; its length must be divisible by 2**levels and
            at least the filter length.
        levels: Number of pyramid stages (>= 1).

    Raises:
        ShapeError: see :func:`check_length`.
    """
    check_length(trace.n_samples, levels)
    approx = np.asarray(trace.samples, dtype=float)
    details: list[np.ndarray] = []
    for _ in range(levels):
        approx, detail = _analyze_level(approx)
        details.append(detail)
    return DecompositionTree(
        levels=levels,
        details=details,
        approx=approx,
        original_length=trace.n_samples,
        sample_rate_hz=trace.sample_rate_hz,
    )


def dwt_reconstruct(tree: DecompositionTree) -> Trace:
    """Invert the pyramid; composing with :func:`dwt_decompose` is the identity.

    Raises:
        ShapeError: the per-level coefficient lengths are inconsistent.
    """
    expected = tree.original_length >> tree.levels
    if tree.approx.shape[0] != expected:
        raise ShapeError(
            f"approximation has {tree.approx.shape[0]} entries, expected {expected}"
        )
    for j, detail in enumerate(tree.details, start=1):
        if detail.shape[0] != tree.original_length >> j:
            raise ShapeError(
                f"level-{j} detail has {detail.shape[0]} entries, "
                f"expected {tree.original_length >> j}"
            )

    approx = tree.approx
    for detail in reversed(tree.details):
        approx = _synthesize_level(approx, detail)
    return Trace(samples=approx, sample_rate_hz=tree.sample_rate_hz)


def _support_length(level: int) -> int:
    """Original-domain footprint of one level-``level`` coefficient."""
    return ((1 << level) - 1) * (FILTER_LEN - 1) + 1


def _first_wrapped(n_samples: int, level: int) -> int:
    """Index of the first level-``level`` coefficient whose support runs past the record end."""
    return (n_samples - _support_length(level)) // (1 << level) + 1


def _alignment_shift(level: int) -> int:
    """Circular shift placing each coefficient at the center of its support.

    Centering keeps onset estimates unbiased: a disturbance can show up at
    most ``min_consecutive`` samples before its true position rather than a
    full filter length early.
    """
    return (_support_length(level)) // 2


def detail_series(tree: DecompositionTree, level: int) -> Trace:
    """Return |d_level| stretched back onto the original time axis.

    Each coefficient is repeated 2**level times and the series is circularly
    shifted so coefficients sit over the center of their support, aligning
    disturbance onsets with input samples.

    Raises:
        ShapeError: ``level`` is outside 1..tree.levels.
    """
    if not 1 <= level <= tree.levels:
        raise ShapeError(f"level {level} outside decomposition range 1..{tree.levels}")
    series = np.abs(tree.details[level - 1]).repeat(1 << level)
    cut = series.shape[0] - _alignment_shift(level) % series.shape[0]
    return Trace(samples=np.concatenate((series[cut:], series[:cut])),
                 sample_rate_hz=tree.sample_rate_hz)


def artifact_free_range(n_samples: int, level: int) -> tuple[int, int]:
    """Half-open range of :func:`detail_series` positions free of wrap artifacts.

    The coefficients whose support stays inside the record are the first
    ``_first_wrapped`` ones; repeated ``2**level`` times and shifted by
    ``_alignment_shift`` (half a support), they fill one contiguous range.
    It ends inside the record: the last of them starts its support at least
    one support before the record end, and half a support plus its 2**level
    positions is less than a support. With no such coefficient the range is
    empty. ``n_samples`` must be divisible
    by 2**level, as :func:`dwt_decompose` requires.
    """
    shift = _alignment_shift(level)
    return shift, shift + (max(_first_wrapped(n_samples, level), 0) << level)


def boundary_artifact_mask(n_samples: int, level: int) -> np.ndarray:
    """Boolean mask over the time axis where detail values are wrap artifacts.

    With periodic extension, coefficients whose support crosses the record
    boundary mix the end of the record with its start; on non-periodic data
    they carry a spurious discontinuity. The mask marks the positions those
    coefficients occupy in :func:`detail_series` output so detectors can skip
    them: every position outside :func:`artifact_free_range`.
    """
    lo, hi = artifact_free_range(n_samples, level)
    mask = np.ones(n_samples, dtype=bool)
    mask[lo:hi] = False
    return mask


def window_groups(n_samples: int, level: int, starts: np.ndarray, width: int) -> tuple:
    """The plan of :func:`window_energies`: read-only ``(count, rows, firsts)``
    for each nonzero coefficient count, where the windows ``rows`` each sum
    ``count`` coefficients from their entry of ``firsts`` on. Callers that
    screen many records of one geometry build it once."""
    step, sup = 1 << level, _support_length(level)
    last = _first_wrapped(n_samples, level)
    firsts = np.maximum((starts - sup) // step + 1, 0)
    counts = np.maximum(np.minimum(-(-(starts + width) // step), last), firsts) - firsts
    groups = []
    for count in np.flatnonzero(np.bincount(counts, minlength=1)[1:]) + 1:
        rows = np.flatnonzero(counts == count)
        row_firsts = firsts[rows]
        rows.flags.writeable = row_firsts.flags.writeable = False
        groups.append((int(count), rows, row_firsts))
    return tuple(groups)


def window_energies(
    tree: DecompositionTree, level: int, starts: np.ndarray, width: int,
    groups: tuple | None = None,
) -> np.ndarray:
    """Mean squared level-``level`` detail energy over windows ``[s, s + width)``.

    Sums d_level(k)**2 over the contiguous run of k whose support [2**level * k,
    2**level * k + support) intersects the window, divided by ``width``.
    Coefficients whose support runs past the record end are left out: they mix
    the wrapped record start into the tail. ``groups`` is :func:`window_groups`
    of the record length and these arguments, built here if not given.

    Windows are summed in groups by coefficient count: all windows with the same
    count are gathered, as :func:`~faultwave.signal_model.sliding_rows` of width
    ``count``, into one (rows, count) array and reduced along its last axis,
    and windows with no coefficients stay 0. Each row holds exactly
    its window's coefficients in order, and numpy reduces each contiguous row
    with the same pairwise summation as the 1-D slice ``d2[a:b].sum()``, so the
    result is bitwise equal to summing one window at a time. Zero-padding the
    rows to one width would change that order for the edge windows.
    """
    if groups is None:
        groups = window_groups(tree.original_length, level, starts, width)
    d2 = tree.details[level - 1] ** 2
    sums = np.zeros(starts.shape[0])
    for count, rows, firsts in groups:
        sums[rows] = np.add.reduce(sliding_rows(d2, count)[firsts], 1)
    return sums / width


def wavelet_energy_index(trace: Trace, level: int, span: tuple[int, int]) -> float:
    """:func:`window_energies` of one half-open ``span = (start, stop)`` of ``trace``.

    Raises:
        DegenerateInputError: empty span.
        ShapeError: propagated from decomposition.
    """
    lo, hi = span
    n = trace.n_samples
    if not 0 <= lo < hi <= n:
        raise DegenerateInputError(f"span {span} is empty or outside the trace (N={n})")
    tree = dwt_decompose(trace, level)
    return float(window_energies(tree, level, np.array([lo]), hi - lo)[0])
