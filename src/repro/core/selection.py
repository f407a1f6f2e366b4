"""Optimal frequency selection — paper Algorithm 1.

Two steps:

1. score every configuration with the objective (EDP/ED2P) and take the
   minimiser;
2. if a performance-degradation threshold is given and the minimiser
   violates it, walk *upward* in frequency from the minimiser and take
   the first configuration whose degradation is under the threshold.

Note on the paper's pseudocode: lines 11-17 as printed assign ``index``
on *every* pass where the degradation test holds, which would always end
at the maximum frequency; the prose ("a higher frequency configuration is
selected ... this step is repeated until the performance degradation is
less than the threshold") describes the first-satisfying walk implemented
here.  Degradation is measured against performance at the maximum
frequency: ``perfDeg = 1 - T(f_max) / T(f)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.energy import EDP, ObjectiveFunction
from repro.units import Fraction, JoulesArray, MHz, MHzArray, SecondsArray

__all__ = ["SelectionResult", "select_optimal_frequency", "select_optimal_frequency_many"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of Algorithm 1 for one application."""

    freq_mhz: MHz
    index: int
    objective_name: str
    scores: np.ndarray
    #: Performance degradation at the selected clock vs f_max (fraction;
    #: positive = slower).
    perf_degradation: Fraction
    #: Energy change at the selected clock vs f_max (fraction; positive =
    #: saving).
    energy_saving: Fraction
    #: Whether the threshold walk moved the selection above the raw
    #: objective minimiser.
    threshold_applied: bool


def select_optimal_frequency(
    freqs_mhz: MHzArray,
    energy_j: JoulesArray,
    time_s: SecondsArray,
    *,
    objective: ObjectiveFunction = EDP,
    threshold: Fraction | None = None,
) -> SelectionResult:
    """Run Algorithm 1 over per-configuration energy/time curves.

    A one-row :func:`select_optimal_frequency_many` call.

    Parameters
    ----------
    freqs_mhz:
        Ascending clock grid; the last entry must be the maximum
        (reference) frequency.
    energy_j, time_s:
        Predicted (or measured) energy and execution time per clock.
    objective:
        EDP, ED2P, or any :class:`~repro.core.energy.ObjectiveFunction`.
    threshold:
        Optional maximum tolerated performance degradation (fraction,
        e.g. 0.05 for the paper's 5 % row in Table 6).  ``None`` selects
        purely by the objective, as the paper's main evaluation does.
    """
    freqs = np.asarray(freqs_mhz, dtype=float)
    energy = np.asarray(energy_j, dtype=float)
    time = np.asarray(time_s, dtype=float)
    if freqs.ndim != 1 or not (freqs.shape == energy.shape == time.shape):
        raise ValueError("freqs, energy, and time must be 1-D with identical shapes")
    return select_optimal_frequency_many(
        freqs, energy[None, :], time[None, :], objective=objective, threshold=threshold
    )[0]


def select_optimal_frequency_many(
    freqs_mhz: MHzArray,
    energy_j: JoulesArray,
    time_s: SecondsArray,
    *,
    objective: ObjectiveFunction = EDP,
    threshold: Fraction | None = None,
) -> list[SelectionResult]:
    """Algorithm 1 over a batch of applications sharing one clock grid.

    ``energy_j`` and ``time_s`` are ``(n_apps, n_freqs)`` matrices.  The
    scoring, argmin, and degradation stages run as whole-matrix
    elementwise/rowwise operations — every one of which is
    stacking-invariant, so each row's result is bitwise-identical to
    running the row on its own.  Only rows whose minimiser actually
    violates the threshold take the O(f) upward walk: from the
    minimiser, the first higher clock whose degradation is under the
    threshold, else f_max.
    """
    freqs = np.asarray(freqs_mhz, dtype=float)
    energy = np.asarray(energy_j, dtype=float)
    time = np.asarray(time_s, dtype=float)
    if energy.ndim != 2 or energy.shape != time.shape:
        raise ValueError(f"energy and time must be matching (n, f) matrices, got {energy.shape} vs {time.shape}")
    n, f = energy.shape
    if freqs.shape != (f,):
        raise ValueError(f"freqs must have shape ({f},), got {freqs.shape}")
    if f < 1:
        raise ValueError("empty design space")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("freqs must be strictly ascending")
    if threshold is not None and threshold < 0:
        raise ValueError("threshold must be non-negative")
    if n == 0:
        return []

    scores = objective(energy, time)
    minimisers = np.argmin(scores, axis=1)
    # perfDeg = 1 - T(f_max) / T(f), positive where slower than f_max.
    degradation = 1.0 - time[:, -1:] / time

    indices = minimisers.copy()
    if threshold is not None:
        # The maximum frequency always satisfies a positive threshold
        # (degradation there is 0), and a zero threshold falls through to
        # f_max itself.
        rows = np.flatnonzero(degradation[np.arange(n), minimisers] >= threshold)
        for i in rows:
            k = int(minimisers[i])
            for j in range(k + 1, f):
                if degradation[i, j] < threshold:
                    indices[i] = j
                    break
            else:
                indices[i] = f - 1

    e_max = energy[:, -1]
    rows_at = np.arange(n)
    selected_energy = energy[rows_at, indices]
    selected_degradation = degradation[rows_at, indices]
    savings = np.where(e_max > 0, 1.0 - selected_energy / np.where(e_max > 0, e_max, 1.0), 0.0)
    name = objective.name
    # Batch the ndarray->python conversions (tolist / row-view iteration
    # run in C); per-element float()/int() calls dominate otherwise.
    return [
        SelectionResult(
            freq_mhz=freq,
            index=index,
            objective_name=name,
            scores=score_row,
            perf_degradation=deg,
            energy_saving=saving,
            threshold_applied=applied,
        )
        for freq, index, score_row, deg, saving, applied in zip(
            freqs[indices].tolist(),
            indices.tolist(),
            list(scores),
            selected_degradation.tolist(),
            savings.tolist(),
            # Whether the walk actually *moved* the selection: one that
            # lands back on the minimiser (threshold=0 with the minimiser
            # already at f_max) applied nothing.
            (indices != minimisers).tolist(),
        )
    ]
