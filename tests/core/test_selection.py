"""Algorithm 1 (optimal frequency selection) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ED2P, EDP, select_optimal_frequency
from repro.core.selection import select_optimal_frequency_many


def synthetic_curves(n=61):
    """U-shaped energy and 1/f-ish time over an ascending grid."""
    freqs = np.linspace(510.0, 1410.0, n)
    x = freqs / freqs[-1]
    time = 1.0 / x
    # Steep (voltage-ramp-like) power curve so EDP = P/x^2 is U-shaped
    # with an interior minimum rather than pinned at f_max.
    power = 50.0 + 450.0 * x**3.5
    energy = power * time
    return freqs, energy, time


class TestUnthresholded:
    def test_selects_objective_minimiser(self):
        freqs, energy, time = synthetic_curves()
        res = select_optimal_frequency(freqs, energy, time, objective=EDP)
        scores = energy * time
        assert res.index == int(np.argmin(scores))
        assert res.freq_mhz == freqs[res.index]

    def test_ed2p_selects_at_or_above_edp(self):
        """ED2P weights delay more, so its optimum is >= EDP's."""
        freqs, energy, time = synthetic_curves()
        edp = select_optimal_frequency(freqs, energy, time, objective=EDP)
        ed2p = select_optimal_frequency(freqs, energy, time, objective=ED2P)
        assert ed2p.freq_mhz >= edp.freq_mhz

    def test_objective_name_recorded(self):
        freqs, energy, time = synthetic_curves()
        assert select_optimal_frequency(freqs, energy, time, objective=ED2P).objective_name == "ED2P"

    def test_energy_saving_and_degradation_consistent(self):
        freqs, energy, time = synthetic_curves()
        res = select_optimal_frequency(freqs, energy, time, objective=EDP)
        i = res.index
        assert res.energy_saving == pytest.approx(1.0 - energy[i] / energy[-1])
        assert res.perf_degradation == pytest.approx(1.0 - time[-1] / time[i])

    def test_flat_curves_pick_first_minimum(self):
        freqs = np.array([500.0, 600.0, 700.0])
        energy = np.array([1.0, 1.0, 1.0])
        time = np.array([1.0, 1.0, 1.0])
        res = select_optimal_frequency(freqs, energy, time)
        assert res.index == 0


class TestThresholded:
    def test_threshold_walks_to_higher_clock(self):
        freqs, energy, time = synthetic_curves()
        free = select_optimal_frequency(freqs, energy, time, objective=EDP)
        tight = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=0.01)
        assert tight.freq_mhz > free.freq_mhz
        assert tight.threshold_applied
        assert tight.perf_degradation < 0.01

    def test_loose_threshold_no_walk(self):
        freqs, energy, time = synthetic_curves()
        free = select_optimal_frequency(freqs, energy, time, objective=EDP)
        loose = select_optimal_frequency(
            freqs, energy, time, objective=EDP, threshold=free.perf_degradation + 0.5
        )
        assert loose.freq_mhz == free.freq_mhz
        assert not loose.threshold_applied

    def test_zero_threshold_selects_fmax_on_monotone_time(self):
        freqs, energy, time = synthetic_curves()
        res = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=0.0)
        assert res.freq_mhz == freqs[-1]
        assert res.perf_degradation == 0.0

    def test_first_satisfying_clock_chosen(self):
        """The walk stops at the lowest admissible clock, not f_max."""
        freqs, energy, time = synthetic_curves()
        res = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=0.10)
        # The clock just below the selected one must violate the threshold.
        below = res.index - 1
        degradation_below = 1.0 - time[-1] / time[below]
        assert degradation_below >= 0.10
        assert res.perf_degradation < 0.10

    @given(threshold=st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_threshold_always_honored(self, threshold):
        freqs, energy, time = synthetic_curves()
        res = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=threshold)
        assert res.perf_degradation < threshold


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            select_optimal_frequency(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_descending_freqs_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            select_optimal_frequency(
                np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])
            )

    def test_negative_threshold_rejected(self):
        freqs, energy, time = synthetic_curves(5)
        with pytest.raises(ValueError, match="threshold"):
            select_optimal_frequency(freqs, energy, time, threshold=-0.1)

    def test_empty_design_space_rejected(self):
        with pytest.raises(ValueError):
            select_optimal_frequency(np.array([]), np.array([]), np.array([]))


class TestPropertyGrid:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_selected_freq_always_in_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 40)
        freqs = np.sort(rng.uniform(100, 2000, size=n))
        freqs += np.arange(n) * 1e-3  # enforce strictly ascending
        energy = rng.uniform(10, 1000, size=n)
        time = rng.uniform(0.1, 10, size=n)
        res = select_optimal_frequency(freqs, energy, time, objective=ED2P)
        assert res.freq_mhz in freqs
        assert 0 <= res.index < n


def fuzzed_curves(seed, monotone):
    """Random (freqs, energy, time) curves, optionally DVFS-shaped.

    ``monotone`` produces the physically typical shape — time strictly
    decreasing with clock (so degradation vs f_max is non-negative and
    decreasing) and U-ish energy.  The non-monotone variant draws both
    curves freely, which is what noisy model predictions can look like.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    freqs = np.sort(rng.uniform(100, 2000, size=n)) + np.arange(n) * 1e-3
    if monotone:
        time = np.sort(rng.uniform(0.1, 10, size=n))[::-1].copy()
        x = freqs / freqs[-1]
        power = rng.uniform(20, 80) + rng.uniform(100, 500) * x ** rng.uniform(1.5, 4.0)
        energy = power * time
    else:
        time = rng.uniform(0.1, 10, size=n)
        energy = rng.uniform(10, 1000, size=n)
    return freqs, energy, time


class TestAlgorithm1Properties:
    """Invariants of the threshold walk over fuzzed curves.

    These are the Algorithm 1 contracts the serving layer (and Table 6)
    lean on: the walk only ever moves *upward* from the raw minimiser,
    it ends either under the threshold or at f_max, and the
    ``threshold_applied`` flag records exactly whether it moved.
    """

    @given(
        seed=st.integers(0, 10_000),
        monotone=st.booleans(),
        objective=st.sampled_from([EDP, ED2P]),
        threshold=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_walk_invariants(self, seed, monotone, objective, threshold):
        freqs, energy, time = fuzzed_curves(seed, monotone)
        res = select_optimal_frequency(
            freqs, energy, time, objective=objective, threshold=threshold
        )
        raw = int(np.argmin(objective(energy, time)))

        if threshold is None:
            assert res.index == raw
            assert not res.threshold_applied
        else:
            # The walk never moves below the raw minimiser.
            assert res.index >= raw
            # It terminates under the threshold, or at f_max when no
            # clock above the minimiser satisfies it.
            degradation = 1.0 - time[-1] / time
            if res.perf_degradation >= threshold:
                assert res.index == len(freqs) - 1
                assert not np.any(degradation[raw:] < threshold)
        # The flag records movement, exactly.
        assert res.threshold_applied == (res.index != raw)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone_time_threshold_always_satisfiable(self, seed):
        """With time decreasing in clock, a positive threshold is always met."""
        freqs, energy, time = fuzzed_curves(seed, monotone=True)
        res = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=0.05)
        assert res.perf_degradation < 0.05

    def test_zero_threshold_minimiser_at_fmax_flag_clear(self):
        """threshold=0 with the minimiser already at f_max must not flag.

        Regression test: the walk loop is empty here (k == n-1) and the
        for-else used to land on f_max with ``threshold_applied=True``
        despite not moving.
        """
        freqs = np.array([500.0, 600.0, 700.0])
        time = np.array([3.0, 2.0, 1.0])
        energy = np.array([9.0, 6.0, 1.0])  # minimiser at f_max
        res = select_optimal_frequency(freqs, energy, time, objective=EDP, threshold=0.0)
        assert res.index == 2
        assert res.freq_mhz == 700.0
        assert not res.threshold_applied
        assert res.perf_degradation == 0.0


def _algorithm1_row(freqs, energy, time, objective, threshold):
    """Plain-Python Algorithm 1 over one row: the batched path's oracle.

    Argmin of the objective (first minimum), then, when the minimiser
    violates the threshold, the first clock above it whose degradation
    is under the threshold (else f_max); savings and degradation are
    taken against f_max.
    """
    scores = objective(energy, time)
    n = len(freqs)
    k = min(range(n), key=lambda j: scores[j])
    t = [float(v) for v in time]
    e = [float(v) for v in energy]
    degradation = [1.0 - t[-1] / t[j] for j in range(n)]
    index = k
    if threshold is not None and degradation[k] >= threshold:
        index = next((j for j in range(k + 1, n) if degradation[j] < threshold), n - 1)
    return {
        "index": index,
        "freq_mhz": float(freqs[index]),
        "scores": scores,
        "perf_degradation": degradation[index],
        "energy_saving": 1.0 - e[index] / e[-1] if e[-1] > 0 else 0.0,
        "threshold_applied": index != k,
    }


class TestSelectMany:
    @given(
        seed=st.integers(0, 2_000),
        objective=st.sampled_from([EDP, ED2P]),
        threshold=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_calls(self, seed, objective, threshold):
        rng = np.random.default_rng(seed)
        n_apps, n_freqs = int(rng.integers(1, 8)), int(rng.integers(3, 30))
        freqs = np.sort(rng.uniform(100, 2000, size=n_freqs)) + np.arange(n_freqs) * 1e-3
        energy = rng.uniform(10, 1000, size=(n_apps, n_freqs))
        time = rng.uniform(0.1, 10, size=(n_apps, n_freqs))
        batched = select_optimal_frequency_many(
            freqs, energy, time, objective=objective, threshold=threshold
        )
        assert len(batched) == n_apps
        for i, got in enumerate(batched):
            want = _algorithm1_row(freqs, energy[i], time[i], objective, threshold)
            assert got.index == want["index"]
            assert got.freq_mhz == want["freq_mhz"]
            assert got.energy_saving == want["energy_saving"]
            assert got.perf_degradation == want["perf_degradation"]
            assert got.threshold_applied == want["threshold_applied"]
            assert got.scores.tobytes() == want["scores"].tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            select_optimal_frequency_many(np.zeros(3), np.zeros((2, 3)), np.zeros((3, 3)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            select_optimal_frequency_many(np.zeros(3), np.zeros(3), np.zeros(3))
