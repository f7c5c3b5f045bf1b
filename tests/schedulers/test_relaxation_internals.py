"""Unit tests for relaxation-solver internals (fills, curves, cuts).

The density fill and curve inversions tested here belong to the numpy
fluid oracle (``tests/oracles/fluid.py``) the shipped solver is checked
against; the water fill is still shipped.
"""

import numpy as np
import pytest

from repro.core import SolverError
from repro.schedulers.relaxation import _water_fill
from tests.oracles.fluid import (
    _density_fill,
    _invert_curve,
    _invert_curve_batch,
)


class TestWaterFill:
    def test_proportional_when_uncapped(self):
        rates = _water_fill(
            np.array([1.0, 3.0]), np.array([10.0, 10.0]), 4.0
        )
        np.testing.assert_allclose(rates, [1.0, 3.0])

    def test_caps_respected_and_redistributed(self):
        rates = _water_fill(
            np.array([1.0, 1.0]), np.array([0.5, 10.0]), 4.0
        )
        np.testing.assert_allclose(rates, [0.5, 3.5])

    def test_total_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 5.0, n)
            caps = rng.uniform(0.1, 3.0, n)
            cap = float(rng.uniform(0.5, 8.0))
            rates = _water_fill(w, caps, cap)
            assert rates.sum() <= cap + 1e-9
            assert (rates <= caps + 1e-12).all()
            assert (rates >= 0).all()

    def test_surplus_capacity_all_capped(self):
        rates = _water_fill(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 10.0)
        np.testing.assert_allclose(rates, [1.0, 1.0])


class TestDensityFill:
    def test_densest_served_first(self):
        # job1 denser (w/work = 2/1) than job0 (1/1): job1 gets its cap
        rates = _density_fill(
            np.array([1.0, 2.0]),
            np.array([1.0, 1.0]),
            np.array([3.0, 3.0]),
            4.0,
        )
        np.testing.assert_allclose(rates, [1.0, 3.0])

    def test_starves_low_density_under_scarcity(self):
        rates = _density_fill(
            np.array([1.0, 5.0]),
            np.array([10.0, 1.0]),
            np.array([2.0, 2.0]),
            2.0,
        )
        np.testing.assert_allclose(rates, [0.0, 2.0])

    def test_tie_breaks_by_index(self):
        rates = _density_fill(
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([2.0, 2.0]),
            2.0,
        )
        np.testing.assert_allclose(rates, [2.0, 0.0])

    def test_capacity_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 5.0, n)
            work = rng.uniform(0.1, 5.0, n)
            caps = rng.uniform(0.1, 3.0, n)
            cap = float(rng.uniform(0.5, 8.0))
            rates = _density_fill(w, work, caps, cap)
            assert rates.sum() <= cap + 1e-9
            assert (rates <= caps + 1e-12).all()


class TestInvertCurve:
    CURVE = [(0.0, 0.0), (2.0, 4.0), (5.0, 4.0), (6.0, 6.0)]

    def test_zero_target_is_curve_start(self):
        assert _invert_curve(self.CURVE, 0.0) == 0.0

    def test_linear_interpolation(self):
        assert _invert_curve(self.CURVE, 2.0) == pytest.approx(1.0)

    def test_flat_segment_skipped(self):
        # work 4.0 is first reached at t=2.0, not during the stall
        assert _invert_curve(self.CURVE, 4.0) == pytest.approx(2.0)

    def test_after_stall(self):
        assert _invert_curve(self.CURVE, 5.0) == pytest.approx(5.5)

    def test_target_beyond_curve_clamps_to_end(self):
        assert _invert_curve(self.CURVE, 100.0) == 6.0

    def test_float_drift_past_final_work_clamps(self):
        """num_rounds * round_work can land 1 ulp above the curve's total
        work; the inversion must clamp instead of running off the end."""
        assert _invert_curve(self.CURVE, 6.0 + 1e-12) == 6.0

    def test_non_monotone_curve_rejected(self):
        # The decreasing segment sits before the target, so the scalar
        # scan must trip over it rather than interpolate earlier.
        bad = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
        with pytest.raises(SolverError, match="not monotone"):
            _invert_curve(bad, 2.5)


class TestInvertCurveBatch:
    CURVE = TestInvertCurve.CURVE

    def test_matches_scalar_on_pinned_curve(self):
        targets = np.array([0.0, -1.0, 2.0, 4.0, 5.0, 6.0, 6.0 + 1e-12, 100.0])
        batch = _invert_curve_batch(self.CURVE, targets)
        scalar = np.array([_invert_curve(self.CURVE, float(t)) for t in targets])
        assert np.array_equal(batch, scalar)

    def test_matches_scalar_on_random_curves(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n))])
            # Random non-decreasing work, with occasional flat segments.
            steps = rng.uniform(0.0, 3.0, n)
            steps[rng.random(n) < 0.3] = 0.0
            works = np.concatenate([[0.0], np.cumsum(steps)])
            curve = list(zip(times.tolist(), works.tolist()))
            targets = rng.uniform(-1.0, works[-1] + 1.0, 16)
            batch = _invert_curve_batch(curve, targets)
            scalar = np.array(
                [_invert_curve(curve, float(t)) for t in targets]
            )
            assert np.array_equal(batch, scalar)

    def test_single_point_curve(self):
        batch = _invert_curve_batch([(3.0, 0.0)], np.array([0.0, 1.0]))
        assert np.array_equal(batch, [3.0, 3.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(SolverError, match="not monotone"):
            _invert_curve_batch(
                [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)], np.array([0.5])
            )


class TestCutSeparation:
    def test_violated_prefix_found_and_fixed(self):
        """Craft an instance whose initial LP (full-set cut only) violates a
        prefix; the solver must add cuts until all prefixes hold."""
        import numpy as np

        from repro.core import Job, ProblemInstance
        from repro.schedulers import ExactRelaxationSolver

        # 3 equal sequential-ish tasks on one GPU with varied weights: the
        # optimal LP point pushes cheap tasks early, stressing prefixes.
        jobs = [
            Job(job_id=n, model=f"m{n}", weight=w)
            for n, w in enumerate((1.0, 5.0, 2.0))
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0], [1.0], [1.0]]),
            sync_time=np.zeros((3, 1)),
        )
        solver = ExactRelaxationSolver()
        res = solver.solve(inst)
        # all prefixes of the x̂-sorted order satisfy constraint (9)
        tasks = sorted(res.x_hat, key=lambda t: res.x_hat[t])
        q = np.ones(len(tasks))
        xs = np.array([res.x_hat[t] for t in tasks])
        for k in range(1, len(tasks) + 1):
            lhs = (q[:k] * (xs[:k] + q[:k])).sum()
            rhs = 0.5 * (q[:k].sum() ** 2 + (q[:k] ** 2).sum())
            assert lhs >= rhs - 1e-6
        # single machine, unit tasks: the relaxation objective equals the
        # WSPT optimum 5*1 + 2*2 + 1*3 = 12
        assert res.objective == pytest.approx(12.0, abs=1e-5)
