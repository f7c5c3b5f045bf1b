"""The scalar fluid relaxation against its numpy oracle, float for float.

:class:`FluidRelaxationSolver` runs its event loop on Python floats; the
numpy formulation it replaced lives in ``tests/oracles/fluid.py``. Both
perform the same IEEE operations in the same order, so ``x_hat``, ``h``
and ``objective`` must compare equal with ``==`` — any drift would move
Hare's ordering and every schedule built from it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, ProblemInstance
from repro.core.errors import SolverError
from repro.schedulers import FluidRelaxationSolver
from tests.conftest import make_random_instance
from tests.oracles.fluid import OracleFluidSolver

# Zero or infinite weights make the fair-share split divide 0 by 0 or inf
# by inf, and subnormal rates overflow a finish time; both solvers must
# agree on those floats too.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*encountered in divide:RuntimeWarning"
)

VARIANTS = [
    {},
    {"harmonic": True},
    {"fair_share": True},
    {"harmonic": True, "fair_share": True},
]


def _job(n: int, *, weight: float, **kwargs) -> Job:
    job = Job(job_id=n, model=f"m{n}", **kwargs)
    # Job rejects weight 0; the solvers must still agree on one (its WSPT
    # density is 0, tied with every other zero-weight job).
    object.__setattr__(job, "weight", weight)
    return job


def assert_matches_oracle(instance: ProblemInstance, **variant) -> None:
    try:
        expected = OracleFluidSolver(**variant).solve(instance)
    except SolverError as exc:
        with pytest.raises(SolverError, match=str(exc)):
            FluidRelaxationSolver(**variant).solve(instance)
        return
    got = FluidRelaxationSolver(**variant).solve(instance)
    assert got.x_hat == expected.x_hat
    assert got.h == expected.h
    assert got.objective == expected.objective
    assert list(got.x_hat) == list(expected.x_hat)


# Arrivals: a few shared instants (simultaneous arrivals) or anywhere on a
# span long enough for the cluster to drain between them (idle gaps).
ARRIVALS = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.5]),
    st.floats(0.0, 200.0, allow_nan=False),
)
# Weights include 0 and the smallest subnormal, whose density underflows
# to 0 as well.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.0, 2.0]),
    st.floats(0.01, 10.0, allow_nan=False),
)
TIMES = st.floats(0.01, 20.0, allow_nan=False)


@st.composite
def instances(draw) -> ProblemInstance:
    num_gpus = draw(st.integers(1, 5))
    num_jobs = draw(st.integers(1, 7))
    jobs = [
        _job(
            n,
            weight=draw(WEIGHTS),
            arrival=draw(ARRIVALS),
            num_rounds=draw(st.integers(1, 6)),
            # Up to beyond the cluster size: the fluid caps the rate at
            # sync_scale, which then exceeds the capacity.
            sync_scale=draw(st.integers(1, 7)),
        )
        for n in range(num_jobs)
    ]
    shape = (num_jobs, num_gpus)
    train = np.array(draw(st.lists(TIMES, min_size=num_jobs * num_gpus,
                                   max_size=num_jobs * num_gpus)))
    sync = np.array(draw(st.lists(
        st.one_of(st.just(0.0), TIMES),
        min_size=num_jobs * num_gpus, max_size=num_jobs * num_gpus,
    )))
    return ProblemInstance(
        jobs=jobs, train_time=train.reshape(shape), sync_time=sync.reshape(shape)
    )


class TestMatchesOracle:
    @given(instance=instances(), variant=st.sampled_from(VARIANTS))
    @settings(max_examples=300, deadline=None)
    def test_drawn_instances(self, instance, variant):
        assert_matches_oracle(instance, **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_random_instances(self, variant):
        for seed in range(60):
            inst = make_random_instance(
                seed, max_jobs=8, max_gpus=5, max_rounds=4, max_scale=4
            )
            assert_matches_oracle(inst, **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_paper_scale_instance(self, variant, small_instance):
        assert_matches_oracle(small_instance, **variant)


class TestEdgeCases:
    """Each case the event loop branches on, for every variant."""

    @staticmethod
    def instance(jobs, num_gpus, seed=0):
        rng = np.random.default_rng(seed)
        shape = (len(jobs), num_gpus)
        return ProblemInstance(
            jobs=jobs,
            train_time=rng.uniform(0.5, 3.0, shape),
            sync_time=rng.uniform(0.0, 0.5, shape),
        )

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_simultaneous_arrivals(self, variant):
        jobs = [
            _job(n, weight=1.0 + n % 2, arrival=1.5, num_rounds=3,
                 sync_scale=2)
            for n in range(5)
        ]
        assert_matches_oracle(self.instance(jobs, 4), **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_idle_gaps_between_arrivals(self, variant):
        # Each job drains long before the next arrives; the middle pair
        # overlaps, so the starved job's curve jumps over its stall.
        jobs = [
            _job(0, weight=1.0, arrival=0.0, num_rounds=2, sync_scale=1),
            _job(1, weight=1.0, arrival=100.0, num_rounds=4, sync_scale=2),
            _job(2, weight=5.0, arrival=101.0, num_rounds=2, sync_scale=2),
            _job(3, weight=1.0, arrival=500.0, num_rounds=1, sync_scale=1),
        ]
        assert_matches_oracle(self.instance(jobs, 2), **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_single_gpu(self, variant):
        jobs = [
            _job(n, weight=float(n + 1), arrival=0.5 * n, num_rounds=3,
                 sync_scale=1 + n % 2)
            for n in range(4)
        ]
        assert_matches_oracle(self.instance(jobs, 1), **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_sync_scale_above_num_gpus(self, variant):
        jobs = [
            _job(0, weight=2.0, arrival=0.0, num_rounds=3, sync_scale=6),
            _job(1, weight=1.0, arrival=0.2, num_rounds=2, sync_scale=1),
        ]
        assert_matches_oracle(self.instance(jobs, 3), **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_zero_weight_jobs(self, variant):
        jobs = [
            _job(0, weight=0.0, arrival=0.0, num_rounds=2, sync_scale=2),
            _job(1, weight=3.0, arrival=0.0, num_rounds=3, sync_scale=1),
            _job(2, weight=0.0, arrival=1.0, num_rounds=2, sync_scale=1),
            _job(3, weight=5e-324, arrival=1.0, num_rounds=1, sync_scale=2),
        ]
        assert_matches_oracle(self.instance(jobs, 2), **variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_infinite_weight(self, variant):
        # Job accepts weight inf; the fair split then hands it a NaN rate.
        jobs = [
            _job(0, weight=float("inf"), arrival=0.0, num_rounds=2,
                 sync_scale=1),
            _job(1, weight=1.0, arrival=0.0, num_rounds=2, sync_scale=1),
            _job(2, weight=1.0, arrival=3.0, num_rounds=1, sync_scale=2),
        ]
        assert_matches_oracle(self.instance(jobs, 2), **variant)
