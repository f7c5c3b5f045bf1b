"""Numpy fluid relaxation: the oracle for :class:`FluidRelaxationSolver`.

This is the array-at-a-time implementation the shipped scalar solver
replaced. It runs one numpy call per event on arrays of the active jobs
(rates from :func:`_density_fill`, a vectorized finish-time minimum) and
inverts each job's work curve with :func:`_invert_curve_batch`. The
shipped solver must produce exactly the same ``x_hat``, ``h`` and
``objective`` floats (``tests/schedulers/test_fluid_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import SolverError
from repro.core.job import ProblemInstance
from repro.core.types import TaskRef
from repro.schedulers.relaxation import (
    RelaxationResult,
    _middle_completion,
    _water_fill,
)


@dataclass(slots=True)
class OracleFluidSolver:
    """Same knobs as :class:`FluidRelaxationSolver`, numpy event loop."""

    harmonic: bool = False
    fair_share: bool = False

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        jobs = instance.jobs
        num_jobs = len(jobs)
        if self.harmonic:
            rep = instance.num_gpus / (
                (1.0 / (instance.train_time + instance.sync_time)).sum(axis=1)
            )
        else:
            rep = (instance.train_time + instance.sync_time).mean(axis=1)

        total_work = np.array(
            [jobs[n].num_rounds * jobs[n].sync_scale * rep[n] for n in range(num_jobs)]
        )
        remaining = total_work.copy()
        weights = np.array([j.weight for j in jobs], dtype=float)
        caps = np.array([float(j.sync_scale) for j in jobs])
        arrivals = np.array([j.arrival for j in jobs])

        # Work-completed breakpoints: (time, done) piecewise-linear curves.
        breakpoints: list[list[tuple[float, float]]] = [
            [(arrivals[n], 0.0)] for n in range(num_jobs)
        ]
        active = np.zeros(num_jobs, dtype=bool)
        finished = np.zeros(num_jobs, dtype=bool)
        t = 0.0
        capacity = float(instance.num_gpus)
        pending_arrivals = sorted(range(num_jobs), key=lambda n: arrivals[n])
        arr_ptr = 0
        guard = 0
        while not finished.all():
            guard += 1
            if guard > 8 * num_jobs + 64:  # pragma: no cover - defensive
                raise SolverError("fluid solver failed to converge")
            while arr_ptr < num_jobs and arrivals[pending_arrivals[arr_ptr]] <= t + 1e-12:
                n = pending_arrivals[arr_ptr]
                if not finished[n]:
                    active[n] = True
                arr_ptr += 1
            act = np.where(active)[0]
            if len(act) == 0:
                if arr_ptr >= num_jobs:
                    raise SolverError(
                        "fluid solver: no active jobs and none arriving"
                    )  # pragma: no cover - defensive
                t = float(arrivals[pending_arrivals[arr_ptr]])
                continue
            if self.fair_share:
                rates = _water_fill(weights[act], caps[act], capacity)
            else:
                rates = _density_fill(
                    weights[act], total_work[act], caps[act], capacity
                )
            # Next event: a job finishing or the next arrival.
            with np.errstate(divide="ignore"):
                finish_dt = np.where(rates > 0, remaining[act] / rates, np.inf)
            dt = float(finish_dt.min())
            next_arrival = (
                float(arrivals[pending_arrivals[arr_ptr]])
                if arr_ptr < num_jobs
                else np.inf
            )
            dt = min(dt, next_arrival - t)
            if not np.isfinite(dt) or dt < 0:
                raise SolverError("fluid solver produced a bad step")
            t_next = t + dt
            for idx, n in enumerate(act):
                done_before = total_work[n] - remaining[n]
                remaining[n] = max(0.0, remaining[n] - rates[idx] * dt)
                done_after = total_work[n] - remaining[n]
                if done_after > done_before:
                    breakpoints[n].append((t_next, done_after))
                if remaining[n] <= 1e-12:
                    finished[n] = True
                    active[n] = False
            t = t_next

        # Invert the work curves to get round start times (batched per job:
        # one searchsorted over all round targets instead of a Python scan
        # per round).
        x_hat: dict[TaskRef, float] = {}
        for n, job in enumerate(jobs):
            round_work = job.sync_scale * rep[n]
            targets = np.arange(job.num_rounds) * round_work
            starts = _invert_curve_batch(breakpoints[n], targets)
            for r in range(job.num_rounds):
                start = float(starts[r])
                for d in range(job.sync_scale):
                    x_hat[TaskRef(n, r, d)] = start

        h = _middle_completion(instance, x_hat)
        objective = float(
            sum(
                jobs[n].weight * breakpoints[n][-1][0]
                for n in range(num_jobs)
            )
        )
        return RelaxationResult(x_hat=x_hat, h=h, objective=objective)


def _density_fill(
    weights: np.ndarray,
    total_work: np.ndarray,
    caps: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """WSPT-priority rates: densest jobs first, each capped at sync_scale.

    Density is ``w_n / total work`` (static, so a job's priority does not
    drift as it progresses — the classic WSPT rule). Ties break toward the
    lower index for determinism.
    """
    n = len(weights)
    density = weights / np.maximum(total_work, 1e-300)
    order = sorted(range(n), key=lambda i: (-density[i], i))
    rates = np.zeros(n)
    remaining = capacity
    for i in order:
        if remaining <= 1e-15:
            break
        give = min(caps[i], remaining)
        rates[i] = give
        remaining -= give
    return rates


def _invert_curve(curve: list[tuple[float, float]], target: float) -> float:
    """Earliest time the piecewise-linear work curve reaches *target*.

    *target* is clamped to the curve's final work value: accumulated float
    drift can make the last round's target overshoot the total work by
    ~1e-12, and falling off the end would date that round at the job's
    completion instant instead of interpolating inside the last segment.
    """
    w_end = curve[-1][1]
    if target > w_end:
        target = w_end
    if target <= 0:
        return curve[0][0]
    for (t0, w0), (t1, w1) in zip(curve, curve[1:]):
        if w1 < w0:
            raise SolverError("work curve is not monotone")
        if w1 >= target - 1e-12:
            if w1 == w0:
                return t1
            frac = (target - w0) / (w1 - w0)
            return t0 + frac * (t1 - t0)
    return curve[-1][0]  # pragma: no cover - unreachable after clamping


def _invert_curve_batch(
    curve: list[tuple[float, float]], targets: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_invert_curve` over many targets at once.

    Matches the scalar routine bit-for-bit: the segment index from
    ``searchsorted`` reproduces the scalar scan's first ``w1 >= target -
    1e-12`` hit, and the interpolation uses the identical expression.
    """
    times = np.array([t for t, _ in curve])
    works = np.array([w for _, w in curve])
    if np.any(np.diff(works) < 0):
        raise SolverError("work curve is not monotone")
    clamped = np.minimum(targets, works[-1])
    if len(curve) == 1:
        return np.full(len(targets), times[0])
    # First segment end j >= 1 with works[j] >= target - 1e-12.
    j = np.maximum(np.searchsorted(works, clamped - 1e-12, side="left"), 1)
    w0 = works[j - 1]
    w1 = works[j]
    t0 = times[j - 1]
    t1 = times[j]
    flat = w1 == w0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (clamped - w0) / np.where(flat, 1.0, w1 - w0)
    starts = np.where(flat, t1, t0 + frac * (t1 - t0))
    return np.where(clamped <= 0, times[0], starts)
