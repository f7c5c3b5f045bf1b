"""Step 1 of Hare's Algorithm 1: solving the relaxed problem Hare_Sched_RL.

The paper relaxes the non-linear non-preemption constraint (8) into
Queyranne's polyhedral constraint (9) and solves the resulting
mixed-integer quadratic program with CPLEX/Gurobi. Neither solver is
available here, so this module provides two substitutes (documented in
DESIGN.md):

:class:`ExactRelaxationSolver`
    Fixes the GPU assignment ``ŷ`` with a speed-aware greedy (min-increase
    of machine load), then solves the remaining *linear* program over start
    times with **Queyranne cutting planes**: constraint (9) must hold for
    every prefix of tasks on a machine (that is exactly what Lemma 2 uses),
    and the most violated prefix is found by sorting tasks by ``x̂`` —
    the classical separation routine for this polyhedron. Optionally
    re-derives ``ŷ`` from the solved ``x̂`` and iterates.

:class:`FluidRelaxationSolver`
    A fluid approximation for large instances, solved in one scalar event
    loop: arrived jobs share the cluster's aggregate capacity in WSPT
    order (capped by their sync scale), and ``x̂`` of a round is the fluid
    time its work starts. Produces the same *ordering signal* ``H_i`` that
    Algorithm 1 consumes; tests compare it against the exact solver on
    small instances.

Both return :class:`RelaxationResult` with ``x̂_i`` and the middle
completion times ``H_i = x̂_i + ½·max_m T^c_{i,m}`` that drive the list
scheduling of step 2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Protocol

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..core.errors import SolverError
from ..core.job import ProblemInstance
from ..core.types import TaskRef

try:  # scipy vendors the HiGHS pybind API; no standalone highspy needed.
    from scipy.optimize._highspy import _core as _highs_core
except Exception:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None


@dataclass(frozen=True, slots=True)
class RelaxationResult:
    """Solution of the relaxed scheduling problem."""

    #: Relaxed start time x̂_i per task.
    x_hat: dict[TaskRef, float]
    #: Middle completion time H_i = x̂_i + max_m T^c_{i,m} / 2.
    h: dict[TaskRef, float]
    #: Objective value of the relaxation (Σ w_n Ĉ_n).
    objective: float
    #: Assignment ŷ used by the solver (empty for the fluid solver).
    y_hat: dict[TaskRef, int] = field(default_factory=dict)
    #: Solver diagnostics.
    iterations: int = 0
    cuts_added: int = 0

    def ordering(self) -> list[TaskRef]:
        """Tasks sorted by non-descending H (Algorithm 1, line 4).

        Ties break by (job, round, slot) so the order is deterministic and
        respects round precedence within a job whenever H values tie.
        """
        return sorted(
            self.x_hat,
            key=lambda t: (self.h[t], t.job_id, t.round_idx, t.slot),
        )


class RelaxationSolver(Protocol):
    """Anything that can produce x̂ / H for Algorithm 1."""

    def solve(self, instance: ProblemInstance) -> RelaxationResult: ...


def _middle_completion(
    instance: ProblemInstance, x_hat: dict[TaskRef, float]
) -> dict[TaskRef, float]:
    half_max_tc = instance.train_time.max(axis=1) / 2.0
    return {t: x + float(half_max_tc[t.job_id]) for t, x in x_hat.items()}


def greedy_assignment(instance: ProblemInstance) -> dict[TaskRef, int]:
    """Speed-aware greedy ŷ: each task to the GPU minimizing load + T^c.

    Tasks are visited in (arrival, job, round, slot) order; per-GPU load is
    the accumulated compute time. This is the classical list-scheduling
    assignment for unrelated machines and serves as the fixed ŷ for the
    cutting-plane LP.
    """
    load = np.zeros(instance.num_gpus)
    y: dict[TaskRef, int] = {}
    ordered = sorted(
        instance.all_tasks(),
        key=lambda t: (
            instance.jobs[t.job_id].arrival,
            t.job_id,
            t.round_idx,
            t.slot,
        ),
    )
    for task in ordered:
        tc_row = instance.train_time[task.job_id]
        m = int(np.argmin(load + tc_row))
        y[task] = m
        load[m] += tc_row[m]
    return y


class _LinprogCutLp:
    """Fallback cut-loop backend: re-solve the grown CSR with ``linprog``.

    Rows are appended incrementally (``sparse.vstack`` of CSR blocks, never
    a from-scratch COO rebuild), but each :meth:`solve` is a cold start.
    """

    warm_started = False

    def __init__(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> None:
        self._c = c
        self._bounds = [(float(v), None) for v in lb]
        self._a_ub = a_ub
        self._rhs = list(rhs)

    def add_rows(self, block: sparse.csr_matrix, rhs_block: list[float]) -> None:
        self._a_ub = sparse.vstack([self._a_ub, block], format="csr")
        self._rhs.extend(rhs_block)

    def solve(self) -> tuple[np.ndarray, float]:
        res = linprog(
            self._c,
            A_ub=self._a_ub,
            b_ub=np.array(self._rhs),
            bounds=self._bounds,
            method="highs",
        )
        if not res.success:
            raise SolverError(f"LP failed: {res.message}")
        return res.x, float(res.fun)


class _HighsCutLp:
    """Warm-started cut-loop backend on scipy's vendored HiGHS.

    The LP lives inside one persistent ``Highs`` model: separated cuts are
    appended with ``addRows`` and each re-solve starts from the previous
    round's simplex basis, so a cut round typically costs a handful of
    dual-simplex pivots instead of a full solve.
    """

    warm_started = True

    def __init__(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> None:
        core = _highs_core
        self._core = core
        n_vars = len(c)
        h = core._Highs()
        h.setOptionValue("output_flag", False)
        lp = core.HighsLp()
        lp.num_col_ = n_vars
        lp.num_row_ = a_ub.shape[0]
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.asarray(lb, dtype=float)
        lp.col_upper_ = np.full(n_vars, core.kHighsInf)
        lp.row_lower_ = np.full(a_ub.shape[0], -core.kHighsInf)
        lp.row_upper_ = np.asarray(rhs, dtype=float)
        lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = a_ub.indptr
        lp.a_matrix_.index_ = a_ub.indices
        lp.a_matrix_.value_ = a_ub.data
        if h.passModel(lp) != core.HighsStatus.kOk:
            raise SolverError("HiGHS rejected the cut-loop LP model")
        self._h = h

    def add_rows(self, block: sparse.csr_matrix, rhs_block: list[float]) -> None:
        core = self._core
        k = block.shape[0]
        status = self._h.addRows(
            k,
            np.full(k, -core.kHighsInf),
            np.asarray(rhs_block, dtype=float),
            block.nnz,
            block.indptr,
            block.indices,
            block.data,
        )
        if status != core.HighsStatus.kOk:
            raise SolverError("HiGHS rejected appended cut rows")

    def solve(self) -> tuple[np.ndarray, float]:
        core = self._core
        if self._h.run() != core.HighsStatus.kOk:
            raise SolverError("HiGHS run failed in the cut loop")
        model_status = self._h.getModelStatus()
        if model_status != core.HighsModelStatus.kOptimal:
            raise SolverError(f"LP failed: HiGHS status {model_status}")
        x = np.asarray(self._h.getSolution().col_value, dtype=float)
        return x, float(self._h.getInfo().objective_function_value)


@dataclass(slots=True)
class ExactRelaxationSolver:
    """LP over start times with Queyranne prefix cuts (fixed greedy ŷ)."""

    max_cut_rounds: int = 25
    cut_tolerance: float = 1e-6
    #: Re-derive ŷ from the solved x̂ and re-solve this many extra times.
    reassignment_rounds: int = 0
    #: Cut-loop LP backend: "auto" picks the warm-started in-process HiGHS
    #: when scipy exposes it, else the cold-start ``linprog`` fallback.
    lp_backend: str = "auto"

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        y = greedy_assignment(instance)
        result = self._solve_fixed_y(instance, y)
        for _ in range(self.reassignment_rounds):
            y = self._reassign(instance, result)
            result = self._solve_fixed_y(instance, y)
        return result

    # ------------------------------------------------------------------
    def _reassign(
        self, instance: ProblemInstance, result: RelaxationResult
    ) -> dict[TaskRef, int]:
        """New ŷ: sweep tasks in x̂ order, place on least-loaded GPU."""
        load = np.zeros(instance.num_gpus)
        y: dict[TaskRef, int] = {}
        for task in sorted(result.x_hat, key=lambda t: result.x_hat[t]):
            tc_row = instance.train_time[task.job_id]
            m = int(np.argmin(load + tc_row))
            y[task] = m
            load[m] += tc_row[m]
        return y

    def _make_backend(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> _LinprogCutLp | _HighsCutLp:
        backend = self.lp_backend
        if backend == "auto":
            backend = "highs" if _highs_core is not None else "linprog"
        if backend == "highs":
            if _highs_core is None:
                raise SolverError(
                    "lp_backend='highs' needs scipy's vendored highspy "
                    "(scipy.optimize._highspy); use 'auto' or 'linprog'"
                )
            return _HighsCutLp(c, lb, a_ub, rhs)
        if backend == "linprog":
            return _LinprogCutLp(c, lb, a_ub, rhs)
        raise SolverError(
            f"unknown lp_backend {self.lp_backend!r}: "
            "expected 'auto', 'highs', or 'linprog'"
        )

    def _solve_fixed_y(
        self, instance: ProblemInstance, y: dict[TaskRef, int]
    ) -> RelaxationResult:
        tasks = list(instance.all_tasks())
        t_index = {t: i for i, t in enumerate(tasks)}
        n_x = len(tasks)

        # Barrier variables b_{n,r}, one per (job, round).
        b_index: dict[tuple[int, int], int] = {}
        for job in instance.jobs:
            for r in range(job.num_rounds):
                b_index[(job.job_id, r)] = n_x + len(b_index)
        n_vars = n_x + len(b_index)

        # Durations on the assigned GPU.
        p = np.array(
            [instance.task_time(t.job_id, y[t]) for t in tasks]
        )  # T^c + T^s
        q = np.array([instance.tc(t.job_id, y[t]) for t in tasks])  # T^c

        c = np.zeros(n_vars)
        for job in instance.jobs:
            c[b_index[(job.job_id, job.num_rounds - 1)]] = job.weight

        # Base constraint matrix built once as CSR triplets; cut rounds only
        # ever *append* row blocks after this.
        indptr: list[int] = [0]
        indices: list[int] = []
        data: list[float] = []
        rhs: list[float] = []

        def add_row(entries: list[tuple[int, float]], bound: float) -> None:
            for col, val in entries:
                indices.append(col)
                data.append(val)
            indptr.append(len(indices))
            rhs.append(bound)

        # (6)-style: x_i + p_i <= b_{n,r}
        for i, task in enumerate(tasks):
            add_row(
                [(i, 1.0), (b_index[(task.job_id, task.round_idx)], -1.0)],
                -p[i],
            )
        # (7): b_{n,r-1} <= x_j for j in round r
        for i, task in enumerate(tasks):
            if task.round_idx > 0:
                add_row(
                    [(b_index[(task.job_id, task.round_idx - 1)], 1.0), (i, -1.0)],
                    0.0,
                )

        # Machine task lists for cut separation.
        machine_tasks: dict[int, list[int]] = {}
        for i, task in enumerate(tasks):
            machine_tasks.setdefault(y[task], []).append(i)

        # Every cut ever emitted, keyed by its (order-independent) task set,
        # so near-degenerate prefixes are never re-separated across rounds.
        emitted: set[tuple[int, ...]] = set()

        def cut_row(subset: list[int]) -> tuple[list[tuple[int, float]], float]:
            qs = q[subset]
            bound = 0.5 * (qs.sum() ** 2 + (qs**2).sum())
            # sum q_i (x_i + q_i) >= bound  ->  -sum q_i x_i <= q.q - bound
            return (
                [(i, -float(q[i])) for i in subset],
                float((qs**2).sum()) - bound,
            )

        # Initial cuts: the full set on each machine (constraint (9) itself).
        for subset in machine_tasks.values():
            entries, bound = cut_row(subset)
            add_row(entries, bound)
            emitted.add(tuple(sorted(subset)))

        lb = np.zeros(n_vars)
        for i, task in enumerate(tasks):
            lb[i] = instance.jobs[task.job_id].arrival

        a_base = sparse.csr_matrix(
            (data, indices, indptr), shape=(len(rhs), n_vars)
        )
        lp = self._make_backend(c, lb, a_base, rhs)

        cuts_added = 0
        x_sol = np.zeros(n_vars)
        objective = 0.0
        iteration = 0
        for iteration in range(1, self.max_cut_rounds + 1):
            x_sol, objective = lp.solve()
            new_cuts = self._separate(machine_tasks, q, x_sol, emitted)
            if not new_cuts:
                break
            block_indptr: list[int] = [0]
            block_indices: list[int] = []
            block_data: list[float] = []
            block_rhs: list[float] = []
            for subset in new_cuts:
                entries, bound = cut_row(subset)
                for col, val in entries:
                    block_indices.append(col)
                    block_data.append(val)
                block_indptr.append(len(block_indices))
                block_rhs.append(bound)
            block = sparse.csr_matrix(
                (block_data, block_indices, block_indptr),
                shape=(len(new_cuts), n_vars),
            )
            block.sort_indices()
            lp.add_rows(block, block_rhs)
            cuts_added += len(new_cuts)

        x_hat = {t: float(x_sol[t_index[t]]) for t in tasks}
        return RelaxationResult(
            x_hat=x_hat,
            h=_middle_completion(instance, x_hat),
            objective=objective,
            y_hat=dict(y),
            iterations=iteration,
            cuts_added=cuts_added,
        )

    def _reference_solve_fixed_y(
        self, instance: ProblemInstance, y: dict[TaskRef, int]
    ) -> RelaxationResult:
        """Pre-vectorization cut loop, kept for the equivalence suite.

        Rebuilds the COO constraint matrix from scratch every round, cold-
        starts ``linprog`` each time, and never dedupes separated prefixes —
        the exact behaviour the incremental warm-started path must match
        (objective within 1e-9; see tests/schedulers/test_fastpath.py).
        """
        tasks = list(instance.all_tasks())
        t_index = {t: i for i, t in enumerate(tasks)}
        n_x = len(tasks)

        b_index: dict[tuple[int, int], int] = {}
        for job in instance.jobs:
            for r in range(job.num_rounds):
                b_index[(job.job_id, r)] = n_x + len(b_index)
        n_vars = n_x + len(b_index)

        p = np.array([instance.task_time(t.job_id, y[t]) for t in tasks])
        q = np.array([instance.tc(t.job_id, y[t]) for t in tasks])

        c = np.zeros(n_vars)
        for job in instance.jobs:
            c[b_index[(job.job_id, job.num_rounds - 1)]] = job.weight

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs: list[float] = []

        def add_row(entries: list[tuple[int, float]], bound: float) -> None:
            r = len(rhs)
            for col, val in entries:
                rows.append(r)
                cols.append(col)
                vals.append(val)
            rhs.append(bound)

        for i, task in enumerate(tasks):
            add_row(
                [(i, 1.0), (b_index[(task.job_id, task.round_idx)], -1.0)],
                -p[i],
            )
        for i, task in enumerate(tasks):
            if task.round_idx > 0:
                add_row(
                    [(b_index[(task.job_id, task.round_idx - 1)], 1.0), (i, -1.0)],
                    0.0,
                )

        machine_tasks: dict[int, list[int]] = {}
        for i, task in enumerate(tasks):
            machine_tasks.setdefault(y[task], []).append(i)

        def add_cut(subset: list[int]) -> None:
            qs = q[subset]
            bound = 0.5 * (qs.sum() ** 2 + (qs**2).sum())
            add_row([(i, -float(q[i])) for i in subset], float((qs**2).sum()) - bound)

        for subset in machine_tasks.values():
            add_cut(subset)

        lb = np.zeros(n_vars)
        for i, task in enumerate(tasks):
            lb[i] = instance.jobs[task.job_id].arrival
        bounds = [(float(lb[i]), None) for i in range(n_vars)]

        cuts_added = 0
        x_sol = np.zeros(n_vars)
        objective = 0.0
        iteration = 0
        for iteration in range(1, self.max_cut_rounds + 1):
            a_ub = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(len(rhs), n_vars)
            ).tocsr()
            res = linprog(
                c, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs"
            )
            if not res.success:
                raise SolverError(f"LP failed: {res.message}")
            x_sol = res.x
            objective = float(res.fun)
            new_cuts = self._separate(machine_tasks, q, x_sol)
            if not new_cuts:
                break
            for subset in new_cuts:
                add_cut(subset)
            cuts_added += len(new_cuts)

        x_hat = {t: float(x_sol[t_index[t]]) for t in tasks}
        return RelaxationResult(
            x_hat=x_hat,
            h=_middle_completion(instance, x_hat),
            objective=objective,
            y_hat=dict(y),
            iterations=iteration,
            cuts_added=cuts_added,
        )

    def _separate(
        self,
        machine_tasks: dict[int, list[int]],
        q: np.ndarray,
        x_sol: np.ndarray,
        emitted: set[tuple[int, ...]] | None = None,
    ) -> list[list[int]]:
        """Most-violated prefix constraint per machine (if any).

        With *emitted*, prefixes whose task set was already cut are skipped:
        the relative tolerance can otherwise re-separate the same near-
        degenerate prefix on consecutive rounds, growing the LP with
        duplicate rows until ``max_cut_rounds`` exhausts.
        """
        new_cuts: list[list[int]] = []
        for subset in machine_tasks.values():
            order = sorted(subset, key=lambda i: (x_sol[i], i))
            qs = q[order]
            xs = x_sol[order]
            lhs = np.cumsum(qs * xs)  # Σ q x over prefixes
            csum = np.cumsum(qs)
            csq = np.cumsum(qs**2)
            bound = 0.5 * (csum**2 + csq) - csq  # rhs of -Σqx <= ... inverted
            violation = bound - lhs  # >0 means prefix violated
            k = int(np.argmax(violation))
            if violation[k] > self.cut_tolerance * max(1.0, abs(bound[k])):
                prefix = order[: k + 1]
                if emitted is not None:
                    key = tuple(sorted(prefix))
                    if key in emitted:
                        continue
                    emitted.add(key)
                new_cuts.append(prefix)
        return new_cuts


@dataclass(slots=True)
class FluidRelaxationSolver:
    """Weighted-density fluid approximation of the relaxation.

    The cluster offers ``M`` GPU-equivalents of capacity. The MIQP's
    objective Σ w_n C_n implicitly favours heavy, short jobs, so the fluid
    serves arrived jobs in **weighted-shortest-processing-time order**
    (density ``w_n / total work``, the fluid-optimal single-server policy):
    the densest job receives capacity up to its ``sync_scale`` cap (a round
    cannot use more GPUs than it has tasks), then the next densest, until
    capacity runs out. A job's round is ``sync_scale`` tasks of its
    *cluster-average* task time; a round's ``x̂`` is the fluid time its
    work begins.

    With ``fair_share=True`` capacity is instead split proportionally to
    weights (max-min water-filling) — kept as an ablation of the priority
    rule.

    The event loop runs on plain Python floats: online Hare re-solves at
    every arrival with a dozen or so active jobs, where the fixed cost of
    a numpy call outweighs its arithmetic. Python floats and float64 run
    the same IEEE operations, so the result is bit-identical to the numpy
    formulation kept as ``tests/oracles/fluid.py``.
    """

    #: Use the harmonic mean of per-GPU times instead of the arithmetic
    #: mean as the job's representative task time (harmonic = throughput-
    #: weighted, slightly favours jobs with strong fast-GPU affinity).
    harmonic: bool = False
    #: Egalitarian weighted fair sharing instead of WSPT priority.
    fair_share: bool = False

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        jobs = instance.jobs
        num_jobs = len(jobs)
        task_time = instance.train_time + instance.sync_time
        if self.harmonic:
            rep_row = instance.num_gpus / (1.0 / task_time).sum(axis=1)
        else:
            rep_row = task_time.mean(axis=1)
        rep: list[float] = rep_row.tolist()

        total_work = [
            job.num_rounds * job.sync_scale * rep[n] for n, job in enumerate(jobs)
        ]
        remaining = total_work.copy()
        weights = [float(job.weight) for job in jobs]
        caps = [float(job.sync_scale) for job in jobs]
        arrivals = [float(job.arrival) for job in jobs]

        # Jobs are served in a static order: WSPT density (ties toward the
        # lower index), or plain index order for the fair-share split.
        if self.fair_share:
            order = list(range(num_jobs))
        else:
            density = [w / max(p, 1e-300) for w, p in zip(weights, total_work)]
            order = sorted(range(num_jobs), key=lambda n: (-density[n], n))
        rank = [0] * num_jobs
        for k, n in enumerate(order):
            rank[n] = k

        # Work-completed breakpoints per job: parallel (time, done) lists.
        # A point is added only when the job progressed, so ``done`` is
        # strictly increasing and a curve never has a flat segment.
        curve_t = [[a] for a in arrivals]
        curve_w = [[0.0] for _ in range(num_jobs)]
        active: list[int] = []  # arrived, unfinished jobs in service order
        unfinished = num_jobs
        t = 0.0
        capacity = float(instance.num_gpus)
        pending = sorted(range(num_jobs), key=lambda n: arrivals[n])
        arr_ptr = 0
        guard = 0
        while unfinished:
            guard += 1
            if guard > 8 * num_jobs + 64:  # pragma: no cover - defensive
                raise SolverError("fluid solver failed to converge")
            while arr_ptr < num_jobs and arrivals[pending[arr_ptr]] <= t + 1e-12:
                insort(active, pending[arr_ptr], key=rank.__getitem__)
                arr_ptr += 1
            if not active:
                if arr_ptr >= num_jobs:
                    raise SolverError(
                        "fluid solver: no active jobs and none arriving"
                    )  # pragma: no cover - defensive
                t = arrivals[pending[arr_ptr]]
                continue
            # Rates of the served prefix of ``active``; the rest get 0.
            if self.fair_share:
                rates = _water_fill(
                    np.array([weights[n] for n in active]),
                    np.array([caps[n] for n in active]),
                    capacity,
                ).tolist()
            else:
                rates = []
                free = capacity
                for n in active:
                    if free <= 1e-15:
                        break
                    give = free if free < caps[n] else caps[n]
                    rates.append(give)
                    free -= give
            # Next event: a job finishing or the next arrival.
            dt = min(
                (remaining[n] / r for n, r in zip(active, rates) if r > 0),
                default=math.inf,
            )
            next_arrival = (
                arrivals[pending[arr_ptr]] if arr_ptr < num_jobs else math.inf
            )
            dt = min(dt, next_arrival - t)
            if not math.isfinite(dt) or dt < 0:
                raise SolverError("fluid solver produced a bad step")
            t_next = t + dt
            still_active: list[int] = []
            for n, rate in zip_longest(active, rates, fillvalue=0.0):
                # != rather than >: a NaN rate (an infinite weight in the
                # fair split) drains the job, as it does in the oracle.
                if rate != 0.0:
                    left = remaining[n] - rate * dt
                    if not left > 0.0:
                        left = 0.0
                    done_before = total_work[n] - remaining[n]
                    done_after = total_work[n] - left
                    remaining[n] = left
                    if done_after > done_before:
                        curve_t[n].append(t_next)
                        curve_w[n].append(done_after)
                if remaining[n] <= 1e-12:
                    unfinished -= 1
                else:
                    still_active.append(n)
            active = still_active
            t = t_next

        # Invert each work curve at the round targets r·round_work. The
        # targets ascend, so each search starts where the last one ended.
        half_max_tc = (instance.train_time.max(axis=1) / 2.0).tolist()
        x_hat: dict[TaskRef, float] = {}
        h: dict[TaskRef, float] = {}
        for n, job in enumerate(jobs):
            times, works = curve_t[n], curve_w[n]
            round_work = job.sync_scale * rep[n]
            w_end = works[-1]
            j = 1
            for r in range(job.num_rounds):
                # Clamp: float drift can put the last target ~1 ulp past
                # the curve's total work.
                target = r * round_work
                if target > w_end:
                    target = w_end
                if target <= 0:
                    start = times[0]
                else:
                    # First segment end j >= 1 reaching target - 1e-12.
                    j = bisect_left(works, target - 1e-12, j)
                    t0, w0 = times[j - 1], works[j - 1]
                    frac = (target - w0) / (works[j] - w0)
                    start = t0 + frac * (times[j] - t0)
                mid = start + half_max_tc[n]
                for d in range(job.sync_scale):
                    task = TaskRef(n, r, d)
                    x_hat[task] = start
                    h[task] = mid

        objective = float(
            sum(job.weight * curve_t[n][-1] for n, job in enumerate(jobs))
        )
        return RelaxationResult(x_hat=x_hat, h=h, objective=objective)


def _water_fill(
    weights: np.ndarray, caps: np.ndarray, capacity: float
) -> np.ndarray:
    """Weighted max-min fair rates with per-job caps.

    Distributes *capacity* proportionally to *weights*, clamping each job at
    its cap and re-distributing the surplus among unclamped jobs.
    """
    n = len(weights)
    rates = np.zeros(n)
    unclamped = np.ones(n, dtype=bool)
    remaining_cap = capacity
    for _ in range(n):
        idx = np.where(unclamped)[0]
        if len(idx) == 0 or remaining_cap <= 1e-15:
            break
        share = remaining_cap * weights[idx] / weights[idx].sum()
        over = share >= caps[idx] - 1e-15
        if not over.any():
            rates[idx] = share
            break
        hit = idx[over]
        rates[hit] = caps[hit]
        remaining_cap -= float(caps[hit].sum())
        unclamped[hit] = False
    return rates
