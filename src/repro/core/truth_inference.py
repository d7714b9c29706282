"""Iterative Truth Inference (Section 4.1).

Alternates two steps until convergence:

- **Step 1 (q -> s)**: for each task, build the conditional truth matrix
  ``M(i)`` (Eqs. 3-4) from the current worker qualities and the answer set
  ``V(i)``, then ``s_i = r_ti @ M(i)`` (Eq. 2).
- **Step 2 (s -> q)**: for each worker and domain,
  ``q^w_k = sum_i r_ik * s_{i, v^w_i} / sum_i r_ik`` over the worker's
  answered tasks (Eq. 5).

Numerics: Eq. 3's numerator is a product over answers, so it is computed
in log space; qualities are clipped into ``[QUALITY_FLOOR, QUALITY_CEIL]``
inside Eq. 4 only (reported qualities are unclipped) so a momentarily
perfect worker cannot produce ``log 0``.

Two entry points share one solver:

- :meth:`TruthInference.infer` — answer *lists* in, dict-keyed result
  out. Builds its index arrays from Python objects each call; used by
  offline experiments and the competitor engines.
- :meth:`TruthInference.infer_from_log` — an arena-backed
  :class:`repro.core.arena.AnswerLog` in, :class:`ArenaInferenceResult`
  out. The log already holds the index arrays append-only, so the every-z
  serving-path re-run skips the O(answers) Python re-indexing and the
  domain-vector re-stacking entirely. Both paths feed the solver
  identically-ordered inputs and therefore return identical results.

The solver works over *slots*, the (task, domain) pairs with
``r_ik != 0``: DVE puts weight only on the domains of a task's linked
entities, so most of ``R`` is exactly zero and Eqs. 2-5 need only the
join of answers with their task's slots (see :func:`_run_slot_em`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import AnswerLog
from repro.core.types import (
    Answer,
    Task,
    group_answers_by_task,
    group_answers_by_worker,
)
from repro.errors import ValidationError

#: Clipping bounds applied to qualities inside likelihoods. Wide enough to
#: preserve strong signals, tight enough to keep logs finite.
QUALITY_FLOOR = 1e-3
QUALITY_CEIL = 1.0 - 1e-3

#: Quality assumed for a worker with no golden-task initialisation. The
#: paper initialises from golden tasks; 0.7 is the standard "better than
#: random but imperfect" prior used by EM-style inference when cold.
DEFAULT_INITIAL_QUALITY = 0.7

#: The paper observes convergence within ~10 iterations and terminates
#: within 20 in practice.
DEFAULT_MAX_ITERATIONS = 20
DEFAULT_TOLERANCE = 1e-6


def conditional_truth_matrix(
    task: Task,
    r: np.ndarray,
    answers: Sequence[Answer],
    qualities: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Compute ``M(i)`` (Eqs. 3-4) for one task.

    Row k is the posterior distribution over the task's choices given that
    the true domain is ``d_k``, under independent worker answers and a
    uniform prior over choices.

    Args:
        task: the task (supplies ``l``).
        r: unused except for shape (m); kept for interface symmetry.
        answers: the answer set ``V(i)``.
        qualities: worker id -> length-m quality vector.

    Returns:
        Matrix of shape (m, l); each row sums to 1.
    """
    m = r.shape[0]
    ell = task.num_choices
    log_numerator = np.zeros((m, ell))
    for answer in answers:
        q = np.clip(qualities[answer.worker_id], QUALITY_FLOOR, QUALITY_CEIL)
        log_correct = np.log(q)
        log_incorrect = np.log((1.0 - q) / (ell - 1))
        # For each domain k: the answered choice contributes log q_k to
        # column (v-1) and log((1-q_k)/(l-1)) to every other column.
        contribution = np.tile(log_incorrect[:, None], (1, ell))
        contribution[:, answer.choice - 1] = log_correct
        log_numerator += contribution
    # Normalise each row in log space (softmax).
    log_numerator -= log_numerator.max(axis=1, keepdims=True)
    numerator = np.exp(log_numerator)
    return numerator / numerator.sum(axis=1, keepdims=True)


@dataclass
class TruthInferenceResult:
    """Output of :meth:`TruthInference.infer`.

    Attributes:
        probabilistic_truths: task id -> probabilistic truth ``s_i``.
        truth_matrices: task id -> conditional matrix ``M(i)``.
        worker_qualities: worker id -> quality vector ``q^w``.
        worker_weights: worker id -> per-domain expected answer counts
            ``u^w_k = sum_i r_ik`` (the Theorem 1 weights).
        delta_history: parameter change Delta per iteration (the Fig. 4(a)
            convergence series).
        iterations: iterations actually run.
    """

    probabilistic_truths: Dict[int, np.ndarray]
    truth_matrices: Dict[int, np.ndarray]
    worker_qualities: Dict[str, np.ndarray]
    worker_weights: Dict[str, np.ndarray]
    delta_history: List[float] = field(default_factory=list)
    iterations: int = 0

    def truths(self) -> Dict[int, int]:
        """MAP truth per task: ``v*_i = argmax_j s_{i,j}`` (1-based)."""
        return {
            task_id: int(np.argmax(s)) + 1
            for task_id, s in self.probabilistic_truths.items()
        }

    def accuracy(self, tasks: Sequence[Task]) -> float:
        """Fraction of tasks whose inferred truth matches ground truth.

        Tasks without ground truth are skipped.
        """
        truths = self.truths()
        correct = 0
        counted = 0
        for task in tasks:
            if task.ground_truth is None or task.task_id not in truths:
                continue
            counted += 1
            if truths[task.task_id] == task.ground_truth:
                correct += 1
        if counted == 0:
            raise ValidationError("no ground-truth tasks to score")
        return correct / counted


@dataclass
class ArenaInferenceResult:
    """Output of :meth:`TruthInference.infer_from_log`: array layout.

    Rows follow the log's compact (first-answer) task order; workers
    follow first-submission order. Invalid (padded) choice columns carry
    zero probability.

    Attributes:
        task_rows: (n,) arena global rows of the answered tasks.
        task_ids: the same tasks as ids.
        ells: (n,) choice counts.
        S: (n, L) probabilistic truths, L = max choice count.
        M: (n, m, L) conditional truth matrices.
        worker_ids: worker id per quality row.
        qualities: (W, m) worker qualities ``q^w``.
        weights: (W, m) Theorem 1 weights ``u^w``.
        delta_history: per-iteration parameter change Delta.
        iterations: iterations actually run.
    """

    task_rows: np.ndarray
    task_ids: List[int]
    ells: np.ndarray
    S: np.ndarray
    M: np.ndarray
    worker_ids: List[str]
    qualities: np.ndarray
    weights: np.ndarray
    delta_history: List[float] = field(default_factory=list)
    iterations: int = 0

    def truths(self) -> Dict[int, int]:
        """MAP truth per answered task (1-based), vectorised."""
        if len(self.task_ids) == 0:
            return {}
        ell_max = self.S.shape[1]
        valid = np.arange(ell_max)[None, :] < self.ells[:, None]
        best = np.argmax(np.where(valid, self.S, -1.0), axis=1) + 1
        return {
            task_id: int(choice)
            for task_id, choice in zip(self.task_ids, best)
        }

    def worker_qualities(self) -> Dict[str, np.ndarray]:
        """Worker id -> quality vector (copies)."""
        return {
            worker_id: self.qualities[row].copy()
            for row, worker_id in enumerate(self.worker_ids)
        }


def _conditional_matrices(
    row: np.ndarray,
    col: np.ndarray,
    table: np.ndarray,
    valid: np.ndarray,
    log_incorrect: np.ndarray,
    log_delta: np.ndarray,
) -> np.ndarray:
    """Eqs. 3-4 for a block of P rows of ``M``, choice-major: (L, P).

    Each (answer, row) pair ``p`` adds its worker's incorrect-answer
    log-likelihood ``log_incorrect[table[p]]`` to every column of row
    ``row[p]``, and the correct-minus-incorrect log ratio
    ``log_delta[table[p]]`` to the answered entry ``col[p]`` of the
    flat (L, P) block. Pairs are arrival-major, so each row sums in
    arrival order. Choice-major keeps the softmax's sum over choices
    in ascending column order — the order the (n, m, L) formulation
    sums in — for every choice count.
    """
    ell_max, P = valid.shape
    base = np.bincount(row, weights=log_incorrect[table], minlength=P)
    answered = np.bincount(
        col, weights=log_delta[table], minlength=ell_max * P
    ).reshape(ell_max, P)
    logM = np.where(valid, base + answered, -np.inf)
    logM -= logM.max(axis=0)
    expM = np.exp(logM)
    return expM / expM.sum(axis=0)


def _run_slot_em(
    R: np.ndarray,
    ells: np.ndarray,
    a_task: np.ndarray,
    a_worker: np.ndarray,
    a_choice: np.ndarray,
    Q: np.ndarray,
    max_iterations: int,
    tolerance: float,
    track_delta: bool,
) -> Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[float], int
]:
    """The Section 4.1 iteration over the nonzero support of ``R``.

    A *slot* is a (task, domain) pair with ``r_ik != 0``. A zero
    ``r_ik`` adds exactly ``+0.0`` to Eq. 2's sum and to both sums of
    Eq. 5, so each iteration evaluates Eqs. 3-5 over slots only, in
    time proportional to the (answer, slot) join rather than to
    n x m x L. Every sum keeps the element order of the dense
    formulation — answers in arrival order, domains ascending, choices
    left to right — so results are bit-identical to it;
    :func:`repro.core.reference.reference_infer` agrees bit for bit
    below 8 choices (from 8 on, its Eq. 4 normaliser is a pairwise
    NumPy sum). The rows of ``M`` off the support never feed back into
    the iteration; they are evaluated once at the end, from the
    qualities the last Step 1 used.

    Args:
        R: (n, m) domain vectors of the answered tasks.
        ells: (n,) choice counts.
        a_task / a_worker / a_choice: per-answer row indices (choice
            0-based), arrival-ordered.
        Q: (W, m) initial qualities (mutated-by-replacement inside).

    Returns:
        (S, M, Q, weights, delta_history, iterations); ``weights`` is
        the Eq. 5 denominator, i.e. the Theorem 1 weights ``u^w``.
    """
    n, m = R.shape
    W = Q.shape[0]
    ell_max = int(ells.max())
    choices = np.arange(ell_max)[:, None]

    # ---- Iteration-invariant layout ----------------------------------
    # Answers partitioned by their task's choice count: Eq. 4's
    # log-likelihood tables are built per (ell group, worker, domain).
    group_ells, a_group = np.unique(ells[a_task], return_inverse=True)
    a_table = (a_group * W + a_worker) * m
    # Slots in row-major order; (answer, slot) pairs arrival-major,
    # ascending domain within an answer.
    support = R != 0
    slot_task, slot_domain = np.nonzero(support)
    P = slot_task.size
    slot_valid = choices < ells[slot_task]                   # (L, P)
    slot_r = R[slot_task, slot_domain]
    s_bins = (slot_task * ell_max + choices).ravel()
    pair_answer, pair_domain = np.divmod(
        np.flatnonzero(support[a_task]), m
    )
    pair_slot = (np.cumsum(support.ravel()) - 1)[
        a_task[pair_answer] * m + pair_domain
    ]
    pair_col = a_choice[pair_answer] * P + pair_slot
    pair_table = a_table[pair_answer] + pair_domain
    pair_r = slot_r[pair_slot]
    pair_wk = a_worker[pair_answer] * m + pair_domain
    #: Flat index of each pair's answered entry ``s_{i, v}`` in S.
    pair_s = (a_task * ell_max + a_choice)[pair_answer]
    denominator = np.bincount(
        pair_wk, weights=pair_r, minlength=W * m
    ).reshape(W, m)
    q_mask = denominator > 0

    S = np.where(choices.T < ells[:, None], 1.0, 0.0)
    S = S / S.sum(axis=1, keepdims=True)                     # (n, L)

    delta_history: List[float] = []
    iterations_run = 0
    for _ in range(max_iterations):
        iterations_run += 1
        S_prev = S
        Q_prev = Q

        # Step 1 (q -> s): Eqs. 3-4 per slot, then Eq. 2 summed over
        # each task's slots in ascending domain order.
        Qc = np.clip(Q, QUALITY_FLOOR, QUALITY_CEIL)
        log_correct = np.log(Qc)                             # (W, m)
        incorrect = np.stack(
            [np.log((1.0 - Qc) / (int(e) - 1)) for e in group_ells]
        )                                                    # (G, W, m)
        log_incorrect = incorrect.ravel()
        log_delta = (log_correct - incorrect).ravel()
        M_slots = _conditional_matrices(
            pair_slot, pair_col, pair_table, slot_valid,
            log_incorrect, log_delta,
        )                                                    # (L, P)
        S = np.bincount(
            s_bins, weights=(M_slots * slot_r).ravel(),
            minlength=n * ell_max,
        ).reshape(n, ell_max)

        # Step 2 (s -> q): Eq. 5 over (worker, domain) bins.
        numerator = np.bincount(
            pair_wk,
            weights=pair_r * S.ravel()[pair_s],
            minlength=W * m,
        ).reshape(W, m)
        Q = np.where(q_mask, np.divide(
            numerator, denominator, out=np.zeros_like(numerator),
            where=q_mask,
        ), Q)

        if track_delta or tolerance > 0:
            truth_change = float(
                (np.abs(S - S_prev).sum(axis=1) / ells).mean()
            )
            quality_change = float(np.abs(Q - Q_prev).mean())
            delta = truth_change + quality_change
            delta_history.append(delta)
            if delta < tolerance:
                break

    # With every r_ik nonzero, the slots are all n * m rows in order.
    M_rows = M_slots
    if P < n * m:
        # Off-support rows: every row from the last Step 1's tables,
        # over every (answer, domain) pair.
        domains = np.arange(m)
        rows = (a_task * m)[:, None] + domains               # (A, m)
        M_rows = _conditional_matrices(
            rows.ravel(),
            (rows + (a_choice * (n * m))[:, None]).ravel(),
            (a_table[:, None] + domains).ravel(),
            choices < np.repeat(ells, m),
            log_incorrect,
            log_delta,
        )                                                    # (L, n * m)
    M = np.ascontiguousarray(
        M_rows.reshape(ell_max, n, m).transpose(1, 2, 0)
    )
    return S, M, Q, denominator, delta_history, iterations_run


class TruthInference:
    """The iterative TI algorithm of Section 4.1.

    Args:
        max_iterations: iteration cap (paper: converges within ~10, capped
            at 20 in practice).
        tolerance: stop when the parameter change Delta falls below this.
        default_quality: per-domain quality assumed for workers with no
            initial estimate.
    """

    def __init__(
        self,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        tolerance: float = DEFAULT_TOLERANCE,
        default_quality: float = DEFAULT_INITIAL_QUALITY,
    ):
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not 0.0 < default_quality < 1.0:
            raise ValidationError("default_quality must be in (0, 1)")
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._default_quality = default_quality

    def infer(
        self,
        tasks: Sequence[Task],
        answers: Sequence[Answer],
        initial_qualities: Optional[Mapping[str, np.ndarray]] = None,
        track_delta: bool = True,
    ) -> TruthInferenceResult:
        """Run TI to convergence over answer lists.

        Args:
            tasks: tasks with domain vectors set (``task.domain_vector``).
            answers: all collected answers.
            initial_qualities: optional worker id -> quality vector map
                (e.g. from golden tasks / the quality store). Workers not
                present start at ``default_quality`` across all domains.
            track_delta: record the Delta series (Fig. 4(a)); small cost.

        Returns:
            A :class:`TruthInferenceResult`.
        """
        task_index: Dict[int, Task] = {}
        domain_vectors: Dict[int, np.ndarray] = {}
        m = None
        for task in tasks:
            if task.domain_vector is None:
                raise ValidationError(
                    f"task {task.task_id} has no domain vector; run DVE "
                    "first"
                )
            task_index[task.task_id] = task
            domain_vectors[task.task_id] = np.asarray(
                task.domain_vector, dtype=float
            )
            if m is None:
                m = domain_vectors[task.task_id].shape[0]
            elif domain_vectors[task.task_id].shape[0] != m:
                raise ValidationError("inconsistent domain vector sizes")
        if m is None:
            raise ValidationError("no tasks given")

        by_task = group_answers_by_task(answers)
        by_worker = group_answers_by_worker(answers)
        unknown = set(by_task) - set(task_index)
        if unknown:
            raise ValidationError(
                f"answers reference unknown tasks: {sorted(unknown)[:5]}"
            )

        # ---- Vectorised layout -----------------------------------------
        # Only answered tasks participate in the iterations; the solver
        # pads columns to the maximum choice count.
        answered_ids: List[int] = list(by_task.keys())
        if not answered_ids:
            return TruthInferenceResult(
                probabilistic_truths={},
                truth_matrices={},
                worker_qualities={},
                worker_weights={},
            )
        tid_to_row = {tid: row for row, tid in enumerate(answered_ids)}
        worker_ids: List[str] = list(by_worker.keys())
        wid_to_row = {wid: row for row, wid in enumerate(worker_ids)}
        W = len(worker_ids)

        ells = np.array(
            [task_index[tid].num_choices for tid in answered_ids],
            dtype=np.int64,
        )
        R = np.stack([domain_vectors[tid] for tid in answered_ids])  # (n, m)

        a_task = np.array(
            [tid_to_row[a.task_id] for a in answers], dtype=np.int64
        )
        a_worker = np.array(
            [wid_to_row[a.worker_id] for a in answers], dtype=np.int64
        )
        a_choice = np.array([a.choice - 1 for a in answers], dtype=np.int64)
        out_of_range = np.flatnonzero(a_choice >= ells[a_task])
        if out_of_range.size:
            answer = answers[int(out_of_range[0])]
            raise ValidationError(
                f"choice {answer.choice} outside "
                f"[1, {task_index[answer.task_id].num_choices}] for task "
                f"{answer.task_id}"
            )

        Q = self._initial_q(W, m, worker_ids, initial_qualities)

        S, M, Q, weights, delta_history, iterations_run = _run_slot_em(
            R,
            ells,
            a_task,
            a_worker,
            a_choice,
            Q,
            self._max_iterations,
            self._tolerance,
            track_delta,
        )

        truths = {
            tid: S[row, : ells[row]].copy()
            for tid, row in tid_to_row.items()
        }
        matrices = {
            tid: M[row, :, : ells[row]].copy()
            for tid, row in tid_to_row.items()
        }

        return TruthInferenceResult(
            probabilistic_truths=truths,
            truth_matrices=matrices,
            worker_qualities={
                wid: Q[row].copy() for wid, row in wid_to_row.items()
            },
            worker_weights={
                wid: weights[row].copy() for wid, row in wid_to_row.items()
            },
            delta_history=delta_history,
            iterations=iterations_run,
        )

    def infer_from_log(
        self,
        log: AnswerLog,
        initial_qualities: Optional[Mapping[str, np.ndarray]] = None,
        track_delta: bool = True,
    ) -> ArenaInferenceResult:
        """Run TI over an arena-backed append-only answer log.

        The log's growing index arrays are consumed directly: the only
        per-call work before the solver is one fancy-indexed gather of
        the answered tasks' domain vectors. Produces the same inference
        as :meth:`infer` on the equivalent answer list.

        Args:
            log: the :class:`repro.core.arena.AnswerLog` to infer from.
            initial_qualities: as in :meth:`infer`.
            track_delta: as in :meth:`infer`.

        Returns:
            An :class:`ArenaInferenceResult` (empty when no answers).
        """
        arena = log.arena
        m = arena.num_domains
        task_rows = log.answered_rows()
        n = task_rows.size
        if n == 0:
            return ArenaInferenceResult(
                task_rows=task_rows,
                task_ids=[],
                ells=np.zeros(0, dtype=np.int64),
                S=np.zeros((0, 0)),
                M=np.zeros((0, m, 0)),
                worker_ids=[],
                qualities=np.zeros((0, m)),
                weights=np.zeros((0, m)),
            )
        # Compact the global rows: answered tasks only, first-answer
        # order (the same row order `infer` derives from answer lists).
        inverse = np.empty(len(arena), dtype=np.int64)
        inverse[task_rows] = np.arange(n)
        R = arena.domain_matrix()[task_rows]                    # (n, m)
        ells = arena.choice_counts()[task_rows]

        worker_ids = log.worker_ids
        Q = self._initial_q(len(worker_ids), m, worker_ids, initial_qualities)

        S, M, Q, weights, delta_history, iterations_run = _run_slot_em(
            R,
            ells,
            inverse[log.task_rows],
            log.worker_rows,
            log.choices,
            Q,
            self._max_iterations,
            self._tolerance,
            track_delta,
        )

        return ArenaInferenceResult(
            task_rows=task_rows,
            task_ids=[arena.task_id_at(int(row)) for row in task_rows],
            ells=ells,
            S=S,
            M=M,
            worker_ids=worker_ids,
            qualities=Q,
            weights=weights,
            delta_history=delta_history,
            iterations=iterations_run,
        )

    def _initial_q(
        self,
        W: int,
        m: int,
        worker_ids: Sequence[str],
        initial_qualities: Optional[Mapping[str, np.ndarray]],
    ) -> np.ndarray:
        """The (W, m) starting qualities, defaulting unseen workers."""
        Q = np.full((W, m), self._default_quality)
        if initial_qualities:
            for row, worker_id in enumerate(worker_ids):
                if worker_id in initial_qualities:
                    q = np.asarray(
                        initial_qualities[worker_id], dtype=float
                    )
                    if q.shape != (m,):
                        raise ValidationError(
                            f"initial quality for {worker_id} has shape "
                            f"{q.shape}, expected ({m},)"
                        )
                    Q[row] = q
        return Q

