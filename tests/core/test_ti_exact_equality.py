"""Exact equality of the slot solver with the TI oracle.

:func:`repro.core.truth_inference._run_slot_em` evaluates Eqs. 2-5 over
each task's nonzero domains only. Skipping an ``r_ik == 0`` term adds
nothing, so as long as every remaining sum runs in the oracle's element
order — answers in arrival order, domains ascending, choice columns
left to right — S, M, Q, the Theorem 1 weights and the Delta series are
*bit-identical* to :func:`repro.core.reference.reference_infer`. This
suite holds it to ``assert_array_equal``, never ``allclose``: the
oracle sums Eq. 2 with ``np.einsum``, so a NumPy release that changes
einsum's summation order fails here loudly instead of drifting the
serving plane's hot state.

Choice counts stay at 2-4: from 8 columns on, the oracle's Eq. 4
normaliser is a contiguous NumPy sum, which is pairwise rather than
left to right.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.arena import AnswerLog
from repro.core.incremental import IncrementalTruthInference
from repro.core.quality_store import WorkerQualityStore
from repro.core.reference import reference_infer
from repro.core.truth_inference import (
    DEFAULT_INITIAL_QUALITY,
    TruthInference,
)
from repro.core.types import Answer, Task

#: Initial qualities include both clip bounds of Eq. 4.
QUALITY_VALUES = (0.0, 1.0, 0.2, 0.5, 0.7, 0.93)

#: Answers only tasks with no weight on the last domain, so that
#: domain's quality must keep its initial value.
BLIND_WORKER = "blind"


def _domain_vector(draw, m, kind):
    if kind == "one-hot":
        r = np.zeros(m)
        r[draw(st.integers(0, m - 1))] = 1.0
        return r
    if kind == "sparse":
        support = sorted(
            draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        )
    else:
        support = list(range(m))
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    r = np.zeros(m)
    r[support] = weights
    return r / r.sum()


@st.composite
def ti_cases(draw):
    """Tasks, an arrival-ordered answer stream and initial qualities."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    tasks = [
        Task(
            task_id=t,
            text=f"task {t}",
            num_choices=draw(st.sampled_from([2, 3, 4])),
            domain_vector=_domain_vector(
                draw, m, draw(st.sampled_from(["one-hot", "sparse", "dense"]))
            ),
        )
        for t in range(n)
    ]
    num_workers = draw(st.integers(1, 6))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_workers - 1),
                st.integers(0, n - 1),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=120,
            unique_by=lambda pick: pick[:2],
        )
    )
    answers = [
        Answer(f"w{w}", t, c % tasks[t].num_choices + 1)
        for w, t, c in picks
    ]
    blind_tasks = [
        task.task_id for task in tasks if task.domain_vector[-1] == 0.0
    ]
    if blind_tasks and draw(st.booleans()):
        for task_id in draw(
            st.lists(st.sampled_from(blind_tasks), min_size=1, unique=True)
        ):
            at = draw(st.integers(0, len(answers)))
            answers.insert(at, Answer(BLIND_WORKER, task_id, 1))
    worker_ids = sorted({answer.worker_id for answer in answers})
    initial = {
        worker_id: np.array(
            draw(
                st.lists(
                    st.sampled_from(QUALITY_VALUES), min_size=m, max_size=m
                )
            )
        )
        for worker_id in worker_ids
        if draw(st.booleans())
    }
    params = {
        "max_iterations": draw(st.integers(1, 20)),
        "tolerance": draw(st.sampled_from([0.0, 1e-6, 1e-3])),
    }
    return tasks, answers, initial, params


def _infer_from_log(solver, tasks, answers, initial):
    engine = IncrementalTruthInference(
        WorkerQualityStore(tasks[0].domain_vector.shape[0])
    )
    engine.register_tasks(tasks)
    log = AnswerLog(engine.arena)
    for answer in answers:
        log.append(answer)
    return solver.infer_from_log(log, initial_qualities=initial)


def _assert_maps_equal(left, right):
    assert list(left) == list(right)
    for key in left:
        np.testing.assert_array_equal(left[key], right[key])


@settings(max_examples=150, deadline=None)
@given(ti_cases())
def test_infer_is_bit_identical_to_reference(case):
    tasks, answers, initial, params = case
    got = TruthInference(**params).infer(
        tasks, answers, initial_qualities=initial
    )
    want = reference_infer(
        tasks, answers, initial_qualities=initial, **params
    )
    _assert_maps_equal(got.probabilistic_truths, want.probabilistic_truths)
    _assert_maps_equal(got.truth_matrices, want.truth_matrices)
    _assert_maps_equal(got.worker_qualities, want.worker_qualities)
    _assert_maps_equal(got.worker_weights, want.worker_weights)
    assert got.delta_history == want.delta_history
    assert got.iterations == want.iterations


@settings(max_examples=100, deadline=None)
@given(ti_cases())
def test_infer_from_log_is_bit_identical_to_infer(case):
    tasks, answers, initial, params = case
    solver = TruthInference(**params)
    listed = solver.infer(tasks, answers, initial_qualities=initial)
    logged = _infer_from_log(solver, tasks, answers, initial)
    assert logged.task_ids == list(listed.probabilistic_truths)
    for row, task_id in enumerate(logged.task_ids):
        ell = int(logged.ells[row])
        np.testing.assert_array_equal(
            logged.S[row, :ell], listed.probabilistic_truths[task_id]
        )
        np.testing.assert_array_equal(
            logged.M[row, :, :ell], listed.truth_matrices[task_id]
        )
        # Padded choice columns carry exactly zero probability.
        assert not logged.S[row, ell:].any()
        assert not logged.M[row, :, ell:].any()
    assert logged.worker_ids == list(listed.worker_qualities)
    for row, worker_id in enumerate(logged.worker_ids):
        np.testing.assert_array_equal(
            logged.qualities[row], listed.worker_qualities[worker_id]
        )
        np.testing.assert_array_equal(
            logged.weights[row], listed.worker_weights[worker_id]
        )
    assert logged.delta_history == listed.delta_history
    assert logged.iterations == listed.iterations


@settings(max_examples=100, deadline=None)
@given(ti_cases())
def test_zero_evidence_domains_keep_initial_quality(case):
    """Eq. 5 has nothing to average where ``u^w_k == 0``: the quality
    stays exactly where it started (the default when not given)."""
    tasks, answers, initial, params = case
    result = TruthInference(**params).infer(
        tasks, answers, initial_qualities=initial
    )
    for worker_id, weights in result.worker_weights.items():
        start = initial.get(
            worker_id, np.full(weights.shape, DEFAULT_INITIAL_QUALITY)
        )
        blind = weights == 0
        np.testing.assert_array_equal(
            result.worker_qualities[worker_id][blind], start[blind]
        )
        if worker_id == BLIND_WORKER:
            assert blind[-1]


def test_dve_shaped_input_is_bit_identical_to_reference():
    """Campaign shape: 26 domains, ~3 nonzero per task, mixed choices."""
    rng = np.random.default_rng(12)
    m = 26
    tasks = []
    for t in range(300):
        r = np.zeros(m)
        support = rng.choice(m, size=int(rng.integers(1, 6)), replace=False)
        r[support] = rng.random(support.size) + 0.05
        tasks.append(
            Task(
                task_id=t,
                text=f"task {t}",
                num_choices=int(rng.integers(2, 5)),
                domain_vector=r / r.sum(),
            )
        )
    answers = [
        Answer(f"w{w}", t, int(rng.integers(1, tasks[t].num_choices + 1)))
        for t in range(300)
        for w in rng.choice(50, size=5, replace=False)
    ]
    answers = [answers[i] for i in rng.permutation(len(answers))]
    got = TruthInference().infer(tasks, answers)
    want = reference_infer(tasks, answers)
    _assert_maps_equal(got.probabilistic_truths, want.probabilistic_truths)
    _assert_maps_equal(got.truth_matrices, want.truth_matrices)
    _assert_maps_equal(got.worker_qualities, want.worker_qualities)
    _assert_maps_equal(got.worker_weights, want.worker_weights)
    assert got.delta_history == want.delta_history
    assert got.iterations == want.iterations
