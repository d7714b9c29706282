"""Tests for the iterative Truth Inference (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.truth_inference import (
    TruthInference,
    conditional_truth_matrix,
)
from repro.core.types import Answer, Task
from repro.errors import ValidationError


def paper_task():
    """The running-example task t1 with r = [0, 0.78, 0.22]."""
    return Task(
        task_id=1,
        text="Does Michael Jordan win more NBA championships than Kobe?",
        num_choices=2,
        domain_vector=np.array([0.0, 0.78, 0.22]),
    )


def paper_answers():
    return [
        Answer("w1", 1, 1),
        Answer("w2", 1, 2),
        Answer("w3", 1, 2),
    ]


def paper_qualities():
    return {
        "w1": np.array([0.3, 0.9, 0.6]),
        "w2": np.array([0.9, 0.6, 0.3]),
        "w3": np.array([0.6, 0.3, 0.9]),
    }


class TestPaperTable1Example:
    """Section 4.1's worked example, digit for digit."""

    def test_conditional_matrix_rows(self):
        task = paper_task()
        M = conditional_truth_matrix(
            task, task.domain_vector, paper_answers(), paper_qualities()
        )
        np.testing.assert_allclose(M[0], [0.03, 0.97], atol=0.005)
        np.testing.assert_allclose(M[1], [0.93, 0.07], atol=0.005)
        np.testing.assert_allclose(M[2], [0.28, 0.72], atol=0.005)

    def test_probabilistic_truth(self):
        task = paper_task()
        M = conditional_truth_matrix(
            task, task.domain_vector, paper_answers(), paper_qualities()
        )
        s = task.domain_vector @ M
        np.testing.assert_allclose(s, [0.79, 0.21], atol=0.005)

    def test_expert_outvotes_majority(self):
        """One sports expert saying 'yes' beats two novices saying 'no'
        on a sports task — the paper's central claim for step 1."""
        ti = TruthInference(max_iterations=1)
        result = ti.infer(
            [paper_task()],
            paper_answers(),
            initial_qualities=paper_qualities(),
        )
        assert result.truths()[1] == 1


class TestStep2WorkerQuality:
    def test_paper_step2_example(self):
        """Section 4.1 step 2's example: q_2 = 0.92 from two tasks."""
        # Worker answers both tasks with choice 1; s and r as given.
        m = 3
        tasks = [
            Task(
                task_id=1,
                text="t1",
                num_choices=2,
                domain_vector=np.array([0.05, 0.9, 0.05]),
            ),
            Task(
                task_id=2,
                text="t2",
                num_choices=2,
                domain_vector=np.array([0.9, 0.05, 0.05]),
            ),
        ]
        # Build the Eq. 5 value directly: the example fixes s values.
        s1, s2 = 0.95, 0.3
        r1, r2 = 0.9, 0.05
        expected = (r1 * s1 + r2 * s2) / (r1 + r2)
        assert expected == pytest.approx(0.92, abs=0.005)


class TestIterativeBehaviour:
    def _world(self, num_tasks=200, seed=3, noise_quality=0.5):
        """Synthetic world: two experts and three noise workers.

        Noise workers answer at chance. (A worse-than-chance *majority*
        would let cold-started EM converge to the mirrored labelling —
        a known EM property and the reason the paper initialises
        qualities from golden tasks; covered by
        ``test_anti_correlated_majority_needs_initialisation``.)
        """
        rng = np.random.default_rng(seed)
        tasks = []
        answers = []
        qualities = {
            "expert1": np.array([0.92, 0.92]),
            "expert2": np.array([0.9, 0.9]),
            "noise1": np.array([noise_quality] * 2),
            "noise2": np.array([noise_quality] * 2),
            "noise3": np.array([noise_quality] * 2),
        }
        for tid in range(num_tasks):
            domain = tid % 2
            r = np.array([0.9, 0.1]) if domain == 0 else np.array([0.1, 0.9])
            truth = int(rng.integers(1, 3))
            tasks.append(
                Task(
                    task_id=tid,
                    text=f"t{tid}",
                    num_choices=2,
                    domain_vector=r,
                    ground_truth=truth,
                )
            )
            for worker, quality in qualities.items():
                if rng.random() < quality[domain]:
                    choice = truth
                else:
                    choice = 3 - truth
                answers.append(Answer(worker, tid, choice))
        return tasks, answers

    @staticmethod
    def _majority_accuracy(tasks, answers):
        votes = {}
        for answer in answers:
            votes.setdefault(answer.task_id, []).append(answer.choice)
        correct = 0
        for task in tasks:
            counts = np.bincount(votes[task.task_id])
            correct += int(np.argmax(counts)) == task.ground_truth
        return correct / len(tasks)

    def test_beats_majority_vote(self):
        tasks, answers = self._world()
        result = TruthInference().infer(tasks, answers)
        assert result.accuracy(tasks) > self._majority_accuracy(
            tasks, answers
        )

    def test_expert_identified(self):
        tasks, answers = self._world()
        result = TruthInference().infer(tasks, answers)
        expert_q = result.worker_qualities["expert1"].mean()
        noise_q = result.worker_qualities["noise1"].mean()
        assert expert_q > noise_q + 0.2

    def test_delta_decreases(self):
        tasks, answers = self._world()
        ti = TruthInference(max_iterations=30, tolerance=0.0)
        result = ti.infer(tasks, answers)
        deltas = result.delta_history
        assert deltas[0] > deltas[-1]
        assert deltas[-1] < 0.01

    def test_convergence_stops_early(self):
        tasks, answers = self._world()
        ti = TruthInference(max_iterations=50, tolerance=5e-3)
        result = ti.infer(tasks, answers)
        assert result.iterations < 50

    def test_anti_correlated_majority_needs_initialisation(self):
        """With a worse-than-chance majority, cold-start EM can invert;
        golden-style initial qualities recover the truth — the paper's
        stated reason for the golden-task bootstrap."""
        tasks, answers = self._world(noise_quality=0.35)
        initial = {
            "expert1": np.array([0.85, 0.85]),
            "expert2": np.array([0.85, 0.85]),
            "noise1": np.array([0.4, 0.4]),
            "noise2": np.array([0.4, 0.4]),
            "noise3": np.array([0.4, 0.4]),
        }
        warm = TruthInference().infer(
            tasks, answers, initial_qualities=initial
        )
        assert warm.accuracy(tasks) > 0.8

    def test_initial_qualities_respected(self):
        tasks, answers = self._world()
        # Tell TI the spammers are excellent and the expert terrible:
        # a single iteration should then trust the spammers.
        lying = {
            "expert1": np.array([0.05, 0.05]),
            "expert2": np.array([0.05, 0.05]),
            "noise1": np.array([0.95, 0.95]),
            "noise2": np.array([0.95, 0.95]),
            "noise3": np.array([0.95, 0.95]),
        }
        one_step = TruthInference(max_iterations=1).infer(
            tasks, answers, initial_qualities=lying
        )
        honest = TruthInference(max_iterations=1).infer(tasks, answers)
        assert one_step.truths() != honest.truths()

    def test_worker_weights_are_r_sums(self, simple_tasks):
        answers = [Answer("w", 0, 1), Answer("w", 1, 2)]
        result = TruthInference(max_iterations=1).infer(
            simple_tasks, answers
        )
        np.testing.assert_allclose(
            result.worker_weights["w"],
            simple_tasks[0].domain_vector + simple_tasks[1].domain_vector,
        )


class TestValidation:
    def test_missing_domain_vector_rejected(self):
        task = Task(task_id=0, text="x", num_choices=2)
        with pytest.raises(ValidationError):
            TruthInference().infer([task], [Answer("w", 0, 1)])

    def test_unknown_task_in_answers_rejected(self, simple_tasks):
        with pytest.raises(ValidationError):
            TruthInference().infer(
                simple_tasks, [Answer("w", 99, 1)]
            )

    def test_no_tasks_rejected(self):
        with pytest.raises(ValidationError):
            TruthInference().infer([], [])

    @pytest.mark.parametrize("choice", [3, 5])
    def test_choice_beyond_its_tasks_ell_rejected(self, choice):
        """A choice past the task's own ell must not slip through
        because another task has more choices (choice 3 <= max ell 4),
        nor surface as an IndexError (choice 5 > max ell)."""
        tasks = [
            Task(task_id=0, text="a", num_choices=4,
                 domain_vector=np.array([1.0, 0.0])),
            Task(task_id=1, text="b", num_choices=2,
                 domain_vector=np.array([1.0, 0.0])),
        ]
        answers = [Answer("v", 0, 2), Answer("w", 1, choice)]
        with pytest.raises(ValidationError, match=rf"choice {choice}.*task 1"):
            TruthInference().infer(tasks, answers)

    def test_empty_answers_ok(self, simple_tasks):
        result = TruthInference().infer(simple_tasks, [])
        assert result.probabilistic_truths == {}

    def test_bad_initial_quality_shape(self, simple_tasks):
        with pytest.raises(ValidationError):
            TruthInference().infer(
                simple_tasks,
                [Answer("w", 0, 1)],
                initial_qualities={"w": np.array([0.5])},
            )

    def test_invalid_constructor_args(self):
        with pytest.raises(ValidationError):
            TruthInference(max_iterations=0)
        with pytest.raises(ValidationError):
            TruthInference(default_quality=1.0)


class TestMixedChoiceCounts:
    def test_tasks_with_different_ell(self):
        tasks = [
            Task(
                task_id=0,
                text="binary",
                num_choices=2,
                domain_vector=np.array([1.0, 0.0]),
            ),
            Task(
                task_id=1,
                text="four-way",
                num_choices=4,
                domain_vector=np.array([0.0, 1.0]),
            ),
        ]
        answers = [
            Answer("w1", 0, 1),
            Answer("w2", 0, 1),
            Answer("w1", 1, 3),
            Answer("w2", 1, 3),
        ]
        result = TruthInference().infer(tasks, answers)
        assert result.truths() == {0: 1, 1: 3}
        assert result.probabilistic_truths[0].shape == (2,)
        assert result.probabilistic_truths[1].shape == (4,)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_probabilistic_truths_are_distributions(self, ell):
        tasks = [
            Task(
                task_id=0,
                text="t",
                num_choices=ell,
                domain_vector=np.array([0.5, 0.5]),
            )
        ]
        answers = [Answer("w", 0, 1), Answer("v", 0, ell)]
        result = TruthInference().infer(tasks, answers)
        s = result.probabilistic_truths[0]
        assert s.sum() == pytest.approx(1.0)
        assert np.all(s >= 0)
