"""Benchmark inputs, made from the workload seed.

A workload's dataset is the repo's own ``4d`` generator and its crowd
is the repo's own :class:`~repro.crowd.WorkerPool`; the system under
test only ever sees the generated tasks and answers. The seed varies
the arrival order and every answer. The task catalogue (knowledge base
and tasks) and the workforce are part of the workload and the same for
every seed: from one generated catalogue to the next, the cost of an
EM iteration moved by a fifth and accuracy by several points, which
would swamp what a change to the system does.
"""

from __future__ import annotations

import copy
import dataclasses

from repro.crowd.worker_pool import WorkerPool, WorkerPoolConfig
from repro.datasets import make_dataset
from repro.datasets.base import CrowdDataset

#: Seed of every workload's task catalogue.
DATASET_SEED = 7
#: Seed of every workload's workforce.
POOL_SEED = 1_000_003
#: Offset that derives the arrival and answer seed from a run seed.
SIM_SEED_OFFSET = 2_000_006


def make_4d(tasks_per_domain: int) -> CrowdDataset:
    """The repo's ``4d`` dataset with the workloads' fixed catalogue."""
    return make_dataset(
        "4d", seed=DATASET_SEED, tasks_per_domain=tasks_per_domain
    )


def make_pool(dataset: CrowdDataset, num_workers: int) -> WorkerPool:
    """The workload's domain specialists, over the dataset's domains."""
    return WorkerPool.generate(
        WorkerPoolConfig(
            num_workers=num_workers,
            num_domains=dataset.taxonomy.size,
            active_domains=tuple(
                d.taxonomy_index for d in dataset.domains
            ),
            seed=POOL_SEED,
        )
    )


def fresh_copy(dataset: CrowdDataset) -> CrowdDataset:
    """The dataset as it was generated: no domain vectors, and a
    knowledge base with empty caches, so every set-up links and
    estimates anew."""
    return dataclasses.replace(
        dataset,
        tasks=[
            dataclasses.replace(task, domain_vector=None)
            for task in dataset.tasks
        ],
        kb=copy.deepcopy(dataset.kb),
    )
