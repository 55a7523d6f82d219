"""Task scheduling over clustered compute nodes (paper Sec. III-D, use case 2).

Besides the generic task/node assignment, :meth:`GranularityAwareScheduler.
place_shards` specialises the scheduler for the sharded runtime: it treats
each data shard as a task whose demand is the shard size and returns one
host index per shard — exactly the ``placement`` option consumed by the TCP
executor (:class:`repro.distributed.resilience.TCPExecutor`), so shards land on
MCDC-grouped, performance-consistent workers instead of round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.mcdc import MCDC
from repro.distributed.node import NodePool
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int


@dataclass
class Task:
    """A unit of distributed work.

    ``demand`` is the relative amount of computation; ``preferred_profile``
    optionally requests a particular node group (e.g. "GPU-heavy").
    """

    task_id: int
    demand: float
    preferred_profile: Optional[int] = None


class RoundRobinScheduler:
    """Baseline scheduler: ignores node heterogeneity and deals tasks in turn."""

    def assign(self, tasks: List[Task], pool: NodePool) -> Dict[int, List[Task]]:
        assignment: Dict[int, List[Task]] = {node.node_id: [] for node in pool.nodes}
        node_ids = [node.node_id for node in pool.nodes]
        for index, task in enumerate(tasks):
            assignment[node_ids[index % len(node_ids)]].append(task)
        return assignment


class GranularityAwareScheduler:
    """Scheduler that first groups nodes with MCDC and then places tasks per group.

    Nodes are clustered on their categorical features into
    performance-consistent groups; each task is sent to the group matching its
    preference (or the fastest group) and, inside the group, to the node with
    the least accumulated demand.  This mirrors the paper's claim that
    multi-granular node clusters "flexibly guide the selection of uniform
    nodes according to computing task requirements".
    """

    def __init__(
        self, n_groups: int = 4, engine: str = "auto", random_state: RandomState = None
    ) -> None:
        self.n_groups = check_positive_int(n_groups, "n_groups")
        self.engine = engine
        self.random_state = random_state

    def group_nodes(self, pool: NodePool) -> np.ndarray:
        """Cluster the node pool; returns one group label per node."""
        dataset = pool.to_dataset()
        n_groups = min(self.n_groups, len(pool))
        mcdc = MCDC(n_clusters=n_groups, engine=self.engine, random_state=self.random_state)
        self.node_groups_ = mcdc.fit_predict(dataset)
        self.mcdc_ = mcdc
        return self.node_groups_

    def assign(self, tasks: List[Task], pool: NodePool) -> Dict[int, List[Task]]:
        groups = self.group_nodes(pool)
        throughputs = pool.throughputs()
        n_groups = int(groups.max()) + 1

        # Rank groups by their mean throughput (fastest first).
        group_speed = np.array(
            [throughputs[groups == g].mean() if (groups == g).any() else 0.0 for g in range(n_groups)]
        )
        speed_rank = np.argsort(-group_speed)

        loads = np.zeros(len(pool), dtype=np.float64)
        assignment: Dict[int, List[Task]] = {node.node_id: [] for node in pool.nodes}
        node_ids = np.array([node.node_id for node in pool.nodes])

        for task in sorted(tasks, key=lambda t: -t.demand):
            if task.preferred_profile is not None and task.preferred_profile < n_groups:
                members = np.flatnonzero(groups == task.preferred_profile)
            else:
                # No profile preference: consider every node, so unconstrained
                # work spreads across groups instead of piling onto the
                # fastest one.
                members = np.arange(len(pool))
            if members.size == 0:
                members = np.arange(len(pool))
            # Least-loaded node (normalised by its throughput) within the
            # group; ties on equal accumulated demand are broken by the
            # smallest node_id, so the placement never depends on the
            # iteration order of the pool.
            normalised = loads[members] / np.maximum(throughputs[members], 1e-9)
            chosen = members[np.lexsort((node_ids[members], normalised))[0]]
            loads[chosen] += task.demand
            assignment[int(node_ids[chosen])].append(task)
        return assignment

    def place_shards(self, shard_sizes: Sequence[int], pool: NodePool) -> List[int]:
        """Map data shards onto pool nodes; returns one node *index* per shard.

        Each shard becomes a :class:`Task` whose demand is its size, the pool
        is MCDC-grouped as usual, and the heaviest shards go first to the
        least-loaded (throughput-normalised) nodes.  The returned list is the
        ``placement`` option of the TCP executor: shard ``i`` connects to
        ``hosts[placement[i]]`` when ``hosts`` lists one worker per pool node
        (in ``pool.nodes`` order).
        """
        tasks = [
            Task(task_id=index, demand=float(size))
            for index, size in enumerate(shard_sizes)
        ]
        assignment = self.assign(tasks, pool)
        node_index = {node.node_id: position for position, node in enumerate(pool.nodes)}
        placement = [0] * len(tasks)
        for node_id, placed in assignment.items():
            for task in placed:
                placement[task.task_id] = node_index[node_id]
        return placement
