"""Cluster topology: placement of user processes onto SMP nodes.

The paper's testbed is a cluster of dual-SMP nodes; process placement matters
because intra-node communication bypasses the network, and because a lock can
be handed off with *zero* messages when the releaser and the next waiter
share a node (paper §3.2.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["Topology"]


class Topology:
    """Maps process ranks to nodes.

    Parameters
    ----------
    nprocs:
        Total number of user processes (ranks ``0..nprocs-1``).
    procs_per_node:
        Block placement: ranks ``[k*procs_per_node, (k+1)*procs_per_node)``
        live on node ``k``.  The last node may be partially filled.
    placement:
        Alternatively, an explicit ``rank -> node`` list; overrides
        ``procs_per_node`` if given.
    """

    def __init__(
        self,
        nprocs: int,
        procs_per_node: int = 1,
        placement: Sequence[int] | None = None,
    ):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        if placement is not None:
            placement = list(placement)
            if len(placement) != nprocs:
                raise ValueError(
                    f"placement has {len(placement)} entries for {nprocs} ranks"
                )
            if any(n < 0 for n in placement):
                raise ValueError("node ids must be non-negative")
            # Nodes must be densely numbered 0..nnodes-1.
            used = sorted(set(placement))
            if used != list(range(len(used))):
                raise ValueError(
                    f"node ids must be dense 0..k-1, got {used}"
                )
            self._node_of = placement
        else:
            if procs_per_node < 1:
                raise ValueError(
                    f"procs_per_node must be >= 1, got {procs_per_node}"
                )
            self._node_of = [r // procs_per_node for r in range(nprocs)]
        self.nnodes = max(self._node_of) + 1
        self._ranks_on: List[List[int]] = [[] for _ in range(self.nnodes)]
        for rank, node in enumerate(self._node_of):
            self._ranks_on[node].append(rank)
        #: The most ranks any one node hosts.
        self.procs_per_node = max(len(ranks) for ranks in self._ranks_on)
        #: The lowest rank of each node, indexed by node.
        self.leaders: Tuple[int, ...] = tuple(ranks[0] for ranks in self._ranks_on)

    def __repr__(self) -> str:
        return (
            f"<Topology nprocs={self.nprocs} nnodes={self.nnodes} "
            f"ppn={self.procs_per_node}>"
        )

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
        self._check_rank(rank)
        return self._node_of[rank]

    def ranks_on(self, node: int) -> Tuple[int, ...]:
        """All ranks hosted on ``node``."""
        if not (0 <= node < self.nnodes):
            raise ValueError(f"node {node} out of range [0, {self.nnodes})")
        return tuple(self._ranks_on[node])

    def same_node(self, a: int, b: int) -> bool:
        """True if ranks ``a`` and ``b`` share an SMP node."""
        self._check_rank(a)
        self._check_rank(b)
        return self._node_of[a] == self._node_of[b]

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nprocs):
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
