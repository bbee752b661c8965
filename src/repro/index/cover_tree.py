"""Cover tree for metric-space partitioning (Section 5.3 of the paper).

The paper uses a cover tree (Izbicki & Shelton style) to carve the database
into ball-shaped regions: node expansion stops once a node holds fewer than
``partition_ratio * |D|`` points, and the resulting leaf balls are later
merged into ``K`` size-balanced clusters.

This implementation follows the simplified (nearest-ancestor) cover tree:
every node has a level ``l`` and covers points within radius ``2^l`` of its
centre; children live at level ``l - 1`` and are separated by more than
``2^(l-1)``.  Points are stored at the node that first covers them during
construction.  For the partitioning use case we mainly need:

* balanced-ish ball regions (leaf nodes with their member points), and
* per-region centre + covering radius, so the query-time indicator
  ``f_c(x, t)`` can test ball/query-ball intersection via the triangle
  inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..distances import DistanceFunction, get_distance


@dataclass
class CoverTreeNode:
    """One node of the cover tree."""

    center_index: int
    level: int
    #: database row indices stored directly at this node
    point_indices: List[int] = field(default_factory=list)
    children: List["CoverTreeNode"] = field(default_factory=list)

    def subtree_indices(self) -> List[int]:
        """All database row indices stored in this subtree."""
        indices = list(self.point_indices)
        for child in self.children:
            indices.extend(child.subtree_indices())
        return indices

    def subtree_size(self) -> int:
        return len(self.point_indices) + sum(child.subtree_size() for child in self.children)

    def max_depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.max_depth() for child in self.children)


@dataclass
class BallRegion:
    """A ball-shaped region of the database produced by the cover tree."""

    center: np.ndarray
    radius: float
    point_indices: np.ndarray

    @property
    def size(self) -> int:
        return int(len(self.point_indices))


class CoverTree:
    """Simplified cover tree over a set of vectors under a metric distance.

    Parameters
    ----------
    data:
        Database vectors, shape ``(n, dim)``.
    distance:
        A metric :class:`~repro.distances.DistanceFunction` or its name.
    min_region_size:
        Stop expanding a node once its subtree holds at most this many points
        (the paper's ``r |D|`` constraint, with ``r`` the partition ratio).
    max_levels:
        Safety bound on tree depth.
    """

    def __init__(
        self,
        data: np.ndarray,
        distance="euclidean",
        min_region_size: int = 64,
        max_levels: int = 32,
        seed: int = 0,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2 or len(self.data) == 0:
            raise ValueError("data must be a non-empty 2-D array")
        self.distance: DistanceFunction = (
            distance if isinstance(distance, DistanceFunction) else get_distance(distance)
        )
        if not self.distance.is_metric:
            raise ValueError("cover trees require a metric distance")
        self.min_region_size = max(int(min_region_size), 1)
        self.max_levels = max_levels
        self._rng = np.random.default_rng(seed)
        self.root = self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _distances_from(self, center_index: int, candidate_indices: np.ndarray) -> np.ndarray:
        return self.distance(self.data[center_index], self.data[candidate_indices])

    def _build(self) -> CoverTreeNode:
        all_indices = np.arange(len(self.data))
        root_index = int(self._rng.integers(0, len(self.data)))
        distances = self._distances_from(root_index, all_indices)
        max_distance = float(distances.max()) if len(distances) else 1.0
        root_level = int(np.ceil(np.log2(max(max_distance, 1e-9)))) + 1
        root = CoverTreeNode(center_index=root_index, level=root_level)
        members = all_indices[all_indices != root_index]
        root.point_indices.append(root_index)
        self._expand(root, members, depth=0)
        return root

    def _expand(self, node: CoverTreeNode, candidate_indices: np.ndarray, depth: int) -> None:
        """Recursively assign ``candidate_indices`` to ``node``'s subtree."""
        if len(candidate_indices) == 0:
            return
        if len(candidate_indices) + len(node.point_indices) <= self.min_region_size or depth >= self.max_levels:
            # Region is small enough: stop expanding (paper's partition-ratio rule).
            node.point_indices.extend(int(i) for i in candidate_indices)
            return

        child_level = node.level - 1
        separation = 2.0 ** child_level
        remaining = candidate_indices.copy()
        children: List[CoverTreeNode] = []
        child_assignments: List[List[int]] = []

        # Greedy cover: repeatedly pick a far-away point as a new child centre
        # and claim everything within the child's covering radius.
        while len(remaining) > 0:
            center = int(remaining[0])
            child = CoverTreeNode(center_index=center, level=child_level)
            child.point_indices.append(center)
            remaining = remaining[1:]
            if len(remaining) == 0:
                children.append(child)
                child_assignments.append([])
                break
            distances = self._distances_from(center, remaining)
            within = distances <= separation
            claimed = remaining[within]
            remaining = remaining[~within]
            children.append(child)
            child_assignments.append([int(i) for i in claimed])

        node.children = children
        for child, claimed in zip(children, child_assignments):
            self._expand(child, np.asarray(claimed, dtype=np.int64), depth + 1)

    # ------------------------------------------------------------------ #
    # Region extraction
    # ------------------------------------------------------------------ #
    def leaf_regions(self) -> List[BallRegion]:
        """Return the ball regions covering the database (the paper's K' regions).

        Leaf nodes contribute one region each.  Internal nodes store their own
        centre point (and nothing else); those points are emitted as
        zero-radius singleton regions so every database row belongs to exactly
        one region.
        """
        regions: List[BallRegion] = []

        def make_region(center_index: int, indices: np.ndarray) -> BallRegion:
            center = self.data[center_index]
            if len(indices) > 0:
                distances = self.distance(center, self.data[indices])
                radius = float(distances.max())
            else:
                radius = 0.0
            return BallRegion(center=center.copy(), radius=radius, point_indices=indices)

        def visit(node: CoverTreeNode) -> None:
            if not node.children:
                indices = np.asarray(node.subtree_indices(), dtype=np.int64)
                regions.append(make_region(node.center_index, indices))
                return
            if node.point_indices:
                own = np.asarray(node.point_indices, dtype=np.int64)
                regions.append(make_region(node.center_index, own))
            for child in node.children:
                visit(child)

        visit(self.root)
        return regions

    def num_points(self) -> int:
        """Total number of points stored in the tree (should equal ``len(data)``)."""
        return self.root.subtree_size()

    def depth(self) -> int:
        """Depth of the tree."""
        return self.root.max_depth()
