"""Tree flattening: :class:`CompiledTopology`, :class:`CompiledTree`.

An :class:`~repro.circuit.tree.RLCTree` stores its structure as dicts of
names — ideal for incremental construction and validation, hostile to
array math. Compilation separates the two concerns the way the paper's
Appendix separates them: the *structure* (which node feeds which) is
fixed per net, while the *values* (R/L/C per section) are what design
loops perturb thousands of times.

:class:`CompiledTopology` holds the structure only:

* ``names`` — the nodes in insertion order, which
  :meth:`RLCTree.add_section` guarantees is topological (parent before
  child);
* ``parent`` — the parent slot of every node, with a sentinel slot ``n``
  standing in for the root;
* CSR children (``child_offsets`` / ``child_indices``) for subtree
  queries;
* per-level index groups, siblings contiguous, which is what lets the
  two depth-first passes of the Appendix (``Cal_Cap_Loads`` /
  ``Cal_Summations``) run as one vectorized gather/segment-sum per tree
  level instead of one dict operation per node.

:class:`CompiledTree` pairs a topology with three value vectors. Both
sweep directions accept arrays of shape ``(..., n)``, so a single code
path serves one tree and a stacked ``(S, n)`` batch of S value
scenarios.

Because design loops (Monte-Carlo variation, wire sizing, clock tuning)
rebuild trees with identical structure, :func:`compile_tree` keys a
small LRU cache on :func:`topology_fingerprint` — a fixed-size digest of
the structure alone — so value-perturbed copies of one net share the
permutation/level arrays. The key and the value vectors are memoized on
each tree (:meth:`RLCTree.derived`) and dropped by the mutations that
change them, so compiling an already-seen tree again walks no nodes in
Python, and a mutated tree never serves stale element values.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ReductionError, TopologyError

__all__ = [
    "CompiledTopology",
    "CompiledTree",
    "topology_fingerprint",
    "topology_key",
    "compile_tree",
    "clear_topology_cache",
    "topology_cache_info",
]


def _structure_key(
    root: str, names: Tuple[str, ...], parent: np.ndarray
) -> Tuple[str, int, bytes]:
    """``(root, n, digest)`` with a 16-byte BLAKE2b digest of the structure.

    The digest covers every name, length-prefixed so that no two name
    lists encode alike, and every parent slot (``n`` for the root).
    """
    encoded = [name.encode("utf-8", "surrogatepass") for name in names]
    n = len(encoded)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.fromiter(map(len, encoded), dtype="<i8", count=n).tobytes())
    digest.update(b"".join(encoded))
    digest.update(np.asarray(parent, dtype="<i8").tobytes())
    return (root, n, digest.digest())


def _parent_slots(tree: RLCTree) -> np.ndarray:
    """The parent slot of every node in insertion order; ``n`` is the root."""
    names = tree.nodes
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    index[tree.root] = n
    return np.fromiter(
        (index[tree.parent(name)] for name in names), dtype=np.intp, count=n
    )


def _value_vectors(tree: RLCTree) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The R, L and C vectors of ``tree`` in insertion order."""
    sections = [section for _, section in tree.sections()]
    n = len(sections)
    return (
        np.fromiter((s.resistance for s in sections), dtype=float, count=n),
        np.fromiter((s.inductance for s in sections), dtype=float, count=n),
        np.fromiter((s.capacitance for s in sections), dtype=float, count=n),
    )


def topology_fingerprint(tree: RLCTree) -> Tuple[str, int, bytes]:
    """A fixed-size hashable key identifying the tree's *structure* only.

    Two trees share a fingerprint exactly when they have the same root
    name, the same nodes in the same insertion order, and the same
    parent for every node (up to a 128-bit digest collision) — element
    values are deliberately excluded, which is what lets value-only
    perturbations reuse a compiled topology. Computed once per tree and
    memoized on it until :meth:`RLCTree.add_section` changes the
    structure.
    """
    return tree.derived(
        "structure",
        lambda t: _structure_key(t.root, t.nodes, _parent_slots(t)),
    )


def topology_key(topology: "CompiledTopology") -> Tuple[str, int, bytes]:
    """The :func:`topology_fingerprint` a compiled topology came from.

    Reconstructed purely from the structure arrays, so it needs no
    :class:`~repro.circuit.tree.RLCTree` (an unpickled topology has
    none). Cached on the topology after the first call.
    """
    key = topology._key
    if key is None:
        key = _structure_key(topology.root, topology.names, topology.parent)
        topology._key = key
    return key


@dataclass(frozen=True)
class _LevelGroup:
    """One tree level, pre-sorted so siblings are contiguous.

    ``nodes`` are the level's node slots ordered by (parent slot,
    insertion order); ``parents``/``starts``/``ends`` describe the
    sibling segments: children of ``parents[i]`` occupy
    ``nodes[starts[i]:ends[i]]``.
    """

    nodes: np.ndarray
    parents: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


class CompiledTopology:
    """The structure of one RLC tree, flattened to index arrays.

    A memo field rides along: ``_key`` (see :func:`topology_key`). It
    is not pickled, nor are the lazy per-topology caches, which an
    unpickled copy rebuilds on demand.
    """

    def __init__(self, root: str, names: Tuple[str, ...], parent: np.ndarray):
        n = len(names)
        self.root = root
        self.names = names
        self.size = n
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        #: parent slot per node; the sentinel ``n`` stands for the root.
        self.parent = parent

        # Levels: level of node i is level(parent) + 1; root is level 0.
        level = np.empty(n, dtype=np.intp)
        for i in range(n):
            p = parent[i]
            level[i] = 1 if p == n else level[p] + 1
        self.level = level
        self.depth = int(level.max()) if n else 0

        # Per-level groups with siblings contiguous (stable sort by
        # parent keeps siblings in insertion order, matching the dict
        # traversals' accumulation order).
        groups: List[_LevelGroup] = []
        for lvl in range(1, self.depth + 1):
            nodes = np.flatnonzero(level == lvl)
            order = np.argsort(parent[nodes], kind="stable")
            nodes = nodes[order]
            parents, starts = np.unique(parent[nodes], return_index=True)
            ends = np.append(starts[1:], nodes.size)
            groups.append(_LevelGroup(nodes, parents, starts, ends))
        self.levels: Tuple[_LevelGroup, ...] = tuple(groups)

        # CSR children over non-root nodes (root's children are level 1).
        counts = np.zeros(n + 1, dtype=np.intp)
        for i in range(n):
            counts[parent[i]] += 1
        offsets = np.zeros(n + 2, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        child_indices = np.empty(n, dtype=np.intp)
        cursor = offsets[:-1].copy()
        for i in range(n):  # insertion order -> children stored in order
            p = parent[i]
            child_indices[cursor[p]] = i
            cursor[p] += 1
        #: children of node i are child_indices[child_offsets[i]:child_offsets[i+1]];
        #: slot ``n`` holds the root's children.
        self.child_offsets = offsets[:-1]
        self.child_ends = offsets[1:]
        self.child_indices = child_indices

        #: True when the tree is a pure chain in insertion order
        #: (``parent[i] == i - 1`` with the root feeding node 0). Both
        #: sweep directions then collapse to a single ``cumsum`` instead
        #: of one python-level iteration per tree level — the dominant
        #: cost on deep nets, where ``depth == n``.
        self.is_chain = bool(
            n > 0
            and parent[0] == n
            and np.array_equal(parent[1:], np.arange(n - 1))
        )

        # Preorder layout (order/position/end), built lazily by
        # preorder_layout() — only incremental edits need it.
        self._preorder: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Lazy per-slot root-path cache and a plain-python parent list,
        # both for the incremental engine's O(depth) walks (python-int
        # arithmetic beats numpy scalar indexing ~10x on these).
        self._root_paths: Dict[int, Tuple[np.ndarray, List[int]]] = {}
        self._parent_pylist: Optional[List[int]] = None
        self._key: Optional[Tuple[str, int, bytes]] = None

    @classmethod
    def from_tree(cls, tree: RLCTree) -> "CompiledTopology":
        return cls(tree.root, tree.nodes, _parent_slots(tree))

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state.update(
            _key=None,
            _preorder=None,
            _root_paths={},
            _parent_pylist=None,
        )
        return state

    # -- vectorized sweeps -------------------------------------------------

    def accumulate(self, weights: np.ndarray) -> np.ndarray:
        """Subtree totals of per-node ``weights`` (``Cal_Cap_Loads``).

        ``weights`` has shape ``(..., n)``; the return value is the sum
        of each node's own weight plus its whole subtree's. One
        segment-sum per level, deepest first — additions only, exactly
        the Appendix's postorder pass.
        """
        if self.is_chain:
            # Reverse running sum. Bitwise identical to the level loop:
            # both form acc[k] = w[k] (+) acc[k+1] one partial sum at a
            # time, and IEEE addition is commutative, so the operand
            # order difference (accumulator left vs right) cannot change
            # a single bit.
            w = np.asarray(weights, dtype=float)
            return np.ascontiguousarray(np.cumsum(w[..., ::-1], axis=-1)[..., ::-1])
        acc = np.array(weights, dtype=float, copy=True)
        for group in self.levels[:0:-1]:  # deepest level down to level 2
            # Sibling segments tile the level (starts[0] == 0, ends
            # chain to nodes.size), so reduceat sums each parent's
            # children with additions only. A cumsum-and-subtract
            # segmented sum would carry absolute error at the scale of
            # the *level* total — catastrophic for a tiny subtree next
            # to large siblings.
            acc[..., group.parents] += np.add.reduceat(
                acc[..., group.nodes], group.starts, axis=-1
            )
        return acc

    def descend(self, contrib: np.ndarray) -> np.ndarray:
        """Root-to-node prefix sums of ``contrib`` (``Cal_Summations``).

        ``out[i] = out[parent(i)] + contrib[i]`` with the root
        contributing zero; one gather + add per level, shallow first.
        """
        contrib = np.asarray(contrib, dtype=float)
        if self.is_chain:
            # Plain running sum — the level loop's exact association
            # (accumulator + contrib, one element per step).
            return np.cumsum(contrib, axis=-1)
        n = self.size
        out = np.zeros(contrib.shape[:-1] + (n + 1,))
        for group in self.levels:
            idx = group.nodes
            out[..., idx] = out[..., self.parent[idx]] + contrib[..., idx]
        return out[..., :n]

    def descend2(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Prefix sums of two addends with the dict sweep's association.

        Evaluates ``out[i] = (out[parent(i)] + first[i]) + second[i]``,
        the exact floating-point grouping of
        :func:`repro.analysis.moments.weighted_path_sums`.
        """
        first = np.asarray(first, dtype=float)
        second = np.asarray(second, dtype=float)
        n = self.size
        out = np.zeros(first.shape[:-1] + (n + 1,))
        for group in self.levels:
            idx = group.nodes
            out[..., idx] = (
                out[..., self.parent[idx]] + first[..., idx]
            ) + second[..., idx]
        return out[..., :n]

    # -- structural queries ------------------------------------------------

    def children(self, slot: int) -> np.ndarray:
        """Child slots of node ``slot`` (pass ``size`` for the root)."""
        return self.child_indices[self.child_offsets[slot]:self.child_ends[slot]]

    def preorder_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, position, end)``: preorder permutation + subtree spans.

        ``order[k]`` is the k-th slot of a root-first DFS with children
        visited in insertion order; ``position``/``end`` delimit each
        subtree inside it, so ``order[position[i]:end[i]]`` lists
        subtree(i) as one *contiguous* range. That contiguity is what
        lets the incremental engine apply a subtree-constant offset as a
        single slice operation instead of a tree walk. Built lazily on
        first use and cached on the topology (the batch engine never
        needs it).
        """
        layout = self._preorder
        if layout is None:
            global _preorder_builds
            n = self.size
            order = np.empty(n, dtype=np.intp)
            position = np.empty(n, dtype=np.intp)
            end = np.empty(n, dtype=np.intp)
            cursor = 0
            stack = [(int(slot), False) for slot in self.children(n)[::-1]]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    end[node] = cursor
                    continue
                order[cursor] = node
                position[node] = cursor
                cursor += 1
                stack.append((node, True))
                kids = self.child_indices[
                    self.child_offsets[node]:self.child_ends[node]
                ]
                stack.extend((int(k), False) for k in kids[::-1])
            layout = (order, position, end)
            self._preorder = layout
            with _cache_lock:
                _preorder_builds += 1
        return layout

    def parent_list(self) -> List[int]:
        """The parent slots as a plain python list (cached).

        Walking a root path with python-int list indexing is an order of
        magnitude faster than indexing the numpy ``parent`` array one
        scalar at a time — the difference between O(depth) walks that
        beat a full sweep and ones that do not.
        """
        parents = self._parent_pylist
        if parents is None:
            parents = self.parent.tolist()
            self._parent_pylist = parents
        return parents

    def root_path(self, slot: int) -> Tuple[np.ndarray, List[int]]:
        """The slots from ``slot`` up to its level-1 ancestor, cached.

        Returns ``(array, list)`` of the same path — the array form for
        fancy-indexed vector updates, the list form for python-loop
        composition. Paths are structural, so the per-slot cache lives
        on the topology; worst case it holds O(n * depth) entries, the
        same order as the level tables of a degenerate chain.
        """
        cached = self._root_paths.get(slot)
        if cached is None:
            parents = self.parent_list()
            n = self.size
            path: List[int] = []
            s = slot
            while s != n:
                path.append(s)
                s = parents[s]
            cached = (np.array(path, dtype=np.intp), path)
            self._root_paths[slot] = cached
        return cached

    def node_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"CompiledTopology(root={self.root!r}, sections={self.size}, "
            f"depth={self.depth})"
        )


@dataclass(frozen=True)
class CompiledTree:
    """A compiled topology plus one set of R/L/C value vectors.

    The value vectors are indexed by the topology's node order
    (``topology.names``). :meth:`with_values` swaps values without
    touching the structure arrays — the cheap operation design sweeps
    repeat thousands of times.
    """

    topology: CompiledTopology
    resistance: np.ndarray
    inductance: np.ndarray
    capacitance: np.ndarray

    @classmethod
    def from_tree(
        cls, tree: RLCTree, topology: Optional[CompiledTopology] = None
    ) -> "CompiledTree":
        if topology is None:
            topology = CompiledTopology.from_tree(tree)
        return cls(topology, *_value_vectors(tree))

    def with_values(
        self,
        resistance: np.ndarray,
        inductance: np.ndarray,
        capacitance: np.ndarray,
    ) -> "CompiledTree":
        """The same structure with new per-section value vectors."""
        n = self.topology.size
        arrays = []
        for label, values in (
            ("resistance", resistance),
            ("inductance", inductance),
            ("capacitance", capacitance),
        ):
            values = np.asarray(values, dtype=float)
            if values.shape != (n,):
                raise ReductionError(
                    f"{label} vector must have shape ({n},), got {values.shape}"
                )
            arrays.append(values)
        return CompiledTree(self.topology, *arrays)

    @property
    def size(self) -> int:
        return self.topology.size

    @property
    def names(self) -> Tuple[str, ...]:
        return self.topology.names

    # -- the Appendix sweeps, vectorized -----------------------------------

    def capacitive_loads(self) -> np.ndarray:
        """Subtree capacitance per node (``Cal_Cap_Loads``)."""
        return self.topology.accumulate(self.capacitance)

    def second_order_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(T_RC, T_LC)`` arrays at every node (eqs. 26-27), O(n)."""
        loads = self.capacitive_loads()
        t_rc = self.topology.descend(self.resistance * loads)
        t_lc = self.topology.descend(self.inductance * loads)
        return t_rc, t_lc

    def weighted_path_sums(
        self, resistance_weights: np.ndarray, inductance_weights: np.ndarray
    ) -> np.ndarray:
        """The generalized ``Cal_Summations`` kernel on arrays.

        Mirrors :func:`repro.analysis.moments.weighted_path_sums`:
        subtree totals of both weight sets, then one downward pass with
        two multiplications per section.
        """
        sub_r = self.topology.accumulate(resistance_weights)
        sub_l = self.topology.accumulate(inductance_weights)
        return self.topology.descend2(
            self.resistance * sub_r, self.inductance * sub_l
        )

    def exact_moments(self, order: int) -> np.ndarray:
        """Exact moments ``m_0..m_order`` at every node, shape
        ``(order + 1, n)`` — the vectorized twin of
        :func:`repro.analysis.moments.exact_moments`."""
        if order < 0:
            raise ReductionError("moment order must be non-negative")
        n = self.size
        rows = [np.ones(n)]
        previous = rows[0]
        before_previous = np.zeros(n)
        for _ in range(order):
            current = -self.weighted_path_sums(
                self.capacitance * previous,
                self.capacitance * before_previous,
            )
            rows.append(current)
            before_previous, previous = previous, current
        return np.stack(rows, axis=0)


# -- the topology cache ----------------------------------------------------
#
# A process-global LRU keyed on topology fingerprints. Every mutation —
# lookup + move_to_end, insert + evict, counter bumps — happens under
# ``_cache_lock``: compile_tree is called from threaded design loops and
# from the analysis service's executor threads, and an unsynchronized
# OrderedDict corrupts under concurrent move_to_end/popitem (and loses
# counter updates). The structural compile itself runs outside the lock,
# so concurrent misses may compile the same topology twice; the first
# insert wins and the duplicate is discarded — wasted work, never a
# wrong result.

_CACHE_MAXSIZE = 128
_cache: "OrderedDict[Tuple, CompiledTopology]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0
_preorder_builds = 0


def compile_tree(tree: RLCTree, *, cache: bool = True) -> CompiledTree:
    """Flatten ``tree`` into a :class:`CompiledTree`.

    With ``cache=True`` (the default) the structural compile is keyed on
    :func:`topology_fingerprint`, so value-perturbed copies of one net
    pay only the O(n) value extraction. The value vectors are memoized
    per tree and dropped when :meth:`RLCTree.replace_section` or
    :meth:`RLCTree.add_section` mutates it, so compiling the same tree
    again costs three array copies; the copies keep a caller who edits
    a returned array from corrupting the memo. ``cache=False`` is a cold
    compile that reads nothing memoized. Cache operations are
    thread-safe.
    """
    global _cache_hits, _cache_misses
    if not cache:
        return CompiledTree.from_tree(tree)
    key = topology_fingerprint(tree)
    with _cache_lock:
        topology = _cache.get(key)
        if topology is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
    if topology is None:
        compiled = CompiledTopology.from_tree(tree)
        compiled._key = key
        with _cache_lock:
            _cache_misses += 1
            topology = _cache.get(key)
            if topology is None:
                topology = compiled
                _cache[key] = topology
            else:
                _cache.move_to_end(key)
            while len(_cache) > _CACHE_MAXSIZE:
                _cache.popitem(last=False)
    r, l, c = tree.derived("values", _value_vectors)
    return CompiledTree(topology, r.copy(), l.copy(), c.copy())


def clear_topology_cache() -> None:
    """Empty the topology cache and reset its counters."""
    global _cache_hits, _cache_misses, _preorder_builds
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
        _preorder_builds = 0


def topology_cache_info() -> Dict[str, int]:
    """``{"hits", "misses", "size", "maxsize"}`` of the topology cache."""
    with _cache_lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "size": len(_cache),
            "maxsize": _CACHE_MAXSIZE,
            "preorder_builds": _preorder_builds,
        }
