"""The :class:`RLCTree` container.

An RLC tree (paper Fig. 3 / Fig. 5) is a rooted tree of
:class:`~repro.circuit.elements.Section` objects. The root node is the
point where the input source drives the tree; every other node hangs off
its parent through the series R/L of its section and carries the section's
shunt capacitance.

Node identity is a string name chosen by the caller (``"n1"``, ``"sink_3"``
...). The root has a name too (default ``"in"``) but no section.

Construction is incremental and validated::

    tree = RLCTree()
    tree.add_section("n1", parent="in", resistance=25, inductance="10n",
                     capacitance="1p")
    tree.add_section("n2", parent="n1", resistance=25, inductance="10n",
                     capacitance="1p")

All traversal helpers return node names; use :meth:`RLCTree.section` to get
element values for a node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import TopologyError
from .elements import Section

__all__ = ["RLCTree"]

#: The :meth:`RLCTree.derived` kind that survives :meth:`RLCTree.replace_section`.
_STRUCTURE = "structure"


class RLCTree:
    """A rooted tree of RLC sections with O(1) structural queries.

    The class is deliberately a plain container: electrical analysis lives
    in :mod:`repro.analysis` and :mod:`repro.simulation`, which consume the
    traversal API exposed here. Keeping topology and analysis separate is
    what lets the same tree feed the closed-form model, the exact
    simulator, and the model-order-reduction baselines.
    """

    def __init__(self, root: str = "in"):
        if not root:
            raise TopologyError("root name must be a non-empty string")
        self._root = root
        self._parents: Dict[str, str] = {}
        self._children: Dict[str, List[str]] = {root: []}
        self._sections: Dict[str, Section] = {}
        self._order: List[str] = []  # insertion order of non-root nodes
        self._derived: Dict[str, Any] = {}  # see derived()

    # -- construction ----------------------------------------------------

    def add_section(
        self,
        name: str,
        parent: str,
        resistance: float | str = 0.0,
        inductance: float | str = 0.0,
        capacitance: float | str = 0.0,
        *,
        section: Optional[Section] = None,
    ) -> "RLCTree":
        """Attach a new node ``name`` below ``parent``.

        Either pass R/L/C values (floats or suffixed strings) or a
        prebuilt :class:`Section` via ``section=``. Returns ``self`` so
        construction chains.
        """
        if not name:
            raise TopologyError("node name must be a non-empty string")
        if name == self._root or name in self._sections:
            raise TopologyError(f"duplicate node name {name!r}")
        if parent not in self._children:
            raise TopologyError(
                f"parent {parent!r} of node {name!r} is not in the tree"
            )
        if section is None:
            section = Section(resistance, inductance, capacitance)
        self._parents[name] = parent
        self._children[parent].append(name)
        self._children[name] = []
        self._sections[name] = section
        self._order.append(name)
        self._derived = {}
        return self

    def replace_section(self, name: str, section: Section) -> "RLCTree":
        """Swap the element values of an existing node in place."""
        self._require_node(name)
        self._sections[name] = section
        kept = self._derived.get(_STRUCTURE)
        self._derived = {} if kept is None else {_STRUCTURE: kept}
        return self

    # -- derived data ------------------------------------------------------

    def derived(self, kind: str, build: Callable[["RLCTree"], Any]) -> Any:
        """``build(self)``, computed once per state of the tree.

        Other layers keep what they derive from a tree here: the
        compiled engine memoizes its structural key under
        ``"structure"`` and its R/L/C value vectors under ``"values"``.
        :meth:`add_section` drops every entry and
        :meth:`replace_section` every entry but ``"structure"``. Those
        are the only two mutations (structure is append-only and
        :class:`Section` is frozen), so an entry never outlives the
        state it was built from. Callers must not mutate the result.
        """
        memo = self._derived
        try:
            return memo[kind]
        except KeyError:
            pass
        value = build(self)
        # A mutation during build() swapped in a fresh dict, so a value
        # built from the old state lands in the discarded one.
        memo[kind] = value
        return value

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_derived", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._derived = {}

    # -- identity and sizes ----------------------------------------------

    @property
    def root(self) -> str:
        """Name of the driving-point node."""
        return self._root

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All non-root node names in insertion order."""
        return tuple(self._order)

    @property
    def size(self) -> int:
        """Number of sections (equals number of non-root nodes)."""
        return len(self._order)

    @property
    def depth(self) -> int:
        """Largest node level (root is level 0)."""
        return max((self.level(name) for name in self._order), default=0)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, name: object) -> bool:
        return name == self._root or name in self._sections

    def __repr__(self) -> str:
        return (
            f"RLCTree(root={self._root!r}, sections={self.size}, "
            f"depth={self.depth}, leaves={len(self.leaves())})"
        )

    # -- structural queries ------------------------------------------------

    def _require_node(self, name: str) -> None:
        if name not in self._sections:
            if name == self._root:
                raise TopologyError(f"the root {name!r} has no section")
            raise TopologyError(f"unknown node {name!r}")

    def section(self, name: str) -> Section:
        """The section (R, L, C) whose far end is node ``name``."""
        self._require_node(name)
        return self._sections[name]

    def parent(self, name: str) -> str:
        """Parent node name; raises for the root."""
        self._require_node(name)
        return self._parents[name]

    def children(self, name: str) -> Tuple[str, ...]:
        """Child node names in insertion order."""
        if name not in self._children:
            raise TopologyError(f"unknown node {name!r}")
        return tuple(self._children[name])

    def is_leaf(self, name: str) -> bool:
        """True when ``name`` has no children (a sink)."""
        if name not in self._children:
            raise TopologyError(f"unknown node {name!r}")
        return not self._children[name]

    def leaves(self) -> Tuple[str, ...]:
        """All sink nodes in insertion order."""
        return tuple(n for n in self._order if not self._children[n])

    def level(self, name: str) -> int:
        """Distance (in sections) from the root; the root is level 0."""
        if name == self._root:
            return 0
        return len(self.path_to(name))

    def path_to(self, name: str) -> Tuple[str, ...]:
        """Node names on the path root -> ``name`` (excluding the root,
        including ``name``). Each entry names both a node and its section,
        so this is also the list of sections the signal traverses."""
        self._require_node(name)
        path: List[str] = []
        node = name
        while node != self._root:
            path.append(node)
            node = self._parents[node]
        path.reverse()
        return tuple(path)

    def common_path(self, first: str, second: str) -> Tuple[str, ...]:
        """Sections common to the paths from the root to two nodes.

        This is the ``path(i) & path(k)`` intersection whose resistance sum is the
        classic Elmore common-path resistance ``R_ki`` (paper eq. 7) and
        whose inductance sum is the ``L_ki`` analogue.
        """
        path_second = set(self.path_to(second))
        return tuple(n for n in self.path_to(first) if n in path_second)

    def subtree(self, name: str) -> Tuple[str, ...]:
        """All nodes at or below ``name`` (preorder)."""
        self._require_node(name)
        out: List[str] = []
        stack = [name]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self._children[node]))
        return tuple(out)

    # -- traversals ---------------------------------------------------------

    def preorder(self) -> Iterator[str]:
        """Yield non-root nodes parent-before-child."""
        stack = list(reversed(self._children[self._root]))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def postorder(self) -> Iterator[str]:
        """Yield non-root nodes children-before-parent."""
        # Iterative postorder: push (node, expanded) pairs.
        stack: List[Tuple[str, bool]] = [
            (n, False) for n in reversed(self._children[self._root])
        ]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in reversed(self._children[node]))

    def levels(self) -> List[Tuple[str, ...]]:
        """Nodes grouped by level, ``result[0]`` being level-1 nodes."""
        grouped: Dict[int, List[str]] = {}
        for name in self._order:
            grouped.setdefault(self.level(name), []).append(name)
        if not grouped:
            return []
        return [tuple(grouped.get(lvl, ())) for lvl in range(1, max(grouped) + 1)]

    # -- electrical aggregates ---------------------------------------------

    def total_capacitance(self) -> float:
        """Sum of all shunt capacitances in the tree."""
        return sum(s.capacitance for s in self._sections.values())

    def total_resistance(self) -> float:
        """Sum of all section resistances (not a path quantity)."""
        return sum(s.resistance for s in self._sections.values())

    def total_inductance(self) -> float:
        """Sum of all section inductances (not a path quantity)."""
        return sum(s.inductance for s in self._sections.values())

    def downstream_capacitance(self, name: str) -> float:
        """Total capacitance at or below ``name`` (``C_Tk`` in the
        Appendix's ``Cal_Cap_Loads``)."""
        return sum(self._sections[n].capacitance for n in self.subtree(name))

    def path_resistance(self, name: str) -> float:
        """Total series resistance from the root to node ``name``."""
        return sum(self._sections[n].resistance for n in self.path_to(name))

    def path_inductance(self, name: str) -> float:
        """Total series inductance from the root to node ``name``."""
        return sum(self._sections[n].inductance for n in self.path_to(name))

    def is_rc(self) -> bool:
        """True when no section carries inductance (a plain RC tree)."""
        return all(s.inductance == 0.0 for s in self._sections.values())

    # -- transformations -----------------------------------------------------

    def scaled(
        self,
        resistance_factor: float = 1.0,
        inductance_factor: float = 1.0,
        capacitance_factor: float = 1.0,
    ) -> "RLCTree":
        """A new tree with every section's values scaled.

        Impedance and time scaling of whole trees is the standard way to
        sweep the damping factor while keeping topology fixed, which is
        how the paper produces its Fig. 11 zeta family.
        """
        return self.map_sections(
            lambda _, s: s.scaled(
                resistance_factor, inductance_factor, capacitance_factor
            )
        )

    def map_sections(
        self, transform: Callable[[str, Section], Section]
    ) -> "RLCTree":
        """A new tree with each section replaced by ``transform(name, s)``."""
        clone = RLCTree(self._root)
        for name in self._order:
            clone.add_section(
                name,
                self._parents[name],
                section=transform(name, self._sections[name]),
            )
        return clone

    def without_inductance(self) -> "RLCTree":
        """The RC skeleton of this tree (every L forced to zero).

        Used throughout the benchmarks to compare the RLC model against
        the classic RC Elmore treatment of the same net.
        """
        return self.map_sections(
            lambda _, s: Section(s.resistance, 0.0, s.capacitance)
        )

    def sections(self) -> Iterable[Tuple[str, Section]]:
        """Iterate ``(name, section)`` pairs in insertion order."""
        return ((name, self._sections[name]) for name in self._order)
