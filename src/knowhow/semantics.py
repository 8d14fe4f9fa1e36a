"""Exact finite-model semantics over labelled transition systems.

A model is a finite set of states, one binary relation per action symbol, and
a propositional valuation.  Truth sets are computed exactly; the know-how
modality ``Kh(pre, post)`` holds globally iff some plan (finite action word)
is strongly executable from every ``pre``-state and lands every execution
inside ``post``.  Witness plans are synthesized by a breadth-first search over
state subsets, which terminates because the frontier ranges over at most
2^|S| subsets.

State sets are bitmasks over state indices (bit i = ``states[i]``).  Each
action's relation is stored as one successor bitmask per state, so reading
it, checking it and taking an image cost O(|S|) integer operations per
action.  ``Lts.rel`` reads them off as sets of index pairs for the JSON
model format; a certificate has at most one state per satisfied query of its
guess check, so those sets stay small.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .formula import (
    And,
    Atom,
    Bottom,
    Exis,
    Formula,
    Iff,
    Implies,
    Kh,
    Not,
    Or,
    Top,
    Univ,
    desugar,  # noqa: F401  unused here; perfbench's tracer wraps ``semantics.desugar``
    fold,
)

Plan = tuple[str, ...]
StateSet = int
T = TypeVar("T")


@dataclass(frozen=True)
class Lts:
    """Labelled transition system.

    ``states`` fixes the index order; ``succ`` maps each action to a tuple
    of per-state successor bitmasks (entry i is the set of states that
    ``states[i]`` reaches by that action); ``val`` maps each atom to the
    bitmask of states where it holds.  Declared actions absent from ``succ``
    have no transitions, and atoms absent from ``val`` are false everywhere.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    succ: Mapping[str, tuple[StateSet, ...]]
    val: Mapping[str, StateSet]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a model needs at least one state")
        n = len(self.states)
        for action, masks in self.succ.items():
            if action not in self.actions:
                raise ValueError(f"relation for undeclared action {action!r}")
            if len(masks) != n or any(mask >> n for mask in masks):
                raise ValueError(f"relation {action!r} references state index out of range")
        for atom, mask in self.val.items():
            if mask >> n:  # also true of a negative mask
                raise ValueError(f"valuation {atom!r} references state index out of range")

    @property
    def all_states(self) -> StateSet:
        return (1 << len(self.states)) - 1

    @property
    def rel(self) -> dict[str, frozenset[tuple[int, int]]]:
        """Each action's relation as a set of (src, dst) index pairs, read
        off ``succ``."""
        return {
            action: frozenset(
                (src, dst) for src, mask in enumerate(masks)
                for dst in range(mask.bit_length()) if mask >> dst & 1
            )
            for action, masks in self.succ.items()
        }

    def successor_masks(self, action: str) -> tuple[StateSet, ...]:
        """Per-state successor bitmasks for one action."""
        masks = self.succ.get(action)
        if masks is not None:
            return masks
        if action not in self.actions:
            raise ValueError(f"unknown action {action!r}")
        return (0,) * len(self.states)

    def state_mask(self, ids: Iterable[str]) -> StateSet:
        index = {name: i for i, name in enumerate(self.states)}
        mask = 0
        for name in ids:
            mask |= 1 << index[name]
        return mask

    def state_ids(self, mask: StateSet) -> list[str]:
        return [name for i, name in enumerate(self.states) if mask >> i & 1]


def make_lts(
    states: Iterable[str],
    props: Mapping[str, Iterable[str]],
    rel: Mapping[str, Iterable[tuple[str, str]]],
) -> Lts:
    """Build a model from state ids, per-state atom lists, and id pairs."""
    state_tuple = tuple(states)
    index = {name: i for i, name in enumerate(state_tuple)}
    if len(index) != len(state_tuple):
        raise ValueError("duplicate state id")
    val: dict[str, int] = {}
    for state, atoms in props.items():
        if state not in index:
            raise ValueError(f"valuation for undeclared state {state!r}")
        for atom in atoms:
            val[atom] = val.get(atom, 0) | (1 << index[state])
    succ: dict[str, tuple[StateSet, ...]] = {}
    for action, pairs in rel.items():
        masks = [0] * len(state_tuple)
        for src, dst in pairs:
            if src not in index or dst not in index:
                missing = src if src not in index else dst
                raise ValueError(f"relation {action!r} references undeclared state {missing!r}")
            masks[index[src]] |= 1 << index[dst]
        succ[action] = tuple(masks)
    return Lts(state_tuple, tuple(rel.keys()), succ, val)


def truth_masks(atoms: Sequence[T]) -> dict[T, int]:
    """Each atom's truth set on the rows of the truth table of ``atoms``.

    Row r makes ``atoms[j]`` true iff bit ``len(atoms) - 1 - j`` of r is set:
    the first atom is the most significant bit, so ascending rows list the
    valuations False first.  Each mask is one period, a false run then a true
    run, doubled by shifts until it covers every row.
    """
    size = 1 << len(atoms)
    val: dict[str, int] = {}
    for j, atom in enumerate(atoms):
        run = 1 << (len(atoms) - 1 - j)
        mask, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            mask |= mask << width
            width *= 2
        val[atom] = mask
    return val


# ---------------------------------------------------------------------------
# Plan relations and strong executability


def plan_image(m: Lts, pi: Plan, frm: StateSet) -> StateSet:
    """Image of a state set under the plan's composed relation."""
    current = frm
    for action in pi:
        masks = m.successor_masks(action)
        nxt = 0
        remaining = current
        while remaining:
            low = remaining & -remaining
            nxt |= masks[low.bit_length() - 1]
            remaining ^= low
        current = nxt
    return current


def strongly_executable(m: Lts, pi: Plan) -> StateSet:
    """States from which the plan can never abort mid-execution.

    Computed backwards: a state survives step i iff it has at least one
    successor for the next action and all of them survive step i+1.  The
    first action must already be applicable at the starting state (the
    recurrence starts at the first step, not the second).
    """
    result = m.all_states
    for action in reversed(pi):
        masks = m.successor_masks(action)
        step = 0
        for i, succ in enumerate(masks):
            if succ and succ & result == succ:
                step |= 1 << i
        result = step
    return result


def has_witness_plan(m: Lts, pre: StateSet, post: StateSet) -> Plan | None:
    """Shortest plan strongly executable on all of ``pre`` with image inside
    ``post``, or None.  Breadth-first over frontier subsets; actions are tried
    in declared order, so the result is deterministic."""
    if pre & ~post == 0:  # covers pre ⊆ post and pre = ∅: ε witnesses
        return ()
    action_masks = [(a, m.successor_masks(a)) for a in m.actions]
    domains = [
        (a, masks, sum(1 << i for i, s in enumerate(masks) if s))
        for a, masks in action_masks
    ]
    visited = {pre}
    queue: deque[tuple[StateSet, Plan]] = deque([(pre, ())])
    while queue:
        frontier, plan = queue.popleft()
        for action, masks, domain in domains:
            if frontier & ~domain:
                continue  # some state would abort here
            image = 0
            remaining = frontier
            while remaining:
                low = remaining & -remaining
                image |= masks[low.bit_length() - 1]
                remaining ^= low
            candidate = plan + (action,)
            if image & ~post == 0:
                return candidate
            if image not in visited:
                visited.add(image)
                queue.append((image, candidate))
    return None


# ---------------------------------------------------------------------------
# Truth sets


def eval_formula(m: Lts, f: Formula) -> StateSet:
    """Truth set of a formula on a model, sugar included: every node class
    is evaluated by its own definition, none through its core form."""

    def kh(pre: StateSet, post: StateSet) -> StateSet:
        return m.all_states if has_witness_plan(m, pre, post) is not None else 0

    return eval_core(f, m.val, m.all_states, kh)


class _Known(NamedTuple):  # a child whose value is known, in the shells of ``eval_core``'s fold
    value: object


def eval_core(f: Formula, val: Mapping[str, T], everything: T, kh: Callable[[T, T], T]) -> T:
    """Truth set of a formula from its atoms' truth sets (bitmasks, or ints
    of bit slices for many models at once; absent atoms are false) and the
    full set ``everything``; ``kh(pre, post)`` gives ``Kh``'s truth set.

    Each of the eleven node classes is evaluated by its definition over the
    core fragment, so no core form is built: ``A g`` is ``Kh(~g, false)``
    and ``E g`` is ``~Kh(g, false)``.  The rules for ``&`` and ``E`` skip
    the complements within ``everything`` that the core form takes of
    their operands, so they rely on every atom's truth set lying within
    ``everything``; every value the evaluation makes then does too.

    Nodes are matched by exact class, the most frequent first, so an
    object of any other class, a subclass of a node class included, raises
    ``TypeError``.  The walk recurses once per nesting level; past the
    recursion limit ``formula.fold`` evaluates the formula again in one
    frame, handing the walk each node as a shell over ``_Known`` children."""
    atom = val.get

    def walk(g: Formula) -> T:
        cls = type(g)
        if cls is Atom:
            return atom(g.name, 0)
        if cls is Not:
            return everything & ~walk(g.f)
        if cls is And:
            return walk(g.left) & walk(g.right)
        if cls is Or:
            return walk(g.left) | walk(g.right)
        if cls is Implies:
            return (everything & ~walk(g.left)) | walk(g.right)
        if cls is Kh:
            return kh(walk(g.pre), walk(g.post))
        if cls is Iff:
            return everything & ~(walk(g.left) ^ walk(g.right))
        if cls is Univ:
            return kh(everything & ~walk(g.f), 0)
        if cls is Exis:
            return everything & ~kh(walk(g.f), 0)
        if cls is Top:
            return everything
        if cls is Bottom:
            return 0
        if cls is _Known:
            return g.value
        raise TypeError(f"not a formula node: {g!r}")

    try:
        return walk(f)
    except RecursionError:  # an object of no Formula class goes to the walk for its TypeError
        return fold(
            f,
            lambda g, values: walk(type(g)(*map(_Known, values)) if values else g),
            lambda g: None if isinstance(g, Formula) else walk(g),
        )
    finally:
        del walk  # empties the closure's own cell: no cycle for the collector


# ---------------------------------------------------------------------------
# Model file format


def load_model(text: str) -> Lts:
    """Parse the JSON model document (states / props / rel)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed model document: expected a JSON object")
    for key in ("states", "props", "rel"):
        if key not in doc:
            raise ValueError(f"malformed model document: missing {key!r}")
    states, props, rel = doc["states"], doc["props"], doc["rel"]
    if not _strings(states):
        raise ValueError("malformed model document: 'states' must be a list of ids")
    if not isinstance(props, dict) or not isinstance(rel, dict):
        raise ValueError("malformed model document: 'props' and 'rel' must be objects")
    for state, atoms in props.items():
        if not _strings(atoms):
            raise ValueError(
                f"malformed model document: props of {state!r} must be a list of atoms"
            )
    for action, pairs in rel.items():
        if not isinstance(pairs, list) or not all(_strings(p) and len(p) == 2 for p in pairs):
            raise ValueError(
                f"malformed model document: rel {action!r} must be a list of id pairs"
            )
    return make_lts(states, props, {a: [tuple(p) for p in pairs] for a, pairs in rel.items()})


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def dump_model(m: Lts, *, extra: Mapping[str, object] | None = None) -> str:
    """Serialize a model to the JSON document format."""
    props = {
        state: sorted(atom for atom, mask in m.val.items() if mask >> i & 1)
        for i, state in enumerate(m.states)
    }
    rel = m.rel
    doc: dict[str, object] = {
        "states": list(m.states),
        "props": props,
        "rel": {
            action: sorted([m.states[src], m.states[dst]] for src, dst in rel.get(action, ()))
            for action in m.actions
        },
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
