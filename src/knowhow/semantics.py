"""Exact finite-model semantics over labelled transition systems.

A model is a finite set of states, one binary relation per action symbol, and
a propositional valuation.  Truth sets are computed exactly; the know-how
modality ``Kh(pre, post)`` holds globally iff some plan (finite action word)
is strongly executable from every ``pre``-state and lands every execution
inside ``post``.  Witness plans are synthesized by a breadth-first search over
state subsets, which terminates because the frontier ranges over at most
2^|S| subsets.

State sets are bitmasks over state indices (bit i = ``states[i]``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .formula import Atom, Bottom, Formula, Kh, Not, Or, desugar

Plan = tuple[str, ...]
StateSet = int
T = TypeVar("T")


@dataclass(frozen=True)
class Lts:
    """Labelled transition system.

    ``states`` fixes the index order; ``rel`` maps each action to index
    pairs; ``val`` maps each atom to the bitmask of states where it holds.
    Atoms absent from ``val`` are false everywhere.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    rel: Mapping[str, frozenset[tuple[int, int]]]
    val: Mapping[str, StateSet]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a model needs at least one state")
        n = len(self.states)
        for action, pairs in self.rel.items():
            if action not in self.actions:
                raise ValueError(f"relation for undeclared action {action!r}")
            for src, dst in pairs:
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(f"relation {action!r} references state index out of range")

    @property
    def all_states(self) -> StateSet:
        return (1 << len(self.states)) - 1

    def successor_masks(self, action: str) -> list[StateSet]:
        """Per-state successor bitmasks for one action."""
        if action not in self.actions:
            raise ValueError(f"unknown action {action!r}")
        masks = [0] * len(self.states)
        for src, dst in self.rel.get(action, frozenset()):
            masks[src] |= 1 << dst
        return masks

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
    relations: dict[str, frozenset[tuple[int, int]]] = {}
    for action, pairs in rel.items():
        indexed = set()
        for src, dst in pairs:
            if src not in index or dst not in index:
                missing = src if src not in index else dst
                raise ValueError(f"relation {action!r} references undeclared state {missing!r}")
            indexed.add((index[src], index[dst]))
        relations[action] = frozenset(indexed)
    return Lts(state_tuple, tuple(rel.keys()), relations, val)


def truth_table(atoms: Sequence[str]) -> Lts:
    """One state per valuation of ``atoms``, and no actions.

    Row r makes ``atoms[j]`` true iff bit ``len(atoms) - 1 - j`` of r is set:
    the first atom is the most significant bit, so ascending rows list the
    valuations False first.  A formula's truth set on this model is its set
    of satisfying valuations.
    """
    size = 1 << len(atoms)
    val: dict[str, int] = {}
    for j, atom in enumerate(atoms):
        run = 1 << (len(atoms) - 1 - j)  # a false run then a true run, repeated
        val[atom] = ((1 << size) - 1) // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    return Lts(tuple(map(str, range(size))), (), {}, val)


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
    """Truth set of a formula (desugared internally; sugar welcome)."""

    def kh(pre: StateSet, post: StateSet) -> StateSet:
        return m.all_states if has_witness_plan(m, pre, post) is not None else 0

    return eval_core(desugar(f), m.val, m.all_states, kh)


def eval_core(f: Formula, val: Mapping[str, T], everything: T, kh: Callable[[T, T], T]) -> T:
    """Truth set of a core formula from its atoms' truth sets (bitmasks, or
    arrays of bitmasks for many models at once; absent atoms are false) and
    the full set ``everything``; ``kh(pre, post)`` gives ``Kh``'s truth set."""

    def walk(g: Formula) -> T:
        if isinstance(g, Atom):
            return val.get(g.name, 0)
        if isinstance(g, Bottom):
            return 0
        if isinstance(g, Not):
            return everything & ~walk(g.f)
        if isinstance(g, Or):
            return walk(g.left) | walk(g.right)
        if isinstance(g, Kh):
            return kh(walk(g.pre), walk(g.post))
        raise TypeError(f"not a core formula: {g!r}")

    return walk(f)


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
    doc: dict[str, object] = {
        "states": list(m.states),
        "props": props,
        "rel": {
            action: sorted(
                [m.states[src], m.states[dst]] for src, dst in m.rel.get(action, frozenset())
            )
            for action in m.actions
        },
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
