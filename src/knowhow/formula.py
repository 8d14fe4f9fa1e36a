"""Formula AST, concrete syntax, and structural measures.

The logic extends propositional logic with a binary modality ``Kh(pre, post)``
("the agent knows how to reach ``post`` from ``pre``").  ``A f`` (everywhere)
abbreviates ``Kh(~f, false)`` and ``E f`` (somewhere) abbreviates ``~A ~f``.

Concrete syntax (ASCII, whitespace-insensitive): a primary is an atom,
``true``, ``false``, ``Kh(formula, formula)`` or ``(formula)``, and primaries
combine by the operators of the table ``_OPERATORS``, which gives each
operator token its precedence, associativity and node class.  ``parse`` and
``render`` both read the grammar from that table alone::

    ~  A  E   prefix, binding tightest
    &  |      left-associative
    ->  <->   right-associative, ``<->`` binding loosest

Atoms match ``[a-z][a-zA-Z0-9_]*``.  Names starting with the reserved prefix
``_k`` are generated by the flattener and rejected in user input.

Every node class derives from ``Formula``.  A node's hash, atoms and modal
depth are filled together by one post-order visit on first read, its core
form by another; nodes that ``core`` builds are marked core as they are
built.  The visits recurse, and ``fold`` finishes one past the recursion
limit.  ``fold`` walks a formula bottom-up in one call frame, combining a
node shared by reference once; parsing is iterative too, so none of these
is bounded by the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, is_
from typing import Callable, NamedTuple, TypeVar

RESERVED_PREFIX = "_k"
T = TypeVar("T")


class _fact:
    """A fact of a node whose facts are not filled yet: reading it fills
    them, and later reads find the value kept on the node before this."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, node: Formula | None, owner: type | None = None) -> object:
        if node is None:
            return self
        _fill(node, "_hash", _fill_facts)
        return getattr(node, self.name)


class Formula:
    """Common base of the formula node classes.

    Nodes are immutable.  The first read of a node's hash, ``atoms`` or
    ``depth`` fills all three, on the node and on every node below it that
    lacks them, in one post-order visit (``_fill``); the first read of
    ``core`` fills the core forms the same way.  A node in the core
    fragment is its own ``core``: it keeps ``_core = None``, not a
    reference to itself, and the nodes ``core`` builds are marked so when
    they are built.  ``normalform.flatten`` reads no ``core``: it keeps
    ``depth`` alone on the nodes it reuses and builds (a later fill computes
    the same value again) and marks none as core; it keeps its result on a
    modal input as ``_flattening``.  ``core`` is read by
    ``desugar`` and, in the oracle, by the per-query path alone.
    Equality is structural, compared in one frame, each pair of nodes once;
    equal nodes are not shared or interned.  The ``repr`` spells each node
    shared by reference once.
    """

    __match_args__: tuple[str, ...] = ()  # a node class's fields, in order
    children: tuple[Formula, ...] = ()  # the immediate subformulas, left to right

    atoms = _fact()  # the atom names occurring in the formula
    depth = _fact()  # nesting of the know-how modality (A/E count as one level)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _fill(self, "_hash", _fill_facts)
            return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        pairs, compared = [(self, other)], set()  # ``compared``: id pairs whose children are queued
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or type(a) is Atom and a.name != b.name:
                return False
            if (key := (id(a), id(b))) not in compared:  # else shared nodes, compared already
                compared.add(key)
                pairs += zip(a.children, b.children)
        return True

    @property
    def core(self) -> Formula:
        """The same formula over Atom, Bottom, Not, Or and Kh only."""
        if not hasattr(self, "_core"):
            _fill(self, "_core", _fill_core)
        return self._core or self  # None: the node is its own core

    def __getstate__(self) -> dict[str, object]:
        # Pickle the fields only: a string's hash differs between processes.
        return {name: getattr(self, name) for name in self.__match_args__}

    def __repr__(self) -> str:
        """The dataclass form, ``Cls(field=value, ...)``, in one frame and
        linear in the number of distinct nodes: a node with children that is
        shared by reference reads ``#i`` wherever it occurs, and each ``#i``
        is spelled out once after the formula, inner ones first.  A field
        that is no node reads as its own ``repr``."""
        references: dict[int, int] = {}  # id of a node -> its occurrences as a child

        def count(node: Formula, _: list[None]) -> None:
            for child in node.children:
                references[id(child)] = references.get(id(child), 0) + 1

        def other(node: object) -> str | None:
            return None if isinstance(node, Formula) else repr(node)

        fold(self, count, other)
        shared: list[str] = []

        def spell(node: Formula, parts: list[str]) -> str:
            names = node.__match_args__
            values = parts or [repr(getattr(node, name)) for name in names]
            text = f"{type(node).__name__}({', '.join(map('{}={}'.format, names, values))})"
            if parts and references.get(id(node), 0) > 1:
                shared.append(f"#{len(shared) + 1}={text}")
                return f"#{len(shared)}"
            return text

        text = fold(self, spell, other)
        return f"{text} with {', '.join(shared)}" if shared else text


def _node(cls: type) -> type:
    """A frozen dataclass node with the base's equality, kept hash and
    ``repr``, and ``children`` read straight off its fields."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    names = cls.__match_args__
    if names and "children" not in vars(cls):
        get = attrgetter(*names)
        cls.children = property(get if len(names) > 1 else lambda node: (get(node),))
    return cls


@_node
class Atom(Formula):
    name: str

    children = ()


@_node
class Bottom(Formula):
    pass


@_node
class Top(Formula):
    pass


@_node
class Not(Formula):
    f: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Kh(Formula):
    pre: Formula
    post: Formula


@_node
class Univ(Formula):
    f: Formula


@_node
class Exis(Formula):
    f: Formula


# ---------------------------------------------------------------------------
# Filling node facts

_keep = object.__setattr__  # past the frozen guard, and not through ``__dict__``
_MODAL = {Kh, Univ, Exis}


def _fill(root: Formula, name: str, fill_one: Callable[..., None]) -> None:
    """Call ``fill_one(node, children)`` once on ``root`` and on every node
    below it that lacks the attribute ``name``, each after its children.

    The visit recurses once per nesting level; past the recursion limit
    ``fold`` finishes the job in one frame, taking a node that has ``name``
    as done.  A node left half filled is filled again: ``fill_one`` keeps
    ``name`` last, and its values do not depend on how often it runs."""

    def visit(node: Formula) -> None:
        children = node.children
        for child in children:
            if not hasattr(child, name):  # else a shared node, filled on an earlier visit
                visit(child)
        fill_one(node, children)

    try:
        visit(root)
    except RecursionError:
        fold(root, lambda node, _: fill_one(node, node.children), lambda node: hasattr(node, name) or None)
    finally:
        del visit  # empties the closure's own cell: no cycle for the collector


def _fill_facts(node: Formula, children: tuple[Formula, ...]) -> None:
    cls, fields = type(node), children
    if cls is Atom:
        atoms, depth, fields = frozenset((node.name,)), 0, (node.name,)
    elif len(children) == 2:
        left, right = children
        atoms, depth = left.atoms | right.atoms, max(left.depth, right.depth)
    elif children:
        atoms, depth = children[0].atoms, children[0].depth
    else:
        atoms, depth = frozenset(), 0
    _keep(node, "atoms", atoms)
    _keep(node, "depth", depth + (cls in _MODAL))
    _keep(node, "_hash", hash((cls.__name__, *fields)))  # last: marks the node filled


def _core_node(cls: type, *fields: object) -> Formula:
    """A new node of the core fragment, marked as its own core."""
    node = cls(*fields)
    _keep(node, "_core", None)
    return node


_neg, _or = partial(_core_node, Not), partial(_core_node, Or)
# The core form of each sugar node from its children's core forms.
_DESUGAR: dict[type, Callable[..., Formula]] = {
    Top: lambda: _neg(_core_node(Bottom)),
    And: lambda left, right: _neg(_or(_neg(left), _neg(right))),
    Implies: lambda left, right: _or(_neg(left), right),
    Iff: lambda left, right: _neg(_or(_neg(_or(_neg(left), right)), _neg(_or(_neg(right), left)))),
    Univ: lambda f: _core_node(Kh, _neg(f), _core_node(Bottom)),
    Exis: lambda f: _neg(_core_node(Kh, _neg(_neg(f)), _core_node(Bottom))),
}


def _fill_core(node: Formula, children: tuple[Formula, ...]) -> None:
    cls, cores = type(node), [child.core for child in children]
    if cls in _DESUGAR:
        _keep(node, "_core", _DESUGAR[cls](*cores))
    else:  # None: the node is already in the core fragment
        _keep(node, "_core", None if all(map(is_, cores, children)) else _core_node(cls, *cores))


# ---------------------------------------------------------------------------
# Folding

_UNSEEN = object()  # ``fold``'s mark of a node not combined yet: a value may be None


def fold(
    f: Formula,
    combine: Callable[[Formula, list[T]], T],
    leaf: Callable[[Formula], T | None] = lambda node: None,
) -> T:
    """Fold ``f`` bottom-up, in one frame whatever its nesting.

    Each node is first offered to ``leaf``, in left-to-right pre-order: a
    value other than None is the node's value, and its children are not
    visited.  Otherwise the node's value is ``combine(node, values)``, where
    ``values`` are its children's values, left to right.  A node shared by
    reference is combined once: its later occurrences take that value.
    """
    values: list[T] = []
    combined: dict[int, T] = {}  # id of a combined node -> its value
    stack: list[tuple[Formula, tuple[Formula, ...] | None]] = [(f, None)]
    while stack:
        node, children = stack.pop()
        if children is None:
            value = leaf(node)
            if value is None:
                value = combined.get(id(node), _UNSEEN)
                if value is _UNSEEN:
                    children = node.children
                    stack.append((node, children))
                    stack += [(child, None) for child in reversed(children)]
                    continue
        else:
            first = len(values) - len(children)
            value = combined[id(node)] = combine(node, values[first:])
            del values[first:]
        values.append(value)
    return values[0]


class ParseError(ValueError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # ATOM, EOF, or the text of a keyword or punctuation token
    text: str
    line: int
    column: int


_KEYWORDS = {"true", "false", "Kh", "A", "E"}
# One lexeme per match: a newline, a run of other whitespace, punctuation, a
# word of ASCII letters, digits and '_', or any other character, which is an
# error.
_LEXEME = re.compile(r"(\n)|([^\S\n]+)|(<->|->|[~&|(),])|([A-Za-z0-9_]+)|(.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # columns count characters from the line's start
    for match in _LEXEME.finditer(text):
        newline, space, punct, word, other = match.groups()
        col = match.start() - line_start + 1
        if newline:
            line, line_start = line + 1, match.end()
        elif punct:
            tokens.append(_Token(punct, punct, line, col))
        elif word and not word[0].isdigit():  # a leading digit is an error
            if word in _KEYWORDS:
                kind = word
            elif word[0].islower() or word[0] == "_":
                kind = "ATOM"
            else:
                raise ParseError(f"unknown keyword {word!r}", line, col)
            tokens.append(_Token(kind, word, line, col))
        elif not space:
            raise ParseError(f"unexpected character {(word or other)[0]!r}", line, col)
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Operator table, parser and printer


class _Op(NamedTuple):
    precedence: int  # higher binds tighter
    assoc: str  # "left", "right", or "prefix" for a unary operator
    cls: type


# The concrete syntax's operators by token; the parser and the printer read
# precedence, associativity and node class from here alone.
_OPERATORS: dict[str, _Op] = {
    "<->": _Op(1, "right", Iff),
    "->": _Op(2, "right", Implies),
    "|": _Op(3, "left", Or),
    "&": _Op(4, "left", And),
    "~": _Op(5, "prefix", Not),
    "A": _Op(5, "prefix", Univ),
    "E": _Op(5, "prefix", Exis),
}
_TOKEN_OF = {op.cls: token for token, op in _OPERATORS.items()}
_ATOMIC = 6  # an atom, a constant, Kh(…) or a parenthesized formula
_CONSTANTS = {"true": Top, "false": Bottom}
_CONSTANT_TEXT = {cls: text for text, cls in _CONSTANTS.items()}

_PRIMARY_EXPECTED = ("an atom", "'true'", "'false'", "'Kh'", "'A'", "'E'", "'~'", "'('")
# The token that ends each open group: the input itself, a parenthesis, and
# the first and second arguments of Kh (a "," opens the second).
_CLOSER = {None: "EOF", "(": ")", "Kh": ",", ",": ")"}


def _unexpected(tok: _Token, expected: tuple[str, ...]) -> ParseError:
    message = f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input"
    return ParseError(message, tok.line, tok.column, expected)


def _primary(tok: _Token, allow_reserved: bool) -> Formula:
    if tok.kind in _CONSTANTS:
        return _CONSTANTS[tok.kind]()
    if tok.kind != "ATOM":
        raise _unexpected(tok, _PRIMARY_EXPECTED)
    if tok.text.startswith(RESERVED_PREFIX) and not allow_reserved:
        raise ParseError(
            f"atom {tok.text!r} uses the reserved prefix {RESERVED_PREFIX!r}", tok.line, tok.column
        )
    if tok.text[0] == "_" and not tok.text.startswith(RESERVED_PREFIX):
        raise ParseError(f"atom {tok.text!r} may not start with '_'", tok.line, tok.column)
    return Atom(tok.text)


def _reduce(operands: list[Formula], pending: list[_Token], floor: int) -> None:
    """Apply the pending operators, innermost first, down to the first one
    binding looser than ``floor`` or the innermost open group."""
    while pending and (op := _OPERATORS.get(pending[-1].kind)) and op.precedence >= floor:
        pending.pop()
        if op.assoc == "prefix":
            operands[-1] = op.cls(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = op.cls(operands[-1], right)


def parse(text: str, *, allow_reserved: bool = False) -> Formula:
    """Parse concrete syntax into an AST.

    Precedence climbing over explicit operand and operator stacks, so the
    nesting depth is bounded by memory only.  ``allow_reserved`` admits
    flattener-generated ``_k…`` atoms; user input must leave it off so fresh
    definition atoms can never collide.
    """
    operands: list[Formula] = []
    pending: list[_Token] = []  # operators and open groups, innermost last
    tokens = iter(_tokenize(text))  # ends with EOF, which returns or raises
    want_operand = True
    while True:
        tok = next(tokens)
        op = _OPERATORS.get(tok.kind)
        if want_operand:
            if tok.kind == "Kh" and (paren := next(tokens)).kind != "(":
                raise _unexpected(paren, ("'('",))
            if tok.kind in ("(", "Kh") or (op and op.assoc == "prefix"):
                pending.append(tok)
            else:
                operands.append(_primary(tok, allow_reserved))
                want_operand = False
        elif op and op.assoc != "prefix":
            # An equal operator stays pending before a right-associative one.
            _reduce(operands, pending, op.precedence + (op.assoc == "right"))
            pending.append(tok)
            want_operand = True
        else:  # no operator continues the operand: the innermost group ends here
            _reduce(operands, pending, 0)
            group = pending.pop().kind if pending else None
            if tok.kind != _CLOSER[group]:
                if group is None:
                    raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
                raise _unexpected(tok, (f"'{_CLOSER[group]}'",))
            if group is None:
                return operands[0]
            if group == "Kh":
                pending.append(tok)
                want_operand = True
            elif group == ",":
                post = operands.pop()
                operands[-1] = Kh(operands[-1], post)


def _operand(part: tuple[str, int], minimum: int) -> str:
    text, precedence = part
    return text if precedence >= minimum else f"({text})"


def _render_node(node: Formula, parts: list[tuple[str, int]]) -> tuple[str, int]:
    """A node's text and precedence from its children's."""
    token = _TOKEN_OF.get(type(node))
    if token is None:
        if isinstance(node, Kh):
            return f"Kh({parts[0][0]}, {parts[1][0]})", _ATOMIC
        return node.name if isinstance(node, Atom) else _CONSTANT_TEXT[type(node)], _ATOMIC
    precedence, assoc, _ = _OPERATORS[token]
    if assoc == "prefix":
        space = " " if token.isalpha() else ""  # "A p": "Ap" would lex as one word
        return token + space + _operand(parts[0], precedence), precedence
    tighter = precedence + 1
    left, right = (precedence, tighter) if assoc == "left" else (tighter, precedence)
    return f"{_operand(parts[0], left)} {token} {_operand(parts[1], right)}", precedence


def render(f: Formula) -> str:
    """Minimal-parenthesization text; ``parse(render(f)) == f``."""
    return fold(f, _render_node)[0]


# ---------------------------------------------------------------------------
# Structural operations


def desugar(f: Formula) -> Formula:
    """Reduce to the core constructors Atom, Bottom, Not, Or, Kh."""
    return f.core


def modal_depth(f: Formula) -> int:
    """Maximum nesting of the know-how modality (A/E count as one level)."""
    return f.depth


def subformulas(f: Formula) -> set[Formula]:
    """Reflexive-transitive subterm closure under structural equality."""
    found: set[Formula] = set()
    fold(f, lambda node, _: found.add(node))
    return found


def kh_occurrences(f: Formula) -> int:
    """Number of modality occurrences after desugaring (A/E each count one)."""
    return fold(desugar(f), lambda node, counts: sum(counts) + isinstance(node, Kh))
