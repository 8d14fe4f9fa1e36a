"""Formula AST, concrete syntax, and structural measures.

The logic extends propositional logic with a binary modality ``Kh(pre, post)``
("the agent knows how to reach ``post`` from ``pre``").  ``A f`` (everywhere)
abbreviates ``Kh(~f, false)`` and ``E f`` (somewhere) abbreviates ``~A ~f``.

Concrete grammar (ASCII, whitespace-insensitive)::

    formula := iff
    iff     := implies ("<->" iff)?          # right-associative
    implies := or ("->" implies)?            # right-associative
    or      := and ("|" and)*                # left-associative
    and     := unary ("&" unary)*            # left-associative
    unary   := ("~" | "A" | "E") unary | primary
    primary := atom | "true" | "false" | "Kh" "(" formula "," formula ")"
             | "(" formula ")"

Atoms match ``[a-z][a-zA-Z0-9_]*``.  Names starting with the reserved prefix
``_k`` are generated by the flattener and rejected in user input.

Every node class derives from ``Formula``.  A node's hash, atoms and modal
depth are filled together by one iterative pass on first read, its core form
by another; nodes that ``core`` builds are marked core as they are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter, is_
from typing import Callable, Iterator

RESERVED_PREFIX = "_k"


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
    lacks them, in one iterative post-order pass; the first read of
    ``core`` fills the core forms the same way.  A node in the core
    fragment is its own ``core``: it keeps ``_core = None``, not a
    reference to itself, and the nodes ``core`` builds are marked so when
    they are built.  Equality stays structural; equal nodes are not shared
    or interned.
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

    @property
    def core(self) -> Formula:
        """The same formula over Atom, Bottom, Not, Or and Kh only."""
        if not hasattr(self, "_core"):
            _fill(self, "_core", _fill_core)
        return self._core or self  # None: the node is its own core

    def __getstate__(self) -> dict[str, object]:
        # Pickle the fields only: a string's hash differs between processes.
        return {name: getattr(self, name) for name in self.__match_args__}


def _node(cls: type) -> type:
    """A frozen dataclass node: structural equality, the base's kept hash,
    and ``children`` read straight off its fields."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
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
    below it that lacks the attribute ``name``, each after its children, in
    one frame whatever the nesting."""
    stack: list[tuple[Formula, tuple[Formula, ...] | None]] = [(root, None)]
    while stack:
        node, children = stack.pop()
        if children is not None:
            fill_one(node, children)
        elif not hasattr(node, name):  # else a shared node, filled on an earlier visit
            children = node.children
            stack.append((node, children))
            stack += [(child, None) for child in children if not hasattr(child, name)]


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


def _core_node(cls: type, *fields: Formula) -> Formula:
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
    kind: str  # ATOM, IDENT-keywords folded into their own kinds, punctuation
    text: str
    line: int
    column: int


_PUNCT = ["<->", "->", "~", "&", "|", "(", ")", ","]
_KEYWORDS = {"true": "TRUE", "false": "FALSE", "Kh": "KH", "A": "UNIV", "E": "EXIS"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        matched = False
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token(punct, punct, line, col))
                i += len(punct)
                col += len(punct)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = _KEYWORDS.get(word)
            if kind is None:
                if not (word[0].islower() or word[0] == "_"):
                    raise ParseError(f"unknown keyword {word!r}", line, col)
                kind = "ATOM"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_PRIMARY_EXPECTED = ("an atom", "'true'", "'false'", "'Kh'", "'A'", "'E'", "'~'", "'('")


class _Parser:
    def __init__(self, tokens: list[_Token], allow_reserved: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_reserved = allow_reserved

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line,
                tok.column,
                expected=(f"'{kind}'",),
            )
        return self.advance()

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek().kind == "<->":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "->":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().kind == "|":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek().kind == "&":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "UNIV":
            self.advance()
            return Univ(self.parse_unary())
        if tok.kind == "EXIS":
            self.advance()
            return Exis(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ATOM":
            self.advance()
            if tok.text.startswith(RESERVED_PREFIX) and not self.allow_reserved:
                raise ParseError(
                    f"atom {tok.text!r} uses the reserved prefix {RESERVED_PREFIX!r}",
                    tok.line,
                    tok.column,
                )
            if tok.text[0] == "_" and not tok.text.startswith(RESERVED_PREFIX):
                raise ParseError(
                    f"atom {tok.text!r} may not start with '_'", tok.line, tok.column
                )
            return Atom(tok.text)
        if tok.kind == "TRUE":
            self.advance()
            return Top()
        if tok.kind == "FALSE":
            self.advance()
            return Bottom()
        if tok.kind == "KH":
            self.advance()
            self.expect("(")
            pre = self.parse_formula()
            self.expect(",")
            post = self.parse_formula()
            self.expect(")")
            return Kh(pre, post)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
            tok.line,
            tok.column,
            expected=_PRIMARY_EXPECTED,
        )


def parse(text: str, *, allow_reserved: bool = False) -> Formula:
    """Parse concrete syntax into an AST.

    ``allow_reserved`` admits flattener-generated ``_k…`` atoms; user input
    must leave it off so fresh definition atoms can never collide.  Input
    nested deeper than the interpreter's recursion limit allows raises
    ``ParseError`` at the token where parsing stopped.
    """
    parser = _Parser(_tokenize(text), allow_reserved)
    try:
        result = parser.parse_formula()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("formula nests too deeply", tok.line, tok.column) from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
    return result


# ---------------------------------------------------------------------------
# Rendering

_PREC_IFF, _PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOMIC = 1, 2, 3, 4, 5, 6


def _precedence(f: Formula) -> int:
    if isinstance(f, Iff):
        return _PREC_IFF
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Not, Univ, Exis)):
        return _PREC_UNARY
    return _PREC_ATOMIC


def _render(f: Formula, minimum: int) -> str:
    prec = _precedence(f)
    if isinstance(f, Atom):
        text = f.name
    elif isinstance(f, Top):
        text = "true"
    elif isinstance(f, Bottom):
        text = "false"
    elif isinstance(f, Kh):
        text = f"Kh({_render(f.pre, 0)}, {_render(f.post, 0)})"
    elif isinstance(f, Not):
        text = "~" + _render(f.f, _PREC_UNARY)
    elif isinstance(f, Univ):
        text = "A " + _render(f.f, _PREC_UNARY)
    elif isinstance(f, Exis):
        text = "E " + _render(f.f, _PREC_UNARY)
    elif isinstance(f, Iff):
        text = f"{_render(f.left, _PREC_IMPLIES)} <-> {_render(f.right, _PREC_IFF)}"
    elif isinstance(f, Implies):
        text = f"{_render(f.left, _PREC_OR)} -> {_render(f.right, _PREC_IMPLIES)}"
    elif isinstance(f, Or):
        text = f"{_render(f.left, _PREC_OR)} | {_render(f.right, _PREC_AND)}"
    elif isinstance(f, And):
        text = f"{_render(f.left, _PREC_AND)} & {_render(f.right, _PREC_UNARY)}"
    else:  # pragma: no cover - exhaustive over constructors
        raise TypeError(f"not a formula: {f!r}")
    if prec < minimum:
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Minimal-parenthesization text; ``parse(render(f)) == f``."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Structural operations


def desugar(f: Formula) -> Formula:
    """Reduce to the core constructors Atom, Bottom, Not, Or, Kh."""
    return f.core


def modal_depth(f: Formula) -> int:
    """Maximum nesting of the know-how modality (A/E count as one level)."""
    return f.depth


def _walk(f: Formula) -> Iterator[Formula]:
    """Depth-first, left-to-right, node before its children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def subformulas(f: Formula) -> set[Formula]:
    """Reflexive-transitive subterm closure under structural equality."""
    return set(_walk(f))


def leaves(f: Formula) -> set[Formula]:
    """The Kh subformulas with propositional arguments (modal depth 1).

    Expects a desugared formula; on the core fragment every modality is a
    plain ``Kh`` node.
    """
    return {g for g in _walk(f) if isinstance(g, Kh) and g.depth == 1}


def atoms_of(f: Formula) -> frozenset[str]:
    return f.atoms


def kh_occurrences(f: Formula) -> int:
    """Number of modality occurrences after desugaring (A/E each count one)."""
    return sum(1 for g in _walk(desugar(f)) if isinstance(g, Kh))
