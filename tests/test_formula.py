"""Parser, printer, desugaring, and structural-measure tests."""

from __future__ import annotations

import gc
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowhow import formula
from knowhow.certificate import verify_certificate
from knowhow.formula import (
    And,
    Atom,
    Bottom,
    Exis,
    Iff,
    Implies,
    Kh,
    Not,
    Or,
    ParseError,
    Top,
    Univ,
    desugar,
    fold,
    kh_occurrences,
    modal_depth,
    parse,
    render,
    subformulas,
)
from knowhow.khsat import Result, decide
from knowhow.normalform import flatten
from knowhow.oracle import random_formula

from tests.test_normalform import _iff_chain
from tests.test_propsat import random_prop_formula

P, Q, R, T = Atom("p"), Atom("q"), Atom("r"), Atom("t")


def test_parse_kh_with_conjunction():
    assert parse("Kh(p & q, r)") == Kh(And(P, Q), R)


def test_parse_universal_sugar():
    assert parse("A p") == Univ(P)
    assert parse("E ~p") == Exis(Not(P))


def test_parse_nested_modalities():
    expected = Or(Kh(P, Kh(Not(Q), Implies(P, Q))), Kh(R, T))
    assert parse("Kh(p, Kh(~q, p -> q)) | Kh(r, t)") == expected


def test_parse_constants():
    assert parse("true") == Top()
    assert parse("false") == Bottom()


def test_precedence_lowest_to_highest():
    assert parse("p <-> q -> r | t & ~p") == Iff(P, Implies(Q, Or(R, And(T, Not(P)))))


def test_implies_right_associative():
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("p <-> q <-> r") == Iff(P, Iff(Q, R))


def test_or_and_left_associative():
    assert parse("p | q | r") == Or(Or(P, Q), R)
    assert parse("p & q & r") == And(And(P, Q), R)


def test_unary_chain():
    assert parse("~A p") == Not(Univ(P))
    assert parse("~~p") == Not(Not(P))
    assert parse("A E p") == Univ(Exis(P))


def test_parse_error_has_position_and_expected_set():
    with pytest.raises(ParseError) as exc:
        parse("Kh(p q")
    assert exc.value.line == 1
    assert exc.value.column == 6
    assert exc.value.expected


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("p &\t)", "unexpected ')'", 1, 5),  # a tab is one column
        ("p\r&\r#", "unexpected character '#'", 1, 5),  # so is a carriage return
        ("p &\n  q )", "unexpected trailing ')'", 2, 5),  # columns restart on a new line
        ("p &\n\tq &", "unexpected end of input", 2, 5),
        ("(p &\n\n Kh(", "unexpected end of input", 3, 5),  # and so does the end
        # Atoms are ASCII: any other letter or digit is an error at its own column.
        ("é", "unexpected character 'é'", 1, 1),
        ("ß", "unexpected character 'ß'", 1, 1),
        ("p²", "unexpected character '²'", 1, 2),
        ("pé²", "unexpected character 'é'", 1, 2),
    ],
)
def test_parse_error_columns_count_characters_from_the_line_start(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).startswith(f"{message} at line {line}, column {column}")
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse("p q")


def test_parse_error_unexpected_end():
    with pytest.raises(ParseError):
        parse("p &")


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("(" * 20_000 + "p" + ")" * 20_000, "p"),
        ("~" * 20_000 + "p", "~" * 20_000 + "p"),
        ("Kh(p, " * 400 + "p" + ")" * 400, "Kh(p, " * 400 + "p" + ")" * 400),
    ],
    ids=["parens-20000", "not-20000", "kh-400"],
)
def test_deep_nesting_parses_and_round_trips(text, rendered):
    # Parsing, printing and equality keep their own stacks: no recursion
    # limit applies.
    f = parse(text)
    assert render(f) == rendered
    assert parse(render(f)) == f


def test_deep_but_parseable_nesting_still_decides():
    # Evaluation falls back to an iterative fold past the recursion limit,
    # so deep input decides in both modes with a certificate that verifies.
    for text, depth in [
        ("~" * 900 + "p", 0),
        ("~" * 2000 + "p", 0),
        ("~" * 2000 + "Kh(p, q)", 1),
        ("~" * 20_000 + "p", 0),
    ]:
        f = parse(text)
        assert f.depth == depth
        for mode in ("plain", "augmented"):
            verdict = decide(f, mode)
            assert verdict.result is Result.SAT, (len(text), mode)
            assert verify_certificate(verdict.certificate, f), (len(text), mode)


def test_reserved_prefix_rejected():
    with pytest.raises(ParseError) as exc:
        parse("_k1 | p")
    assert "_k1" in str(exc.value)


def test_reserved_prefix_allowed_when_requested():
    assert parse("_k1 | _k2", allow_reserved=True) == Or(Atom("_k1"), Atom("_k2"))


def test_underscore_atoms_rejected():
    with pytest.raises(ParseError):
        parse("_x")


def test_render_goldens():
    assert render(Kh(And(P, Q), R)) == "Kh(p & q, r)"
    assert render(Not(Or(P, Q))) == "~(p | q)"
    assert render(Univ(P)) == "A p"


def test_render_reassociation_parens():
    assert render(Or(P, Or(Q, R))) == "p | (q | r)"
    assert render(Or(Or(P, Q), R)) == "p | q | r"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(Implies(P, Implies(Q, R))) == "p -> q -> r"


def test_desugar_universal():
    assert desugar(Univ(P)) == Kh(Not(P), Bottom())


def test_desugar_existential_keeps_double_negation():
    assert desugar(Exis(P)) == Not(Kh(Not(Not(P)), Bottom()))


def test_desugar_identity_on_core():
    assert desugar(P) == P
    assert desugar(Kh(P, Bottom())) == Kh(P, Bottom())


def test_desugar_boolean_connectives():
    assert desugar(And(P, Q)) == Not(Or(Not(P), Not(Q)))
    assert desugar(Implies(P, Q)) == Or(Not(P), Q)
    assert desugar(Top()) == Not(Bottom())


def test_modal_depth_goldens():
    assert modal_depth(parse("Kh(p, Kh(~q, p -> q)) | Kh(r, t)")) == 2
    assert modal_depth(P) == 0
    assert modal_depth(Univ(Univ(P))) == 2


def test_subformulas_goldens():
    assert subformulas(P) == {P}
    assert subformulas(Not(P)) == {Not(P), P}
    assert subformulas(Kh(P, Q)) == {Kh(P, Q), P, Q}


def test_kh_occurrences_counts_sugar():
    assert kh_occurrences(parse("A p & E q")) == 2
    assert kh_occurrences(parse("Kh(p, Kh(q, r))")) == 2
    assert kh_occurrences(parse("p | q")) == 0


# ---------------------------------------------------------------------------
# Cached structural facts


def _ref_children(f):
    if isinstance(f, (Atom, Bottom, Top)):
        return ()
    if isinstance(f, (Not, Univ, Exis)):
        return (f.f,)
    if isinstance(f, Kh):
        return (f.pre, f.post)
    return (f.left, f.right)


def _ref_atoms(f):
    if isinstance(f, Atom):
        return {f.name}
    return set().union(*map(_ref_atoms, _ref_children(f)))


def _ref_depth(f):
    inner = max(map(_ref_depth, _ref_children(f)), default=0)
    return inner + 1 if isinstance(f, (Kh, Univ, Exis)) else inner


def _ref_core(f):
    """The desugaring rules as one recursion, independent of `Formula.core`."""
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, Bottom):
        return Bottom()
    if isinstance(f, Top):
        return Not(Bottom())
    if isinstance(f, Not):
        return Not(_ref_core(f.f))
    if isinstance(f, Or):
        return Or(_ref_core(f.left), _ref_core(f.right))
    if isinstance(f, And):
        return Not(Or(Not(_ref_core(f.left)), Not(_ref_core(f.right))))
    if isinstance(f, Implies):
        return Or(Not(_ref_core(f.left)), _ref_core(f.right))
    if isinstance(f, Iff):
        return _ref_core(And(Implies(f.left, f.right), Implies(f.right, f.left)))
    if isinstance(f, Kh):
        return Kh(_ref_core(f.pre), _ref_core(f.post))
    if isinstance(f, Univ):
        return Kh(Not(_ref_core(f.f)), Bottom())
    return Not(Kh(Not(Not(_ref_core(f.f))), Bottom()))


def _rebuild(f):
    """A structurally equal copy made of fresh nodes."""
    if isinstance(f, Atom):
        return Atom(f.name)
    return type(f)(*map(_rebuild, _ref_children(f)))


def _sugar_rich_formulas():
    rng = random.Random(8080)
    for seed in range(150):
        yield random_formula(3, 4, ("p", "q", "r"), seed)
        yield random_prop_formula(rng, ["p", "q", "r", "s2"], rng.randint(0, 5))


def test_cached_facts_match_reference_recursions_seeded():
    for f in _sugar_rich_formulas():
        for g in subformulas(f):
            assert g.atoms == _ref_atoms(g), g
            assert g.depth == modal_depth(g) == _ref_depth(g), g
            assert g.core == desugar(g) == _ref_core(g), g
            assert g.core.core is g.core  # a core node is its own core
            assert vars(g)["_hash"] == hash(g)  # kept after the dict lookups above


def test_nodes_with_cached_facts_equal_fresh_nodes_seeded():
    for f in _sugar_rich_formulas():
        for g in subformulas(f):
            facts = (g.atoms, g.depth, g.core, hash(g))
            fresh = _rebuild(g)  # nothing read yet
            assert "_hash" not in vars(fresh)
            assert fresh is not g and fresh == g and g == fresh
            assert {fresh: 1}[g] == 1 and {g: 1}[fresh] == 1
            assert (fresh.atoms, fresh.depth, fresh.core, hash(fresh)) == facts


def test_facts_of_deeply_nested_formulas():
    # Facts are filled in one frame, so a chain as deep as the parser
    # accepts is no deeper for them.
    f, g = Atom("p"), Atom("p")
    for _ in range(600):
        f, g = Not(f), Not(g)
    assert (f.depth, f.atoms, f.core) == (0, {"p"}, f)
    assert hash(f) == hash(g)
    assert decide(parse("Kh(" + "~" * 600 + "p, q)")).result is Result.SAT


def _nodes(f):
    """Every node of ``f``, parents first, found without hashing or reading
    any fact."""
    stack, found = [f], []
    while stack:
        found.append(stack.pop())
        stack.extend(_ref_children(found[-1]))
    return found


_READS = {
    "hash": hash,
    "atoms": lambda g: g.atoms,
    "depth": lambda g: g.depth,
    "core": lambda g: g.core,
}


@pytest.mark.parametrize("first", list(_READS))
def test_facts_do_not_depend_on_read_order_seeded(first):
    for f in _sugar_rich_formulas():
        fresh = _rebuild(f)
        _READS[first](fresh)
        for g in _nodes(fresh):
            _READS[first](g)
            assert g.atoms == _ref_atoms(g), g
            assert g.depth == _ref_depth(g), g
            assert g.core == _ref_core(g), g
            assert g.core.core is g.core
            assert hash(g) == hash((type(g).__name__, *(getattr(g, n) for n in g.__match_args__)))


def test_facts_of_a_20000_deep_chain_need_no_recursion():
    f = Atom("p")
    for i in range(20_000):
        f = Not(f) if i % 1000 else Univ(f)
    assert (f.depth, f.atoms) == (20, {"p"})
    assert hash(f) == hash(("Not", f.f))
    assert f.core.depth == 20


def test_shared_subformulas_are_filled_once(monkeypatch):
    # Each Iff's core form uses both sides twice, so filling a shared node
    # on every visit would grow with the number of paths, not of nodes: 4^8
    # through the core form here, which fails the count in about a second,
    # where a chain of 12 still ran after 100 s.
    f = Atom("p")
    for _ in range(8):
        f = Iff(f, f)
    filled = []
    for name in ("_fill_facts", "_fill_core"):
        fill_one = getattr(formula, name)
        monkeypatch.setattr(
            formula, name, lambda node, children, fill_one=fill_one: (
                filled.append((fill_one, node)), fill_one(node, children)
            )
        )
    assert f.core.atoms == {"p"}
    assert len(filled) == len({(fill_one, id(node)) for fill_one, node in filled})


def _distinct(f):
    """The ids of ``f``'s nodes, a node shared by reference once."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += node.children
    return seen


@pytest.mark.parametrize("value", [0, None], ids=["value", "None"])
def test_fold_combines_each_shared_node_once(value):
    # 18 levels of <-> have 2^18 paths through the core form's shared nodes;
    # a None from combine is a value too, kept like any other.
    core = _iff_chain(18).core
    combined = []
    assert fold(core, lambda node, _: (combined.append(node), value)[1]) is value
    assert len(combined) == len({id(g) for g in combined}) == len(_distinct(core))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_subformulas_and_kh_occurrences_equal_a_tree_walk_on_iff_chains(n):
    f = _iff_chain(n)
    assert subformulas(f) == set(_nodes(f))
    assert subformulas(f.core) == set(_nodes(f.core))
    tree_count = sum(isinstance(g, Kh) for g in _nodes(_ref_core(f)))
    assert kh_occurrences(f) == tree_count == 2 ** (n + 1) - 2


def test_subformulas_and_kh_occurrences_finish_on_a_24_level_iff_chain():
    # 2^24 paths, but each level adds seven distinct nodes to the four of
    # Kh(p, q), its negation, p and q.
    f = _iff_chain(24)
    assert len(subformulas(f.core)) == 7 * 24 + 4
    assert kh_occurrences(f) == 2**25 - 2


def test_equality_compares_each_pair_of_shared_nodes_once(monkeypatch):
    # Two copies of a 16-level <-> chain, parsed apart: their core forms use
    # both sides of every <-> twice, so comparing path by path would read
    # children on each of 2^16 paths.
    chain = "p <-> " * 16 + "q"
    f = parse(f"Kh(p, {chain}) | Kh(p, {chain})")
    left, right = f.core.children
    assert left is not right
    reads = []
    for cls in (Not, Or, Kh):
        get = cls.children.fget
        monkeypatch.setattr(cls, "children", property(lambda g, get=get: (reads.append(g), get(g))[1]))
    assert left == right
    assert 0 < len(reads) <= 2 * len(_distinct(left))
    monkeypatch.undo()
    assert [k for k, _ in flatten(f).defs] == [Atom("_k1")]


def test_reading_facts_leaves_no_reference_cycles():
    # A core node keeps no reference to itself, so dropping formulas whose
    # facts were all read leaves nothing for the cycle collector.
    texts = [render(random_formula(3, 4, ("p", "q", "r"), seed)) for seed in range(50)]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            for g in subformulas(parse(text)):
                g.atoms, g.depth, g.core, hash(g)
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


def _recording_fallbacks(monkeypatch):
    """The facts that ``_fill``'s fold fallback filled on its root, one per
    fold, in order; the fold still runs."""
    names, fold = [], formula.fold

    def recording(root, *rest):
        lacking = [name for name in ("_hash", "_core") if not hasattr(root, name)]
        value = fold(root, *rest)
        names.extend(name for name in lacking if hasattr(root, name))
        return value

    monkeypatch.setattr(formula, "fold", recording)
    return names


def _failing_recursion(monkeypatch):
    """Make every fill that ``_fill``'s recursive visit asks for raise
    ``RecursionError``, so that its fold fallback fills every node."""
    for name in ("_fill_facts", "_fill_core"):
        fill_one = getattr(formula, name)

        def guarded(node, children, fill_one=fill_one):
            if sys._getframe(1).f_code.co_name == "visit":
                raise RecursionError
            fill_one(node, children)

        monkeypatch.setattr(formula, name, guarded)


def _frames_to_the_limit():
    """How many more calls the caller could nest before ``RecursionError``."""

    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n

    return probe(1)


@pytest.mark.parametrize(
    "depth, leaves, atoms",
    [(2, 2, ("p", "q")), (3, 3, ("p", "q", "r")), (4, 10, ("p", "q", "r", "s", "t", "u"))],
    ids=["S", "M", "XL"],
)
def test_recursive_fill_matches_the_iterative_fill_seeded(depth, leaves, atoms, monkeypatch):
    fallbacks = _recording_fallbacks(monkeypatch)
    inputs = [random_formula(depth, leaves, atoms, seed) for seed in range(60)]
    recursive, folded = [_rebuild(f) for f in inputs], [_rebuild(f) for f in inputs]
    for f in recursive:
        hash(f.core), hash(f)
    assert fallbacks == []  # the recursion alone filled every S, M and XL input
    _failing_recursion(monkeypatch)
    expected = []
    for f in folded:
        hash(f.core), hash(f)
        # One fold per fill: the input's core, that core's hash, and the
        # input's hash unless the input is its own core.
        expected += ["_core", "_hash"] + ["_hash"] * (f.core is not f)
    assert fallbacks == expected
    for f, g in zip(recursive, folded):
        pairs = zip(_nodes(f) + _nodes(f.core), _nodes(g) + _nodes(g.core))
        for a, b in pairs:
            assert all(hasattr(a, name) and hasattr(b, name) for name in ("_hash", "_core"))
            assert (a.atoms, a.depth, hash(a), type(a)) == (b.atoms, b.depth, hash(b), type(b))
            assert a.core == b.core and (a.core is a) == (b.core is b)


def _chain(length):
    """A fresh formula nested ``length`` deep, every sugar but Iff on the way."""
    wraps = (Not, Univ, lambda g: And(g, Q), lambda g: Implies(R, g), Exis, lambda g: Kh(g, P))
    f = P
    for i in range(length):
        f = wraps[i % len(wraps)](f)
    return f


def _assert_reference_facts(f):
    for g in _nodes(f):
        assert g.atoms == _ref_atoms(g), g
        assert g.depth == _ref_depth(g), g
        assert g.core == _ref_core(g), g
        assert g.core.core is g.core


def test_a_formula_nested_past_the_recursion_limit_is_filled_by_the_fallback(monkeypatch):
    fallbacks = _recording_fallbacks(monkeypatch)
    f = _chain(240)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - _frames_to_the_limit() + 200)  # 200 frames left here
    try:
        f.core, hash(f)
    finally:
        sys.setrecursionlimit(limit)
    assert fallbacks == ["_core", "_hash"]
    _assert_reference_facts(f)


def test_a_small_formula_filled_near_the_recursion_limit_is_filled_by_the_fallback(monkeypatch):
    fallbacks = _recording_fallbacks(monkeypatch)
    f = _chain(40)

    def fill_at(frames_left):
        if frames_left > 20:
            return fill_at(frames_left - 1)
        return hash(f), f.core

    fill_at(_frames_to_the_limit() - 2)
    assert fallbacks == ["_hash", "_core"]
    _assert_reference_facts(f)


def test_pickles_carry_fields_not_cached_facts():
    f = parse("A (p -> q) & E ~r <-> Kh(p, true)")
    facts = (f.atoms, f.depth, f.core, hash(f))
    copy = pickle.loads(pickle.dumps(f))
    assert set(vars(copy)) == {"left", "right"}
    assert copy == f and (copy.atoms, copy.depth, copy.core, hash(copy)) == facts


def test_repr_spells_each_shared_node_once():
    # A tree reads as its dataclass form.  The core form of n levels of <->
    # uses both sides of each level twice, so it has 2^n paths through
    # shared nodes; its repr names each shared node once, so it grows
    # linearly with n (the dataclass repr of 24 levels ran for minutes).
    assert repr(parse("p | ~Kh(q, false)")) == (
        "Or(left=Atom(name='p'), right=Not(f=Kh(pre=Atom(name='q'), post=Bottom())))"
    )
    p = Atom("p")
    assert repr(Or(Not(p), Not(p))) == "Or(left=Not(f=Atom(name='p')), right=Not(f=Atom(name='p')))"
    shared = Not(p)
    assert repr(Or(shared, And(shared, p))) == (
        "Or(left=#1, right=And(left=#1, right=Atom(name='p'))) with #1=Not(f=Atom(name='p'))"
    )
    twelve, twenty_four = (repr(parse("Kh(p, q) <-> " * n + "p").core) for n in (12, 24))
    assert len(twenty_four) < 2.1 * len(twelve)
    assert twenty_four.count("=Kh(pre=Atom(name='p'), post=Atom(name='q'))") == 24


# ---------------------------------------------------------------------------
# Property tests


def _formulas(max_leaves: int = 6) -> st.SearchStrategy:
    base = st.one_of(
        st.sampled_from([P, Q, R, T, Atom("longer_name2")]),
        st.just(Bottom()),
        st.just(Top()),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            inner.map(Not),
            inner.map(Univ),
            inner.map(Exis),
            st.tuples(inner, inner).map(lambda lr: Or(*lr)),
            st.tuples(inner, inner).map(lambda lr: And(*lr)),
            st.tuples(inner, inner).map(lambda lr: Implies(*lr)),
            st.tuples(inner, inner).map(lambda lr: Iff(*lr)),
            st.tuples(inner, inner).map(lambda lr: Kh(*lr)),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_desugar_preserves_modal_depth(f):
    assert modal_depth(desugar(f)) == modal_depth(f)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_desugar_idempotent(f):
    once = desugar(f)
    assert desugar(once) == once
