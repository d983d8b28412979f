"""Parser, renderer and variable-analysis tests for the concrete syntax."""

from __future__ import annotations

import string

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfol.calculus import _match, _match_hole, _match_renaming, _rewrite_ok
from dfol.encodings import parse_qlc, parse_qml
from dfol.prover import tableau_valid
from dfol.syntax import (
    And,
    App,
    ArrowVar,
    Atom,
    BridgeRule,
    Const,
    Eq,
    Exists,
    Falsum,
    Forall,
    Implies,
    LabeledFormula,
    Not,
    Or,
    Signature,
    SyntaxError_,
    Token,
    Var,
    _PUNCT,
    _term_symbols,
    arrow_vars,
    atom_terms,
    children,
    classify_variables,
    formula_symbols,
    free_plain_vars,
    is_closed,
    parse_bridge_rule_text,
    parse_formula,
    parse_labeled_formula,
    parse_theory,
    rebuild,
    render,
    render_formula,
    render_term,
    render_theory,
    substitute,
    term_free_plain_vars,
    tokenize,
)

TWO_INDEX = parse_theory(
    """
    index 1, 2
    signature 1 { const c, d; func f/1; pred p/1, q/2, r/0; }
    signature 2 { const c; pred p/1, s/1; }
    """
)

SIG1 = TWO_INDEX.signature("1")


def f1(text: str):
    return parse_formula(TWO_INDEX, "1", text)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_precedence_chain():
    # ~ binds tightest, then &, then |, then ->
    got = f1("~r & r | r -> r")
    r = Atom("r")
    assert got == Implies(Or(And(Not(r), r), r), r)


def test_right_associativity():
    r = Atom("r")
    assert f1("r -> r -> r") == Implies(r, Implies(r, r))
    assert f1("r | r | r") == Or(r, Or(r, r))
    assert f1("r & r & r") == And(r, And(r, r))


def test_quantifier_scope_extends_right():
    got = f1("forall x. p(x) -> r")
    assert got == Forall("x", Implies(Atom("p", (Var("x"),)), Atom("r")))


def test_false_keyword():
    assert f1("false") == Falsum()
    assert f1("p(c) -> false") == Implies(Atom("p", (Const("c"),)), Falsum())


def test_arrow_variable_parse():
    assert f1("p(x^>2)") == Atom("p", (ArrowVar("x", ">", "2"),))
    assert f1("p(x^<2)") == Atom("p", (ArrowVar("x", "<", "2"),))
    assert f1("p(x^>2@E)") == Atom("p", (ArrowVar("x", ">", "2", "E"),))


def test_terms_disambiguated_by_signature():
    assert f1("q(f(c), d)") == Atom(
        "q", (App("f", (Const("c"),)), Const("d"))
    )
    assert f1("x = f(y)") == Eq(Var("x"), App("f", (Var("y"),)))


def test_quantified_arrow_variable_rejected():
    with pytest.raises(SyntaxError_, match="quantified arrow variable"):
        f1("forall x^<2. p(x^<2)")


def test_unknown_foreign_index_rejected():
    with pytest.raises(SyntaxError_, match="index"):
        f1("p(x^>9)")


def test_own_index_arrow_rejected():
    with pytest.raises(SyntaxError_, match="index"):
        f1("p(x^>1)")


def test_arity_mismatch_rejected():
    with pytest.raises(SyntaxError_, match="expects"):
        f1("p(c, d)")
    with pytest.raises(SyntaxError_, match="expects"):
        f1("q(c)")


def test_undeclared_predicate_rejected():
    with pytest.raises(SyntaxError_, match="undeclared"):
        f1("missing(c)")


def test_error_positions_are_line_and_column():
    with pytest.raises(SyntaxError_) as err:
        parse_theory("index 1\nsignature 1 { pred p/1; }\naxiom 1: p(x, y)")
    assert str(err.value).startswith("3:")


def test_trailing_input_rejected():
    with pytest.raises(SyntaxError_):
        f1("r r")


# ---------------------------------------------------------------------------
# theories
# ---------------------------------------------------------------------------


def test_duplicate_index_rejected():
    with pytest.raises(SyntaxError_, match="duplicate index"):
        parse_theory("index 1; index 1")


def test_signature_blocks_merge():
    t = parse_theory(
        "index 1; signature 1 { pred p/1; } signature 1 { pred q/1; }"
    )
    sig = t.signature("1")
    assert sig.pred_arity("p") == 1 and sig.pred_arity("q") == 1


def test_complete_grouping():
    t = parse_theory(
        "index 1; signature 1 { complete const a; complete pred p/1; pred q/1; }"
    )
    sig = t.signature("1")
    assert sig.is_complete("const", "a")
    assert sig.is_complete("pred", "p")
    assert not sig.is_complete("pred", "q")


def test_multi_premise_bridge_rule():
    t = parse_theory(
        """
        index 1, 2, 3
        signature 1 { pred p/1; }
        signature 2 { pred q/1; }
        signature 3 { pred s/2; }
        bridge 1: p(x^>3), 2: q(y^>3) ==> 3: s(x, y)
        """
    )
    (rule,) = t.rules
    assert len(rule.premises) == 2
    assert rule.conclusion.index == "3"


def test_empty_premise_bridge_rule():
    rule = parse_bridge_rule_text(TWO_INDEX, "==> 1: p(c)")
    assert rule.premises == ()
    assert rule.conclusion == LabeledFormula("1", Atom("p", (Const("c"),)))


def test_property_expansion_appends_rules():
    t = parse_theory(
        """
        index 1, 2
        signature 1 { pred p/1; }
        signature 2 { pred q/1; }
        property fun 1 2
        property tot 1 2
        """
    )
    assert [p.kind for p in t.properties] == ["fun", "tot"]
    assert all(r.origin for r in t.rules)
    assert len(t.rules) == 2


def test_unknown_property_rejected():
    with pytest.raises(SyntaxError_, match="unknown relation property"):
        parse_theory("index 1, 2; property magic 1 2")


def test_property_needs_distinct_indices():
    with pytest.raises(SyntaxError_, match="distinct"):
        parse_theory("index 1, 2; property fun 1 1")


def test_comments_and_separators():
    t = parse_theory(
        """
        # a comment
        index 1;           # trailing comment
        signature 1 { pred p/0; };
        axiom 1: p
        """
    )
    assert len(t.axioms) == 1


def test_numbers_are_not_terms():
    with pytest.raises(SyntaxError_):
        parse_formula(TWO_INDEX, "1", "x = 1")


def test_non_ascii_digit_arity_is_a_syntax_error():
    # '²' is a digit to str.isdigit but not an ASCII number token
    with pytest.raises(SyntaxError_):
        parse_theory("index 1\nsignature 1 { pred p/²; }")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def _reference_tokenize(text: str) -> list[Token]:
    """A character-at-a-time tokenizer: on ASCII text `tokenize` must
    produce the same tokens and errors."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise SyntaxError_(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _lexed(tokenizer, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text)]
    except SyntaxError_ as exc:
        return str(exc)


_LEXEMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
    st.sampled_from(_PUNCT),
    st.sampled_from([" ", "\t", "\r", "\n", "\n\n", "  "]),
    st.from_regex(r"#[ -~]{0,8}", fullmatch=True),
    st.sampled_from(["$", "^", "<", "!", "?", "'", "\\", "\x0b", "=="]),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_LEXEMES, max_size=30).map("".join), st.text(string.printable, max_size=30)))
@example("p(x)  # trailing comment")
@example("index 1\n  # only a comment")
@example("a $")
@example("p(x) \t\r")
def test_tokenize_matches_the_reference_tokenizer(text):
    assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text)


# ---------------------------------------------------------------------------
# variable analysis
# ---------------------------------------------------------------------------


def test_arrow_and_plain_variables_are_distinct():
    lf = parse_labeled_formula(TWO_INDEX, "1: p(x^>2)")
    free, arrows, closed, _ = classify_variables(lf)
    assert free == set()
    assert arrows == {ArrowVar("x", ">", "2")}
    assert not closed


def test_fully_bound_formula_is_closed():
    lf = parse_labeled_formula(TWO_INDEX, "1: forall x. p(x)")
    free, arrows, closed, complete = classify_variables(lf)
    assert closed and not free and not arrows
    assert not complete  # p is not complete in this signature


def test_complete_flag_uses_signature():
    t = parse_theory(
        "index 1; signature 1 { complete const l; complete pred inbox/2; pred q/0; }"
    )
    lf = parse_labeled_formula(t, "1: inbox(x, l)")
    *_, complete = classify_variables(lf, t.signature("1"))
    assert complete
    lf2 = parse_labeled_formula(t, "1: inbox(x, l) & q")
    *_, complete2 = classify_variables(lf2, t.signature("1"))
    assert not complete2


def test_equality_is_always_complete():
    lf = parse_labeled_formula(TWO_INDEX, "1: x = y | false")
    *_, complete = classify_variables(lf, SIG1)
    assert complete


def test_quantifier_binds_only_its_variable():
    got = f1("forall x. q(x, y)")
    assert free_plain_vars(got) == {"y"}
    got = f1("exists x. q(x^>2, x)")
    assert free_plain_vars(got) == set()
    assert arrow_vars(got) == {ArrowVar("x", ">", "2")}


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_ground():
    assert substitute(f1("p(x)"), "x", Const("c")) == f1("p(c)")


def test_substitute_leaves_arrow_variables_alone():
    got = substitute(f1("q(x, x^>2)"), "x", Const("c"))
    assert got == f1("q(c, x^>2)")


def test_substitute_capture_rejected():
    with pytest.raises(ValueError, match="capture"):
        substitute(f1("exists y. q(x, y)"), "x", App("f", (Var("y"),)))


def test_substitute_without_free_occurrence_captures_nothing():
    phi = f1("exists y. q(c, y) & (forall x. p(x))")
    assert substitute(phi, "x", App("f", (Var("y"),))) == phi


def test_signature_of_undeclared_index_is_a_key_error():
    with pytest.raises(KeyError, match="undeclared index '3'"):
        TWO_INDEX.signature("3")


def test_substitute_arrow_term_reparses():
    got = substitute(f1("q(x, c)"), "x", ArrowVar("x", ">", "2"))
    assert parse_formula(TWO_INDEX, "1", render_formula(got)) == got


def test_substitute_bound_variable_untouched():
    phi = f1("forall x. p(x)")
    assert substitute(phi, "x", Const("c")) == phi


# ---------------------------------------------------------------------------
# rendering round-trips
# ---------------------------------------------------------------------------


def test_bridge_rule_round_trip():
    t = parse_theory(
        """
        index 1, 2
        signature 1 { pred black/1; }
        signature 2 { pred black/1; }
        bridge 1: black(x^>2) ==> 2: black(x)
        """
    )
    (rule,) = t.rules
    assert parse_bridge_rule_text(t, render(rule)) == rule


def test_theory_round_trip_fixed():
    out = render_theory(TWO_INDEX)
    assert render_theory(parse_theory(out)) == out


NAMES = st.sampled_from(["x", "y", "z"])


def terms(depth: int = 2):
    base = st.one_of(
        NAMES.map(Var),
        st.sampled_from(["c", "d"]).map(Const),
        st.builds(
            ArrowVar,
            NAMES,
            st.sampled_from([">", "<"]),
            st.just("2"),
            st.sampled_from([None, "E"]),
        ),
    )
    if depth == 0:
        return base
    return st.one_of(base, st.builds(lambda a: App("f", (a,)), terms(depth - 1)))


def formulas(depth: int = 3):
    base = st.one_of(
        st.just(Falsum()),
        st.just(Atom("r")),
        terms().map(lambda t: Atom("p", (t,))),
        st.builds(lambda a, b: Atom("q", (a, b)), terms(), terms()),
        st.builds(Eq, terms(), terms()),
    )
    if depth == 0:
        return base
    sub = formulas(depth - 1)
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Forall, NAMES, sub),
        st.builds(Exists, NAMES, sub),
    )


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_parse_render_round_trip(phi):
    assert parse_formula(TWO_INDEX, "1", render_formula(phi)) == phi


def _reference_render(f, ctx: int = 0) -> str:
    """The recursive renderer that render_formula's stack walk replaced."""
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(render_term(a) for a in f.args)})" if f.args else f.pred
    if isinstance(f, Eq):
        return f"{render_term(f.lhs)} = {render_term(f.rhs)}"
    if isinstance(f, Not):
        return f"~{_reference_render(f.body, 4)}"
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        text = f"{kw} {f.var}. {_reference_render(f.body, 0)}"
        return f"({text})" if ctx > 0 else text
    prec, op = {Implies: (1, "->"), Or: (2, "|"), And: (3, "&")}[type(f)]
    text = f"{_reference_render(f.lhs, prec + 1)} {op} {_reference_render(f.rhs, prec)}"
    return f"({text})" if ctx > prec else text


@settings(max_examples=300, deadline=None)
@given(formulas(4))
def test_render_matches_the_recursive_renderer(phi):
    assert render_formula(phi) == _reference_render(phi)


@pytest.mark.parametrize("n", [1000, 10000])
def test_long_and_chains_render(n):
    atoms = [Atom("p", (Const("c"),)), Atom("r")] * (n // 2)
    chain = atoms[-1]
    for a in reversed(atoms[:-1]):
        chain = And(a, chain)
    assert render_formula(chain) == " & ".join(["p(c) & r"] * (n // 2))


def _reference_formula_symbols(f):
    """The recursive walk that formula_symbols' stack walk replaced."""
    out = _term_symbols(atom_terms(f))
    if type(f) is Atom:
        out.add(("pred", f.pred))
    for g in children(f):
        out |= _reference_formula_symbols(g)
    return out


@settings(max_examples=300, deadline=None)
@given(formulas(4))
def test_formula_symbols_matches_the_recursive_walk(phi):
    assert formula_symbols(phi) == _reference_formula_symbols(phi)


def test_long_and_chain_symbols():
    atoms = ([Atom("p", (Const("c"),)), Atom("r"), Eq(App("f", (Var("x"),)), Var("y"))] * 3334)[:10000]
    chain = atoms[-1]
    for a in reversed(atoms[:-1]):
        chain = And(a, chain)
    assert formula_symbols(chain) == {("pred", "p"), ("const", "c"), ("pred", "r"), ("func", "f")}


def _reference_free_plain_vars(f):
    """The recursive walk that free_plain_vars' stack walk replaced."""
    cls = type(f)
    if cls is Forall or cls is Exists:
        return _reference_free_plain_vars(f.body) - {f.var}
    out = set()
    for t in atom_terms(f):
        if type(t) is Var:
            out.add(t.name)
        elif type(t) is App:
            out |= term_free_plain_vars(t)
    for g in children(f):
        out |= _reference_free_plain_vars(g)
    return out


@settings(max_examples=300, deadline=None)
@given(formulas(4))
def test_free_plain_vars_matches_the_recursive_walk(phi):
    assert free_plain_vars(phi) == _reference_free_plain_vars(phi)


def test_long_and_chain_variables():
    # nested deeper than a recursive walk can follow; z is bound in one
    # conjunct and free in another
    atoms = [
        Atom("p", (Var("x"),)),
        Forall("y", Atom("q", (Var("y"), App("f", (Var("z"),))))),
        Exists("z", Atom("p", (ArrowVar("z", ">", "2"),))),
    ]
    chain = atoms[0]
    for a in (atoms * 3334)[: 10000 - 1]:
        chain = And(a, chain)
    assert free_plain_vars(chain) == {"x", "z"}
    assert not is_closed(chain)
    free, arrows, closed, _ = classify_variables(LabeledFormula("1", chain))
    assert (free, arrows, closed) == ({"x", "z"}, {ArrowVar("z", ">", "2")}, False)


def formulas_at_2(depth: int = 2):
    # restricted to signature 2's symbols with arrows pointing back at 1
    base = st.one_of(
        st.just(Falsum()),
        st.one_of(NAMES.map(Var), st.just(Const("c"))).map(lambda t: Atom("p", (t,))),
        st.builds(
            lambda n, d: Atom("s", (ArrowVar(n, d, "1"),)),
            NAMES,
            st.sampled_from([">", "<"]),
        ),
        st.builds(Eq, NAMES.map(Var), NAMES.map(Var)),
    )
    if depth == 0:
        return base
    sub = formulas_at_2(depth - 1)
    return st.one_of(base, st.builds(Not, sub), st.builds(And, sub, sub))


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(2), min_size=0, max_size=3), formulas_at_2())
def test_bridge_rule_render_round_trip(premises, conclusion):
    rule = BridgeRule(
        tuple(LabeledFormula("1", p) for p in premises),
        LabeledFormula("2", conclusion),
    )
    assert parse_bridge_rule_text(TWO_INDEX, render(rule)) == rule


# ---------------------------------------------------------------------------
# traversal core and the structural matcher built on it
# ---------------------------------------------------------------------------


def test_walkers_reject_non_formulas():
    junk = Not("not a formula")
    for walk in (free_plain_vars, arrow_vars, lambda f: substitute(f, "x", Const("c"))):
        with pytest.raises(TypeError, match="not a formula"):
            walk(junk)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_rebuild_from_children_is_identity(phi):
    assert rebuild(phi, children(phi)) == phi


@settings(max_examples=300, deadline=None)
@given(formulas(), NAMES)
def test_free_exactly_when_substitution_changes_the_formula(phi, x):
    assert (x in free_plain_vars(phi)) == (substitute(phi, x, Const("c")) != phi)


@settings(max_examples=300, deadline=None)
@given(formulas(), NAMES, terms())
def test_hole_matching_recovers_the_substituted_term(body, x, t):
    try:
        target = substitute(body, x, t)
    except ValueError:
        assume(False)
    found = []

    def hole(b, u, bound):
        if b == Var(x) and x not in bound:
            found.append(u)
            return True
        return None

    assert _match(body, target, hole)
    assert set(found) == ({t} if x in free_plain_vars(body) else set())
    assert _match_hole(body, x, target)


@settings(max_examples=300, deadline=None)
@given(formulas(), terms(), terms())
def test_renaming_and_rewrite_matching_accept_a_formula_itself(phi, t, u):
    sigma: dict[str, str] = {}
    assert _match_renaming(phi, phi, sigma)
    assert all(k == v for k, v in sigma.items())
    assert _rewrite_ok(phi, phi, t, u)


# ---------------------------------------------------------------------------
# nesting deeper than the recursive descent can follow
# ---------------------------------------------------------------------------


def _parens(depth: int) -> str:
    return "(" * depth + "p(x)" + ")" * depth


@pytest.mark.parametrize("depth", [300, 1000])
@pytest.mark.parametrize(
    "parse",
    [
        lambda text: parse_formula(TWO_INDEX, "1", text),
        lambda text: parse_labeled_formula(TWO_INDEX, "1: " + text),
        lambda text: parse_bridge_rule_text(TWO_INDEX, f"1: {text} ==> 2: p(x^<1)"),
        lambda text: parse_bridge_rule_text(TWO_INDEX, f"2: s(y) ==> 1: {text}"),
        lambda text: parse_theory(
            "index 1; signature 1 { pred p/1; } axiom 1: " + text
        ),
        lambda text: parse_qml("signature { pred p/1; } formula " + text),
        lambda text: parse_qlc("contexts k signature { pred p/1; } formula k: " + text),
    ],
    ids=["formula", "labeled", "premise", "conclusion", "theory", "qml", "qlc"],
)
def test_deep_parentheses_are_a_syntax_error(parse, depth):
    with pytest.raises(SyntaxError_, match="nested too deeply"):
        parse(_parens(depth))


@pytest.mark.parametrize(
    "text",
    [
        "~" * 1000 + "p(x)",
        "forall y. " * 1000 + "p(x)",
        " -> ".join(["p(x)"] * 1000),
        "p(" + "f(" * 1000 + "c" + ")" * 1000 + ")",
    ],
    ids=["negations", "quantifiers", "implications", "terms"],
)
def test_every_deep_chain_is_a_syntax_error(text):
    with pytest.raises(SyntaxError_, match="nested too deeply"):
        parse_formula(TWO_INDEX, "1", text)


def test_long_flat_chains_still_parse():
    # the formula parser nests & to the right, still within reach at 300;
    # the qlc parser builds & chains in a loop, and its prenex check over
    # them must not recurse either
    f = parse_formula(TWO_INDEX, "1", " & ".join(["p(x)"] * 300))
    assert isinstance(f, And)
    assert parse_qlc(
        "contexts k signature { pred p/1; } formula k: " + " & ".join(["p(x)"] * 1000)
    ).formulas


def _chain(n: int, atom: str = "p(x)") -> str:
    return " & ".join([atom] * n)


def _leaves(f) -> list:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        stack.extend(children(g))
        if not children(g):
            out.append(g)
    return out


@pytest.mark.parametrize("n", [600, 900])
def test_substitute_and_hash_follow_long_chains(n):
    # & nests one level per conjunct; substitute and hash walk without
    # recursion, so every chain the parser accepts goes through
    got = substitute(f1(_chain(n)), "x", Const("c"))
    assert _leaves(got) == [Atom("p", (Const("c"),))] * n
    assert hash(got) == hash(f1(_chain(n, "p(c)")))
    with pytest.raises(ValueError, match="capture y"):
        substitute(f1(f"forall y. ({_chain(n)})"), "x", Var("y"))


@pytest.mark.parametrize("n", [600, 900])
def test_equality_follows_long_chains(n):
    # two parses give equal but distinct objects, so == walks every level
    first, second = f1(_chain(n)), f1(_chain(n))
    assert first is not second
    assert first == second and not first != second
    assert f1(_chain(n - 1) + " & p(c)") != first
    assert first in {second} and f1(_chain(n - 1) + " & p(c)") not in {first}
    assert {second: n}[first] == n
    assert Not(first) == Not(second) and Not(first) != first


def test_tableau_instantiates_a_long_universal_conjunction():
    T = parse_theory("index 1\nsignature 1 { const c; pred p/1; }")
    premise = parse_formula(T, "1", "forall x. " + _chain(600))
    assert tableau_valid([premise], parse_formula(T, "1", "p(c)"))


def test_tableau_collects_ground_terms_once_per_formula(monkeypatch):
    # ground terms are collected from each input formula and each
    # quantifier instance, not again from every subformula the tableau
    # pops: node visits grow linearly with the length of the conjunction
    import dfol.prover as prover

    T = parse_theory("index 1\nsignature 1 { const c; pred p/1, q/1; }")
    visits = {}
    for n in (100, 200, 400):
        count = [0]

        def counting_children(f, count=count):
            count[0] += 1
            return children(f)

        monkeypatch.setattr(prover, "children", counting_children)
        premise = parse_formula(T, "1", "forall x. " + _chain(n))
        assert tableau_valid([premise], parse_formula(T, "1", "p(c)"))
        assert not tableau_valid([premise], parse_formula(T, "1", "q(c)"))
        visits[n] = count[0]
    # an affine count: doubling the chain adds twice as many visits
    assert visits[400] - visits[200] == 2 * (visits[200] - visits[100])
    assert visits[400] <= 25 * 400
    monkeypatch.undo()
    premise = parse_formula(T, "1", "forall x. " + _chain(600))
    assert tableau_valid([premise], parse_formula(T, "1", "p(c)"))
    assert not tableau_valid([premise], parse_formula(T, "1", "q(c)"))


def test_tableau_hashes_each_subformula_once(monkeypatch):
    # a compound formula keeps its hash, computed from its children's, so
    # the tableau hashing every subformula it pops walks each node once:
    # hashes of the atoms below grow linearly with the conjunction
    T = parse_theory("index 1\nsignature 1 { const c; pred p/1, q/1; }")
    atom_hash = Atom.__hash__
    visits = {}
    for n in (100, 200, 400):
        count = [0]

        def counting_hash(a, count=count):
            count[0] += 1
            return atom_hash(a)

        monkeypatch.setattr(Atom, "__hash__", counting_hash)
        premise = parse_formula(T, "1", "forall x. " + _chain(n))
        assert tableau_valid([premise], parse_formula(T, "1", "p(c)"))
        assert not tableau_valid([premise], parse_formula(T, "1", "q(c)"))
        visits[n] = count[0]
        monkeypatch.undo()
    assert visits[400] - visits[200] == 2 * (visits[200] - visits[100])
    assert visits[400] <= 25 * 400
    premise = parse_formula(T, "1", "forall x. " + _chain(600))
    assert tableau_valid([premise], parse_formula(T, "1", "p(c)"))
    assert not tableau_valid([premise], parse_formula(T, "1", "q(c)"))


def test_congruence_closure_follows_deep_applications():
    # x = f(y) for all x, y merges every term with its f-image; congruence
    # closure then builds applications nested once per pass, deeper than a
    # recursive == can compare
    T = parse_theory("index 1\nsignature 1 { const c, d; func f/1; pred p/1, r/0; }")
    premise = parse_formula(T, "1", "forall x. forall y. x = f(y)")
    conclusion = parse_formula(T, "1", "(forall x. r) | (forall x. p(x))")
    assert not tableau_valid([premise], conclusion)
    deep = Const("c")
    for _ in range(5000):
        deep = App("f", (deep,))
    other = App("f", (deep,))
    assert deep == App("f", deep.args) and deep != other and hash(deep) != hash(other)
    assert {deep: 1}[App("f", deep.args)] == 1
