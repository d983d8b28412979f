"""Satisfaction, admissibility and model-validation tests.

The recurring fixture is the two-observer box scenario: index 1 sees a box
with two sectors and three balls, index 2 sees three sectors and four balls,
and the domain relations connect the one ball both observers see.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol import semantics
from dfol.relations import bridge_rules_for_property
from dfol.semantics import (
    _rule_slots,
    _variables_of,
    Assignment,
    DfolModel,
    LocalModel,
    UndefinedVariableError,
    make_local_model,
    check_theory,
    enumerate_admissible,
    eval_term,
    is_admissible,
    load_model,
    model_to_json,
    satisfies_axiom,
    satisfies_bridge_rule,
    satisfies_labeled,
    satisfies_local,
    validate_assignment,
    validate_model,
)
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
    RelationProperty,
    SyntaxError_,
    Var,
    arrow_vars,
    parse_bridge_rule_text,
    parse_formula,
    parse_labeled_formula,
    parse_theory,
    render_bridge_rule,
    render_term,
)
from test_syntax import TWO_INDEX, formulas, terms

FIXTURES = Path(__file__).parent / "fixtures"

MBOX_THEORY = parse_theory(
    """
    index 1, 2
    signature 1 {
      complete const b1, b2, b3, l, r;
      complete pred inbox/2, black/1, white/1;
    }
    signature 2 {
      complete const b1, b2, b3, b4, l, c, r;
      complete pred inbox/2, black/1, white/1;
    }
    """
)

DOM1 = ("left", "right", "a", "b", "c")
DOM2 = ("left", "centre", "right", "a", "b", "c", "d")

M1 = make_local_model(
    DOM1,
    consts={"b1": "a", "b2": "b", "b3": "c", "l": "left", "r": "right"},
    preds={
        "inbox": [("b", "left"), ("c", "right")],
        "black": [("a",), ("c",)],
        "white": [("b",)],
    },
)

M2 = make_local_model(
    DOM2,
    consts={
        "b1": "a",
        "b2": "b",
        "b3": "c",
        "b4": "d",
        "l": "left",
        "c": "centre",
        "r": "right",
    },
    preds={
        "inbox": [("a", "left"), ("b", "right")],
        "black": [("a",), ("b",), ("d",)],
        "white": [("c",)],
    },
)


def mbox_model(**overrides) -> DfolModel:
    base = dict(
        domains={"1": DOM1, "2": DOM2},
        model_sets={"1": (M1,), "2": (M2,)},
        relations={
            ("1", "2", None): frozenset({("c", "a")}),
            ("2", "1", None): frozenset({("a", "c")}),
        },
    )
    base.update(overrides)
    return DfolModel(**base)


def lf(text: str):
    return parse_labeled_formula(MBOX_THEORY, text)


# ---------------------------------------------------------------------------
# the reference evaluator: the tree-walking interpreter that the compiled
# closures replaced, kept as the independent side of the differential tests
# ---------------------------------------------------------------------------


def _reference_eval_term(m: LocalModel, env, t):
    if isinstance(t, (Var, ArrowVar)):
        try:
            return env[t]
        except KeyError:
            raise UndefinedVariableError(f"unassigned variable {render_term(t)}") from None
    if isinstance(t, Const):
        return m.const(t.name)
    if isinstance(t, App):
        return m.func(t.func, tuple(_reference_eval_term(m, env, a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def _reference_satisfies_local(m: LocalModel, phi, env) -> bool:
    if isinstance(phi, Atom):
        return tuple(_reference_eval_term(m, env, a) for a in phi.args) in m.pred(phi.pred)
    if isinstance(phi, Eq):
        return _reference_eval_term(m, env, phi.lhs) == _reference_eval_term(m, env, phi.rhs)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Not):
        return not _reference_satisfies_local(m, phi.body, env)
    if isinstance(phi, And):
        return _reference_satisfies_local(m, phi.lhs, env) and _reference_satisfies_local(m, phi.rhs, env)
    if isinstance(phi, Or):
        return _reference_satisfies_local(m, phi.lhs, env) or _reference_satisfies_local(m, phi.rhs, env)
    if isinstance(phi, Implies):
        return (not _reference_satisfies_local(m, phi.lhs, env)) or _reference_satisfies_local(m, phi.rhs, env)
    if isinstance(phi, Forall):
        v = Var(phi.var)
        return all(_reference_satisfies_local(m, phi.body, {**env, v: d}) for d in m.domain)
    if isinstance(phi, Exists):
        v = Var(phi.var)
        return any(_reference_satisfies_local(m, phi.body, {**env, v: d}) for d in m.domain)
    raise TypeError(f"not a formula: {phi!r}")


def _reference_satisfies_labeled(M: DfolModel, lf, a: Assignment) -> bool:
    if not is_admissible(M, a, lf):
        return False
    env = a.env(lf.index)
    return all(_reference_satisfies_local(m, lf.formula, env) for m in M.models(lf.index))


def _outcome(fn, *args):
    """fn's result, or the message of the UndefinedVariableError it raised."""
    try:
        return fn(*args)
    except UndefinedVariableError as exc:
        return ("undefined", str(exc))


# the variables formulas() draws, free or bound
_ENV_VARS = [Var(n) for n in "xyz"] + [
    ArrowVar(n, d, "2", label) for n in "xyz" for d in "<>" for label in (None, "E")
]


@st.composite
def partial_local_models(draw):
    """Local models for TWO_INDEX's index 1 over one or two elements that
    may leave c, d or f uninterpreted."""
    dom = ("a", "b")[: draw(st.integers(1, 2))]
    elem = st.sampled_from(dom)
    consts = {c: draw(elem) for c in ("c", "d") if draw(st.booleans())}
    funcs = {"f": {(e,): draw(elem) for e in dom}} if draw(st.booleans()) else {}
    preds = {
        "p": draw(st.sets(st.sampled_from([(e,) for e in dom]))),
        "q": draw(st.sets(st.sampled_from(list(product(dom, repeat=2))))),
        "r": draw(st.sets(st.just(()))),
    }
    return make_local_model(dom, consts, funcs, preds)


@settings(max_examples=1000, deadline=None)
@given(m=partial_local_models(), phi=formulas(), t=terms(), data=st.data())
def test_compiled_evaluation_matches_the_reference(m, phi, t, data):
    env = {
        v: data.draw(st.sampled_from(m.domain))
        for v in data.draw(st.lists(st.sampled_from(_ENV_VARS), unique=True))
    }
    assert _outcome(satisfies_local, m, phi, env) == _outcome(_reference_satisfies_local, m, phi, env)
    assert _outcome(eval_term, m, env, t) == _outcome(_reference_eval_term, m, env, t)


def test_a_quantifier_does_not_overwrite_the_variable_it_shadows():
    m = make_local_model(("a", "b"), preds={"p": [("b",)]})
    # the inner x ranges over a and b; the outer x keeps its value a
    phi = parse_formula(TWO_INDEX, "1", "(exists x. p(x)) & ~p(x)")
    assert satisfies_local(m, phi, {Var("x"): "a"})
    assert satisfies_local(m, Exists("x", phi), {})


def test_unassigned_variables_raise_only_where_they_are_reached():
    m = make_local_model(("a",), preds={"p": [("a",)]})
    assert satisfies_local(m, parse_formula(TWO_INDEX, "1", "p(x) | p(y)"), {Var("x"): "a"})
    with pytest.raises(UndefinedVariableError, match="unassigned variable y"):
        satisfies_local(m, parse_formula(TWO_INDEX, "1", "p(y) | p(x)"), {Var("x"): "a"})
    with pytest.raises(UndefinedVariableError, match="constant c not interpreted"):
        satisfies_local(m, parse_formula(TWO_INDEX, "1", "p(f(c))"), {})
    with pytest.raises(UndefinedVariableError, match="unassigned variable x\\^>2"):
        eval_term(m, {Var("x"): "a"}, ArrowVar("x", ">", "2"))


# ---------------------------------------------------------------------------
# term evaluation and local satisfaction
# ---------------------------------------------------------------------------


def test_eval_constant():
    assert eval_term(M1, {}, Const("b3")) == "c"


def test_eval_variable_lookup():
    assert eval_term(M1, {Var("x"): "b"}, Var("x")) == "b"


def test_eval_function_composition():
    m = make_local_model(
        ("0", "1"),
        consts={"c": "0"},
        funcs={
            "f": {("0",): "1", ("1",): "1"},
            "g": {("0",): "1", ("1",): "0"},
        },
    )
    assert eval_term(m, {}, App("f", (App("g", (Const("c"),)),))) == "1"


def test_satisfies_local_inbox():
    phi = parse_formula(MBOX_THEORY, "1", "inbox(x, r)")
    assert satisfies_local(M1, phi, {Var("x"): "c"})
    assert not satisfies_local(M1, phi, {Var("x"): "b"})


def test_satisfies_local_exists_with_arrow():
    phi = parse_formula(MBOX_THEORY, "2", "exists y. inbox(x^<1, y)")
    assert satisfies_local(M2, phi, {ArrowVar("x", "<", "1"): "a"})
    assert not satisfies_local(M2, phi, {ArrowVar("x", "<", "1"): "d"})


def test_identity_holds_everywhere():
    phi = parse_formula(MBOX_THEORY, "1", "x = x")
    for d in DOM1:
        assert satisfies_local(M1, phi, {Var("x"): d})


# ---------------------------------------------------------------------------
# assignment conditions
# ---------------------------------------------------------------------------


def test_to_variable_condition():
    M = mbox_model()
    a = Assignment([("1", ArrowVar("x", ">", "2"), "c"), ("2", Var("x"), "a")])
    assert validate_assignment(M, a) == []


def test_from_variable_condition():
    M = mbox_model()
    a = Assignment([("2", ArrowVar("x", "<", "1"), "a"), ("1", Var("x"), "c")])
    assert validate_assignment(M, a) == []


def test_empty_relation_rejects_arrow():
    M = mbox_model(relations={})
    a = Assignment([("1", ArrowVar("x", ">", "2"), "c"), ("2", Var("x"), "a")])
    assert any("domain-relation" in p for p in validate_assignment(M, a))


def test_arrow_without_anchor_rejected():
    M = mbox_model()
    a = Assignment([("1", ArrowVar("x", ">", "2"), "c")])
    assert validate_assignment(M, a) != []


def test_out_of_domain_value_rejected():
    M = mbox_model()
    a = Assignment([("1", Var("x"), "nowhere")])
    assert any("outside the domain" in p for p in validate_assignment(M, a))


# ---------------------------------------------------------------------------
# labeled satisfaction
# ---------------------------------------------------------------------------


def test_non_admissible_satisfies_neither_formula_nor_negation():
    M = mbox_model()
    empty = Assignment()
    assert not satisfies_labeled(M, lf("1: black(x^>2)"), empty)
    assert not satisfies_labeled(M, lf("1: ~black(x^>2)"), empty)


def test_empty_model_set_satisfies_falsum():
    M = mbox_model(model_sets={"1": (), "2": (M2,)})
    assert satisfies_labeled(M, lf("1: false"), Assignment())
    assert not satisfies_labeled(M, lf("2: false"), Assignment())


def test_empty_model_set_satisfies_admissible_formulas_only():
    M = mbox_model(model_sets={"1": (), "2": (M2,)}, relations={})
    assert satisfies_labeled(M, lf("1: black(b1) & ~black(b1)"), Assignment())
    assert not satisfies_labeled(M, lf("1: black(x^>2)"), Assignment())


@settings(max_examples=200, deadline=None)
@given(
    ext=st.sets(st.sampled_from(["a", "b", "c", "left", "right"])),
    value=st.sampled_from(["a", "b", "c", "left", "right"]),
)
def test_singleton_satisfaction_is_local_satisfaction(ext, value):
    m = make_local_model(DOM1, consts=M1.consts and dict(M1.consts), preds={"black": [(e,) for e in ext]})
    M = DfolModel({"1": DOM1, "2": DOM2}, {"1": (m,), "2": ()}, {})
    phi = parse_formula(MBOX_THEORY, "1", "black(x)")
    a = Assignment([("1", Var("x"), value)])
    assert satisfies_labeled(M, lf("1: black(x)"), a) == satisfies_local(
        m, phi, {Var("x"): value}
    )


# ---------------------------------------------------------------------------
# admissible-assignment enumeration
# ---------------------------------------------------------------------------


def test_enumeration_runs_over_the_whole_domain():
    # dom_1 has five elements, so a plain premise variable takes five values
    M = mbox_model()
    got = list(enumerate_admissible(M, [lf("1: inbox(x, r)")]))
    assert [a.get("1", Var("x")) for a in got] == sorted(DOM1)


def test_enumeration_with_empty_relation_is_empty():
    M = mbox_model(relations={})
    assert list(enumerate_admissible(M, [lf("1: black(x^>2)")])) == []


def test_enumeration_pairs_arrow_with_anchor_through_relation():
    M = mbox_model()
    got = list(enumerate_admissible(M, [lf("1: black(x^>2)")]))
    assert len(got) == 1
    (a,) = got
    assert a.get("1", ArrowVar("x", ">", "2")) == "c"
    assert a.get("2", Var("x")) == "a"


def test_enumeration_order_is_lexicographic():
    M = mbox_model()
    got = list(enumerate_admissible(M, [lf("1: inbox(x, y)")]))
    keys = [(a.get("1", Var("x")), a.get("1", Var("y"))) for a in got]
    assert keys == sorted(keys)
    assert len(got) == len(DOM1) ** 2


def test_enumeration_over_no_formulas_is_the_empty_assignment():
    got = list(enumerate_admissible(mbox_model(), []))
    assert got == [Assignment()]
    assert len(got[0]) == 0


def test_long_and_chain_rule_slots():
    # a premise nested deeper than a recursive walk can follow
    chain = Atom("p", (Var("x"),))
    for _ in range(10000 - 1):
        chain = And(Atom("q", (ArrowVar("y", ">", "2"),)), chain)
    rule = BridgeRule((LabeledFormula("1", chain),), LabeledFormula("2", Atom("s", (Var("x"),))))
    assert _rule_slots(rule) == [
        ("1", Var("x")),
        ("1", ArrowVar("y", ">", "2")),
        ("2", Var("x")),
        ("2", Var("y")),
    ]


# ---------------------------------------------------------------------------
# bridge-rule satisfaction
# ---------------------------------------------------------------------------


def test_box_rule_right_sector_holds():
    M = mbox_model()
    rule = parse_bridge_rule_text(
        MBOX_THEORY, "1: inbox(x, r) ==> 2: exists y. inbox(x^<1, y)"
    )
    assert satisfies_bridge_rule(M, rule) == (True, None)


def test_box_rule_failure_reports_premise_witness():
    m2_empty = make_local_model(
        DOM2,
        consts=dict(M2.consts),
        preds={"inbox": [], "black": [], "white": []},
    )
    M = mbox_model(model_sets={"1": (M1,), "2": (m2_empty,)})
    rule = parse_bridge_rule_text(
        MBOX_THEORY, "1: inbox(x, r) ==> 2: exists y. inbox(x^<1, y)"
    )
    ok, witness = satisfies_bridge_rule(M, rule)
    assert not ok
    assert witness.get("1", Var("x")) == "c"


def test_inconsistency_propagation_vacuous_when_source_consistent():
    M = mbox_model()
    rule = parse_bridge_rule_text(MBOX_THEORY, "2: false ==> 1: false")
    assert satisfies_bridge_rule(M, rule) == (True, None)


def test_colour_rules_hold_on_the_box_model():
    M = mbox_model()
    for text in (
        "1: black(x^>2) ==> 2: black(x)",
        "2: black(x^>1) ==> 1: black(x)",
        "1: white(x^>2) ==> 2: white(x)",
        "2: white(x^>1) ==> 1: white(x)",
    ):
        rule = parse_bridge_rule_text(MBOX_THEORY, text)
        assert satisfies_bridge_rule(M, rule) == (True, None), text


def test_join_rule_three_indices():
    T = parse_theory(
        """
        index 1, 2, 3
        signature 1 { pred P/1; }
        signature 2 { pred Q/1; }
        signature 3 { pred R/2; }
        """
    )
    rule = parse_bridge_rule_text(T, "1: P(x^>3), 2: Q(y^>3) ==> 3: R(x, y)")
    m1 = make_local_model(("d1", "d2"), preds={"P": [("d1",)]})
    m2 = make_local_model(("c1",), preds={"Q": [("c1",)]})
    m3 = make_local_model(("e1", "e2"), preds={"R": [("e1", "e2")]})
    M = DfolModel(
        domains={"1": ("d1", "d2"), "2": ("c1",), "3": ("e1", "e2")},
        model_sets={"1": (m1,), "2": (m2,), "3": (m3,)},
        relations={
            ("1", "3", None): frozenset({("d1", "e1")}),
            ("2", "3", None): frozenset({("c1", "e2")}),
        },
    )
    assert satisfies_bridge_rule(M, rule) == (True, None)
    m3_empty = make_local_model(("e1", "e2"), preds={"R": []})
    M_bad = DfolModel(M.domains, {**M.model_sets, "3": (m3_empty,)}, M.relations)
    ok, witness = satisfies_bridge_rule(M_bad, rule)
    assert not ok and witness is not None


def _forced_meaning(models, domain, pred):
    # elements all local models put in the predicate; whole domain when empty
    out = set(domain)
    for m in models:
        out &= {t[0] for t in m.pred(pred)}
    return out


@settings(max_examples=200, deadline=None)
@given(
    p1=st.sets(st.sampled_from(["d1", "d2"])),
    p2=st.sets(st.sampled_from(["d1", "d2"])),
    q1=st.sets(st.sampled_from(["e1", "e2"])),
    q2=st.sets(st.sampled_from(["e1", "e2"])),
    n1=st.integers(0, 2),
    n2=st.integers(0, 2),
    rel=st.sets(st.tuples(st.sampled_from(["d1", "d2"]), st.sampled_from(["e1", "e2"]))),
)
def test_query_containment_reading(p1, p2, q1, q2, n1, n2, rel):
    # rule i:P(x^>j) ==> j:Q(x) holds exactly when r_ij(P) lies inside Q,
    # with P and Q read as what every local model asserts
    T = parse_theory(
        "index 1, 2; signature 1 { pred P/1; } signature 2 { pred Q/1; }"
    )
    rule = parse_bridge_rule_text(T, "1: P(x^>2) ==> 2: Q(x)")
    dom1, dom2 = ("d1", "d2"), ("e1", "e2")
    ms1 = (
        make_local_model(dom1, preds={"P": [(e,) for e in p1]}),
        make_local_model(dom1, preds={"P": [(e,) for e in p2]}),
    )[:n1]
    ms2 = (
        make_local_model(dom2, preds={"Q": [(e,) for e in q1]}),
        make_local_model(dom2, preds={"Q": [(e,) for e in q2]}),
    )[:n2]
    M = DfolModel(
        {"1": dom1, "2": dom2},
        {"1": ms1, "2": ms2},
        {("1", "2", None): frozenset(rel)},
    )
    p_meaning = _forced_meaning(ms1, dom1, "P")
    q_meaning = _forced_meaning(ms2, dom2, "Q")
    image = {e for d, e in rel if d in p_meaning}
    ok, _ = satisfies_bridge_rule(M, rule)
    assert ok == image.issubset(q_meaning)


# ---------------------------------------------------------------------------
# arrow-variable satisfaction properties
# ---------------------------------------------------------------------------


def test_undefined_arrow_refutes_its_existential():
    M = mbox_model()
    assert not satisfies_labeled(M, lf("1: exists y. y = x^>2"), Assignment())


def test_universal_does_not_instantiate_to_unassigned_arrow():
    # a tautology under every plain instantiation fails on an unassigned arrow
    M = mbox_model(relations={})
    taut = lf("1: forall x. (black(x) -> black(x))")
    arrowed = lf("1: black(x^>2) -> black(x^>2)")
    assert satisfies_labeled(M, taut, Assignment())
    assert not satisfies_labeled(M, arrowed, Assignment())


def test_negation_does_not_weaken_to_implication():
    # 1: ~black(b1) fails to spread to 1: black(x^>2) -> ~black(b1)
    m = make_local_model(DOM1, consts=dict(M1.consts), preds={"black": [], "inbox": [], "white": []})
    M = mbox_model(model_sets={"1": (m,), "2": (M2,)}, relations={})
    assert satisfies_labeled(M, lf("1: ~black(b1)"), Assignment())
    assert not satisfies_labeled(M, lf("1: black(x^>2) -> ~black(b1)"), Assignment())


def test_disjunction_introduction_fails_with_new_arrow():
    M = mbox_model(relations={})
    assert satisfies_labeled(M, lf("1: black(b1)"), Assignment())
    assert not satisfies_labeled(M, lf("1: black(b1) | black(x^>2)"), Assignment())


def test_modus_ponens_is_sound():
    M = mbox_model()
    for a in enumerate_admissible(M, [lf("1: black(x) -> white(x)"), lf("1: black(x)")]):
        if satisfies_labeled(M, lf("1: black(x) -> white(x)"), a) and satisfies_labeled(
            M, lf("1: black(x)"), a
        ):
            assert satisfies_labeled(M, lf("1: white(x)"), a)


@settings(max_examples=150, deadline=None)
@given(
    black1=st.sets(st.sampled_from(DOM1)),
    black2=st.sets(st.sampled_from(DOM1)),
    imp1=st.sets(st.sampled_from(DOM1)),
    imp2=st.sets(st.sampled_from(DOM1)),
)
def test_modus_ponens_on_random_model_sets(black1, black2, imp1, imp2):
    mk = lambda b, w: make_local_model(
        DOM1, consts=dict(M1.consts), preds={"black": [(e,) for e in b], "white": [(e,) for e in w]}
    )
    M = mbox_model(model_sets={"1": (mk(black1, imp1), mk(black2, imp2)), "2": (M2,)})
    phi, psi, imp = lf("1: black(x)"), lf("1: white(x)"), lf("1: black(x) -> white(x)")
    for d in DOM1:
        a = Assignment([("1", Var("x"), d)])
        if satisfies_labeled(M, imp, a) and satisfies_labeled(M, phi, a):
            assert satisfies_labeled(M, psi, a)


def test_assigned_arrow_yields_existential():
    M = mbox_model()
    a = Assignment([("1", ArrowVar("x", ">", "2"), "c"), ("2", Var("x"), "a")])
    assert satisfies_labeled(M, lf("1: black(x^>2)"), a)
    assert satisfies_labeled(M, lf("1: exists z. black(z)"), a)


# ---------------------------------------------------------------------------
# partial knowledge through several local models
# ---------------------------------------------------------------------------


def _two_model_set(pred_a, pred_b):
    dom = ("d1", "d2")
    m1 = make_local_model(dom, consts={"t": "d1"}, preds={"p": pred_a, "q": []})
    m2 = make_local_model(dom, consts={"t": "d2"}, preds={"p": [], "q": pred_b})
    T = parse_theory("index 1; signature 1 { const t; pred p/1, q/1; }")
    M = DfolModel({"1": dom}, {"1": (m1, m2)}, {})
    return T, M


def test_non_complete_term_value_can_be_unknown():
    T, M = _two_model_set([], [])
    eq = parse_labeled_formula(T, "1: x = t")
    for d in ("d1", "d2"):
        assert not satisfies_labeled(M, eq, Assignment([("1", Var("x"), d)]))


def test_disjunction_without_determined_disjunct():
    T, M = _two_model_set([("d1",)], [("d1",)])
    a = Assignment([("1", Var("x"), "d1")])
    assert satisfies_labeled(M, parse_labeled_formula(T, "1: p(x) | q(x)"), a)
    assert not satisfies_labeled(M, parse_labeled_formula(T, "1: p(x)"), a)
    assert not satisfies_labeled(M, parse_labeled_formula(T, "1: q(x)"), a)


def test_existential_without_witness():
    dom = ("d1", "d2")
    m1 = make_local_model(dom, preds={"p": [("d1",)]})
    m2 = make_local_model(dom, preds={"p": [("d2",)]})
    T = parse_theory("index 1; signature 1 { pred p/1; }")
    M = DfolModel({"1": dom}, {"1": (m1, m2)}, {})
    assert satisfies_labeled(M, parse_labeled_formula(T, "1: exists x. p(x)"), Assignment())
    for d in dom:
        assert not satisfies_labeled(
            M, parse_labeled_formula(T, "1: p(x)"), Assignment([("1", Var("x"), d)])
        )


COMPLETE_T = parse_theory(
    "index 1; signature 1 { complete const t; complete pred p/1, q/1; pred u/1; }"
)


@settings(max_examples=200, deadline=None)
@given(
    shared_p=st.sets(st.sampled_from(["d1", "d2"])),
    shared_q=st.sets(st.sampled_from(["d1", "d2"])),
    t_value=st.sampled_from(["d1", "d2"]),
    u1=st.sets(st.sampled_from(["d1", "d2"])),
    u2=st.sets(st.sampled_from(["d1", "d2"])),
    size=st.integers(0, 2),
)
def test_complete_formulas_behave_classically(shared_p, shared_q, t_value, u1, u2, size):
    # local models may only disagree on the incomplete symbol u
    dom = ("d1", "d2")
    mk = lambda u: make_local_model(
        dom,
        consts={"t": t_value},
        preds={"p": [(e,) for e in shared_p], "q": [(e,) for e in shared_q], "u": [(e,) for e in u]},
    )
    M = DfolModel({"1": dom}, {"1": (mk(u1), mk(u2))[:size]}, {})
    peq = parse_labeled_formula(COMPLETE_T, "1: x = t")
    assert any(
        satisfies_labeled(M, peq, Assignment([("1", Var("x"), d)])) for d in dom
    )
    por = parse_labeled_formula(COMPLETE_T, "1: p(x) | q(x)")
    pp = parse_labeled_formula(COMPLETE_T, "1: p(x)")
    pq = parse_labeled_formula(COMPLETE_T, "1: q(x)")
    for d in dom:
        a = Assignment([("1", Var("x"), d)])
        assert satisfies_labeled(M, por, a) == (
            satisfies_labeled(M, pp, a) or satisfies_labeled(M, pq, a)
        )
    pex = parse_labeled_formula(COMPLETE_T, "1: exists x. p(x)")
    assert satisfies_labeled(M, pex, Assignment()) == any(
        satisfies_labeled(M, pp, Assignment([("1", Var("x"), d)])) for d in dom
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_box_model_ok():
    assert validate_model(MBOX_THEORY, mbox_model()) == []


def test_validate_allows_empty_model_set_over_nonempty_domain():
    M = mbox_model(model_sets={"1": (), "2": (M2,)})
    assert validate_model(MBOX_THEORY, M) == []


def test_validate_rejects_missing_domain():
    M = mbox_model(domains={"1": DOM1})
    assert any("missing or empty domain" in p for p in validate_model(MBOX_THEORY, M))


def test_validate_rejects_partial_constants():
    bad = make_local_model(DOM1, consts={"b1": "a"}, preds={})
    M = mbox_model(model_sets={"1": (bad,), "2": (M2,)})
    assert any("not interpreted" in p for p in validate_model(MBOX_THEORY, M))


def test_validate_rejects_non_total_function():
    T = parse_theory("index 1; signature 1 { func f/1; }")
    m = make_local_model(("d1", "d2"), funcs={"f": {("d1",): "d1"}})
    M = DfolModel({"1": ("d1", "d2")}, {"1": (m,)}, {})
    assert any("not total" in p for p in validate_model(T, M))


def test_validate_rejects_complete_disagreement():
    other = make_local_model(
        DOM1,
        consts=dict(M1.consts),
        preds={"inbox": [], "black": [("b",)], "white": []},
    )
    M = mbox_model(model_sets={"1": (M1, other), "2": (M2,)})
    assert any("disagree on complete" in p for p in validate_model(MBOX_THEORY, M))


def test_validate_rejects_relation_pair_outside_domains():
    M = mbox_model(relations={("1", "2", None): frozenset({("c", "zz")})})
    assert any("leaves the domains" in p for p in validate_model(MBOX_THEORY, M))


def test_validate_rejects_unknown_index():
    M = mbox_model(domains={"1": DOM1, "2": DOM2, "9": ("x",)})
    assert any("unknown index 9" in p for p in validate_model(MBOX_THEORY, M))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_model_json_round_trip():
    M = mbox_model()
    assert load_model(model_to_json(M)) == M


def test_load_model_with_labeled_relation():
    data = {
        "domains": {"1": ["d"], "2": ["e"]},
        "models": {"1": [], "2": []},
        "relations": {"1->2@E": [["d", "e"]]},
    }
    M = load_model(data)
    assert M.rel("1", "2", "E") == frozenset({("d", "e")})
    assert M.rel("1", "2") == frozenset()


def test_missing_relations_default_to_empty():
    M = load_model({"domains": {"1": ["d"], "2": ["e"]}})
    assert M.rel("1", "2") == frozenset()
    assert M.models("1") == ()


def test_function_entries_args_then_value():
    data = {
        "domains": {"1": ["d", "e"]},
        "models": {
            "1": [
                {
                    "func": {"f": [["d", "e"], ["e", "d"]]},
                }
            ]
        },
    }
    M = load_model(data)
    (m,) = M.models("1")
    assert m.func("f", ("d",)) == "e"
    assert m.func("f", ("e",)) == "d"


def test_load_model_rejects_empty_domain():
    with pytest.raises(Exception, match="nonempty"):
        load_model({"domains": {"1": []}})


# ---------------------------------------------------------------------------
# assignment API
# ---------------------------------------------------------------------------


def test_assignment_extension_relation():
    a = Assignment([("1", Var("x"), "a")])
    b = a.extend([("1", ArrowVar("x", ">", "2"), "c")])
    assert b.extends(a)
    assert not a.extends(b)
    assert a.extends(a)


def test_assignment_env_slices_by_index():
    a = Assignment([("1", Var("x"), "a"), ("2", Var("x"), "b")])
    assert a.env("1") == {Var("x"): "a"}
    assert a.env("2") == {Var("x"): "b"}


# ---------------------------------------------------------------------------
# bridge-rule and axiom checks against a naive sweep
# ---------------------------------------------------------------------------

DIFF_THEORY = parse_theory(
    """
    index 1, 2, 3
    signature 1 { pred p/1, q/1; }
    signature 2 { pred s/1, t/1; }
    signature 3 { pred r/2; }
    """
)

DIFF_RULES = [
    parse_bridge_rule_text(DIFF_THEORY, text)
    for text in (
        # the cut/glue fixture's rules
        "1: p(x) ==> 2: s(x^<1)",
        "1: q(x) ==> 2: t(x^<1)",
        # query containment, a three-index join, inconsistency propagation
        "1: p(x^>2) ==> 2: s(x)",
        "1: p(x^>3), 2: s(y^>3) ==> 3: r(x, y)",
        "2: false ==> 1: false",
        # no premise; a premise arrow reused by the conclusion
        "==> 2: exists y. y = x^<1",
        "1: p(x^>2) ==> 1: q(x^>2) | exists y. y = z^>3",
        # six slots; the premise on the first slot can fail before the
        # others are bound
        "1: q(x), 2: s(y) & t(z), 3: r(u, v) & r(v, w) ==> 3: r(u, w) | r(x^<1, w)",
    )
] + [
    rule
    for kind, arity in RelationProperty.ARITIES.items()
    for rule in bridge_rules_for_property(RelationProperty(kind, ("1", "2", "3")[:arity]))
]

DIFF_AXIOMS = [
    parse_labeled_formula(DIFF_THEORY, text)
    for text in (
        "1: p(x) -> q(x)",
        "2: exists y. s(y)",
        "1: p(x^>2) | q(x^>3)",
        "3: r(x, y^<1) -> r(y^<2, x)",
    )
]


def _naive_sweep(M, slots):
    """Every assignment over the slots in lexicographic order, kept when
    its arrow variables meet their relation conditions."""
    for elems in product(*(sorted(M.domains[i]) for i, _ in slots)):
        a = Assignment([(i, v, e) for (i, v), e in zip(slots, elems)])
        if not validate_assignment(M, a):
            yield a


def _naive_bridge_rule(M, rule):
    concl = rule.conclusion
    for a in _naive_sweep(M, _rule_slots(rule)):
        if not all(_reference_satisfies_labeled(M, p, a) for p in rule.premises):
            continue
        missing = [av for av in arrow_vars(concl.formula) if not a.defined(concl.index, av)]
        if not any(
            _reference_satisfies_labeled(
                M, concl, a.extend((concl.index, av, e) for av, e in zip(missing, elems))
            )
            for elems in product(M.domains[concl.index], repeat=len(missing))
        ):
            return False, a
    return True, None


def _naive_axiom(M, ax):
    for a in _naive_sweep(M, _variables_of([ax])):
        if not _reference_satisfies_labeled(M, ax, a):
            return False, a
    return True, None


@st.composite
def small_models(draw):
    """Models over DIFF_THEORY: domains of one or two elements, zero to two
    local models per index, and random relations between every pair."""
    domains = {i: ("a", "b")[: draw(st.integers(1, 2))] for i in DIFF_THEORY.indices}
    model_sets = {}
    for i, dom in domains.items():
        def local():
            return make_local_model(
                dom,
                preds={
                    p: draw(st.sets(st.sampled_from(list(product(dom, repeat=k)))))
                    for p, k in DIFF_THEORY.signatures[i].preds
                },
            )

        model_sets[i] = tuple(local() for _ in range(draw(st.integers(0, 2))))
    relations = {
        (i, j, None): frozenset(draw(st.sets(st.sampled_from(list(product(domains[i], domains[j]))))))
        for i in domains
        for j in domains
        if i != j
    }
    return DfolModel(domains, model_sets, relations)


def test_differential_rules_cover_a_six_slot_rule_and_every_property():
    assert max(len(_rule_slots(r)) for r in DIFF_RULES) >= 6
    origins = {r.origin.partition("(")[0] for r in DIFF_RULES if r.origin}
    assert origins == set(RelationProperty.ARITIES)


def test_magic_box_rules_match_naive_sweep():
    rules = parse_theory((FIXTURES / "magicbox.dfol").read_text()).rules
    m2_empty = make_local_model(DOM2, consts=dict(M2.consts))
    for M in (mbox_model(), mbox_model(model_sets={"1": (M1,), "2": (m2_empty,)})):
        for rule in rules:
            assert satisfies_bridge_rule(M, rule) == _naive_bridge_rule(M, rule), render_bridge_rule(rule)


@settings(max_examples=150, deadline=None)
@given(M=small_models())
def test_bridge_rule_check_matches_naive_sweep(M):
    for rule in DIFF_RULES:
        assert satisfies_bridge_rule(M, rule) == _naive_bridge_rule(M, rule), render_bridge_rule(rule)


@settings(max_examples=150, deadline=None)
@given(M=small_models())
def test_axiom_check_matches_naive_sweep(M):
    for ax in DIFF_AXIOMS:
        assert satisfies_axiom(M, ax) == _naive_axiom(M, ax), ax


# conclusions whose quantifiers run after, or around, a read of an arrow
# variable found by extension search, and premises that shadow a slot
SLOT_RULES = [
    parse_bridge_rule_text(DIFF_THEORY, text)
    for text in (
        "1: p(x) ==> 2: (exists y. ~s(y)) & s(x^<1)",
        "1: p(x) ==> 2: exists y. ~(y = x^<1)",
        "1: (exists x. q(x)) & p(x) ==> 2: forall y. s(y) | t(x^<1) & (exists x. ~t(x))",
    )
]


def test_conclusion_quantifiers_keep_the_extension_slots():
    M = DfolModel(
        {"1": ("a",), "2": ("a", "b"), "3": ("a",)},
        {
            "1": (make_local_model(("a",), preds={"p": [("a",)]}),),
            "2": (make_local_model(("a", "b"), preds={"s": [("a",)]}),),
        },
        {("1", "2", None): frozenset({("a", "a")})},
    )
    assert satisfies_bridge_rule(M, SLOT_RULES[0]) == (True, None)
    assert _naive_bridge_rule(M, SLOT_RULES[0]) == (True, None)


@settings(max_examples=150, deadline=None)
@given(M=small_models())
def test_rules_with_quantified_conclusions_match_naive_sweep(M):
    for rule in SLOT_RULES:
        assert satisfies_bridge_rule(M, rule) == _naive_bridge_rule(M, rule), render_bridge_rule(rule)


# arrow slots bound from relation images: several conditions on one slot,
# labelled arrows on either side of their anchor, extension search through
# labelled relations, and relation pairs that leave the domains
IMAGE_RULES = [
    parse_bridge_rule_text(DIFF_THEORY, text)
    for text in (
        "1: p(x^>3), 2: s(x^>3) ==> 3: r(x, x)",
        "1: p(x^>2@E) ==> 2: s(x)",
        "1: p(x^>2), 1: q(x^>2@E) ==> 2: t(x)",
        "1: p(x), 2: s(x^<1@E) ==> 2: t(x^<1@E)",
        "1: p(x) ==> 2: s(x^<1@E)",
        "1: p(x) & q(y) ==> 3: r(x^<1, y^<1@E) | r(y^<1, y^<1)",
    )
]

IMAGE_AXIOMS = [
    parse_labeled_formula(DIFF_THEORY, text)
    for text in (
        "1: p(x^>2) & q(x^>2@E)",
        "3: r(x^<1, x^<2@E) -> r(y^<2@E, x^<1)",
    )
]


@st.composite
def image_models(draw):
    """Models over DIFF_THEORY whose relations, unlabelled and labelled
    `E`, may hold pairs with an element `z` outside both domains."""
    M = draw(small_models())
    relations = {}
    for i in M.domains:
        for j in M.domains:
            if i != j:
                pairs = list(product(M.domains[i] + ("z",), M.domains[j] + ("z",)))
                for label in (None, "E"):
                    relations[(i, j, label)] = frozenset(draw(st.sets(st.sampled_from(pairs))))
    return DfolModel(M.domains, M.model_sets, relations)


def test_image_rules_put_two_conditions_on_one_slot_and_use_labels():
    # two arrow slots on one anchor: the later slot carries two conditions
    anchors = [
        Counter((v.foreign, v.base) for _, v in _rule_slots(r) if isinstance(v, ArrowVar))
        for r in IMAGE_RULES
    ]
    assert any(2 in c.values() for c in anchors)
    labelled = {
        v
        for r in IMAGE_RULES
        for lf in (*r.premises, r.conclusion)
        for v in arrow_vars(lf.formula)
        if v.label
    }
    assert {v.direction for v in labelled} == {">", "<"}


@settings(max_examples=200, deadline=None)
@given(M=image_models())
def test_image_bound_slots_match_naive_sweep(M):
    for rule in IMAGE_RULES:
        assert satisfies_bridge_rule(M, rule) == _naive_bridge_rule(M, rule), render_bridge_rule(rule)
    for ax in IMAGE_AXIOMS:
        assert satisfies_axiom(M, ax) == _naive_axiom(M, ax), ax


def test_extensions_stay_inside_the_conclusion_domain():
    T = parse_theory(
        """
        index 1, 2
        signature 1 { pred p/1; }
        signature 2 { pred q/1; }
        bridge 1: p(x) ==> 2: q(x^<1)
        """
    )
    M = DfolModel(
        {"1": ("a",), "2": ("b",)},
        {
            "1": (make_local_model(("a",), preds={"p": [("a",)]}),),
            "2": (make_local_model(("b",), preds={"q": [("z",)]}),),
        },
        {("1", "2", None): frozenset({("a", "z")})},
    )
    (rule,) = T.rules
    expected = (False, Assignment([("1", Var("x"), "a")]))
    assert _naive_bridge_rule(M, rule) == expected
    assert satisfies_bridge_rule(M, rule) == expected


class _CountingRelation(frozenset):
    """A relation that counts its membership tests."""

    tests = 0

    def __contains__(self, pair):
        self.tests += 1
        return super().__contains__(pair)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_an_arrow_slot_is_not_swept_over_its_whole_domain(n):
    T = parse_theory("index 1, 2\nsignature 1 { pred p/1; }\nsignature 2 { pred p/1; }")
    rule = parse_bridge_rule_text(T, "1: p(x^>2) ==> 2: p(x)")
    dom = tuple(f"e{k:03d}" for k in range(n))
    everywhere = make_local_model(dom, preds={"p": [(e,) for e in dom]})
    identity = _CountingRelation((e, e) for e in dom)
    M = DfolModel(
        {"1": dom, "2": dom},
        {"1": (everywhere,), "2": (everywhere,)},
        {("1", "2", None): identity},
    )
    assert satisfies_bridge_rule(M, rule) == (True, None)
    assert identity.tests <= n


@pytest.mark.parametrize("n", [50, 100, 200])
def test_enumeration_does_not_sweep_an_arrow_slot_over_its_whole_domain(n):
    T = parse_theory("index 1, 2\nsignature 1 { pred p/1; }")
    formulas = [parse_labeled_formula(T, "1: p(x^>2)")]
    dom = tuple(f"e{k:03d}" for k in range(n))
    identity = _CountingRelation((e, e) for e in dom)
    M = DfolModel({"1": dom, "2": dom}, {}, {("1", "2", None): identity})
    got = list(enumerate_admissible(M, formulas))
    assert identity.tests <= n
    assert len(got) == n
    assert got == list(_naive_sweep(M, _variables_of(formulas)))


# formula sets for enumeration: one arrow slot with two conditions, labelled
# arrows on either side of their anchor, an arrow next to a plain variable
ENUM_FORMULA_SETS = [
    [parse_labeled_formula(DIFF_THEORY, text) for text in texts]
    for texts in (
        ("1: p(x^>2)",),
        ("1: p(x^>3)", "2: s(x^>3)"),
        ("1: p(x^>2@E) & q(y)",),
        ("3: r(x^<1, x^<2@E) -> r(y^<2@E, x^<1)",),
        ("1: p(x) & q(x^>2)", "2: t(x^<1@E)"),
    )
]


@settings(max_examples=200, deadline=None)
@given(M=image_models())
def test_enumeration_matches_naive_sweep(M):
    for formulas in ENUM_FORMULA_SETS:
        expected = list(_naive_sweep(M, _variables_of(formulas)))
        assert list(enumerate_admissible(M, formulas)) == expected, formulas


# ---------------------------------------------------------------------------
# the nesting limit: evaluation recurses once per level, as the parser does
# ---------------------------------------------------------------------------

DEEP_THEORY = parse_theory("index 1\nsignature 1 { const c; pred p/1; }")


def _deepest_accepted(make) -> int:
    """The largest n for which parse_formula accepts make(n), found by
    bisection at this test's stack depth."""
    lo, hi = 1, 1000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_formula(DEEP_THEORY, "1", make(mid))
            lo = mid
        except SyntaxError_:
            hi = mid - 1
    return lo


@pytest.mark.parametrize(
    "make",
    [
        lambda n: "~" * n + "p(c)",
        lambda n: "(" * n + "p(c)" + ")" * n,
        lambda n: "exists y. " * n + "p(c)",
        lambda n: "forall y. " * n + "p(c)",
    ],
    ids=["negations", "parentheses", "exists", "forall"],
)
@pytest.mark.parametrize("holds", [True, False])
def test_the_deepest_parsed_formulas_evaluate(make, holds):
    n = _deepest_accepted(make)
    assert n < 1000
    phi = parse_formula(DEEP_THEORY, "1", make(n))
    # one element, so that a chain of n quantifiers takes n steps, not 2^n
    m = make_local_model(("a",), consts={"c": "a"}, preds={"p": [("a",)] if holds else []})
    # the reference recurses up to three frames per quantifier
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3 * n)
    try:
        expected = _reference_satisfies_local(m, phi, {})
    finally:
        sys.setrecursionlimit(limit)
    assert satisfies_local(m, phi, {}) is expected
    T = dataclasses.replace(DEEP_THEORY, axioms=(LabeledFormula("1", phi),))
    M = DfolModel({"1": m.domain}, {"1": (m,)}, {})
    assert check_theory(T, M).ok is expected


def test_theories_with_kept_plans_pickle_and_copy():
    # check_theory keeps a compiled plan on every rule and axiom; its
    # closures cannot be pickled, so pickles and copies leave it out
    T = parse_theory((FIXTURES / "magicbox.dfol").read_text())
    M = load_model(json.loads((FIXTURES / "magicbox.json").read_text()))
    report = check_theory(T, M)
    assert all("_plan" in vars(x) for x in (*T.rules, *T.axioms))
    for copied in (pickle.loads(pickle.dumps(T)), copy.deepcopy(T)):
        assert copied == T
        assert not any("_plan" in vars(x) for x in (*copied.rules, *copied.axioms))
        assert check_theory(copied, M) == report


def test_plans_compile_once_per_rule_object(monkeypatch):
    T = parse_theory((FIXTURES / "magicbox.dfol").read_text())
    M = load_model(json.loads((FIXTURES / "magicbox.json").read_text()))
    built = Counter()
    init = semantics._RulePlan.__init__

    def counting(self, *args):
        built["plans"] += 1
        init(self, *args)

    monkeypatch.setattr(semantics._RulePlan, "__init__", counting)
    for _ in range(3):
        check_theory(T, M)
    assert built["plans"] == len(T.rules) + len(T.axioms)
