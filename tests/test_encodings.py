"""Encoder tests: negation and `true` in the qml and qlc dialects, which
reach every connective of the shared formula traversal."""

from __future__ import annotations

import pytest

from dfol import (
    And,
    Atom,
    BoxF,
    Const,
    Falsum,
    Implies,
    IstF,
    Not,
    Or,
    RelationProperty,
    SyntaxError_,
    Var,
    bridge_rules_for_property,
    encode_text,
    parse_qlc,
    parse_qml,
    parse_theory,
    qml_depth,
    render_theory,
)


def property_rules(kind: str, *indices: str) -> int:
    return len(bridge_rules_for_property(RelationProperty(kind, indices)))


def reparsed_rule_count(encoded) -> int:
    return len(parse_theory(render_theory(encoded.theory)).rules)


QML_SIG = "signature { const a; pred p/1; }\n"

# k1, k2 and a are rigid designators both ways; fun, tot and inj in both
# directions and one inv make the two context domains isomorphic
QLC_HEADER = "contexts k1, k2\nsignature { const a; pred p/1; }\n"
QLC_FIXED_RULES = 2 * 3 + sum(
    property_rules(kind, "k1", "k2") for kind in ("fun", "tot", "inj")
) * 2 + property_rules("inv", "k1", "k2")


def test_qml_negated_atom_stays_at_index_zero():
    text = QML_SIG + "formula ~p(a)\n"
    (f,) = parse_qml(text).formulas
    assert qml_depth(f) == 0
    enc = encode_text("qml", text)
    assert enc.theory.indices == ("0",)
    assert [ax.formula for ax in enc.theory.axioms] == [Not(Atom("p", (Const("a"),)))]
    assert reparsed_rule_count(enc) == 0


def test_qml_box_over_negation():
    text = QML_SIG + "formula box ~p(a)\n"
    (f,) = parse_qml(text).formulas
    assert qml_depth(f) == 1
    enc = encode_text("qml", text)
    assert enc.theory.indices == ("0", "1")
    # unboxing and necessitation for the one box, `tot 1 0` for the
    # default increasing domains
    assert reparsed_rule_count(enc) == 2 + property_rules("tot", "1", "0")
    (box_name,) = [fresh for fresh, _ in enc.names]
    assert "box ~p(a)" in enc.name_map()[box_name]


def test_qml_depth_counts_boxes_under_every_connective():
    text = QML_SIG + "formula ~(true & box ~box p(a)) | forall x. box p(x)\n"
    (f,) = parse_qml(text).formulas
    assert qml_depth(f) == 2
    enc = encode_text("qml", text)
    assert enc.theory.indices == ("0", "1", "2")


def test_qlc_negated_ist():
    text = QLC_HEADER + "formula k1: ~ist(k2, p(a))\n"
    enc = encode_text("qlc", text)
    (ax,) = enc.theory.axioms
    assert ax.index == "k1"
    assert isinstance(ax.formula, Not) and ax.formula.body.pred == "ist"
    # the entering and the exiting rule for the one named formula
    assert reparsed_rule_count(enc) == 2 + QLC_FIXED_RULES


def test_qlc_ist_of_true():
    text = QLC_HEADER + "formula k1: ist(k2, true)\n"
    enc = encode_text("qlc", text)
    (wff,) = [fresh for fresh, _ in enc.names]
    assert enc.name_map()[wff] == "names the formula ~false"
    conclusions = [r.conclusion for r in enc.theory.rules if r.conclusion.index == "k2"]
    assert any(lf.formula == Not(Falsum()) for lf in conclusions)
    assert reparsed_rule_count(enc) == 2 + QLC_FIXED_RULES


# ---------------------------------------------------------------------------
# qml and qlc formula trees, which the fresh names are hashed from
# ---------------------------------------------------------------------------

PA = Atom("p", (Const("a"),))


def qml_formula(body: str):
    (f,) = parse_qml(QML_SIG + f"formula {body}\n").formulas
    return f


def qlc_formula(body: str):
    ((_, f),) = parse_qlc(QLC_HEADER + f"formula k1: {body}\n").formulas
    return f


@pytest.mark.parametrize("parse", [qml_formula, qlc_formula], ids=["qml", "qlc"])
def test_modal_chains_nest_to_the_left(parse):
    assert parse("p(a) & p(a) & p(a)") == And(And(PA, PA), PA)
    assert parse("p(a) | p(a) | p(a)") == Or(Or(PA, PA), PA)
    assert parse("p(a) | p(a) & p(a) -> p(a) -> p(a)") == Implies(
        Or(PA, And(PA, PA)), Implies(PA, PA)
    )
    assert parse("true") == Not(Falsum())


def test_qml_box_takes_bindings_or_backtracks_to_a_plain_box():
    assert qml_formula("box(x = a) p(x)") == BoxF(Atom("p", (Var("x"),)), (("x", Const("a")),))
    assert qml_formula("box (p(a))") == BoxF(PA)


def test_qlc_reads_ist_and_rejects_box():
    assert qlc_formula("ist(k2, p(a)) & ~ist(k1, true)") == And(
        IstF("k2", PA), Not(IstF("k1", Not(Falsum())))
    )
    with pytest.raises(SyntaxError_, match="box is not part of this dialect"):
        qlc_formula("box p(a)")
    f, depth = qlc_formula(" & ".join(["p(a)"] * 1000)), 0
    while isinstance(f, And):
        f, depth = f.lhs, depth + 1
    assert (f, depth) == (PA, 999)
