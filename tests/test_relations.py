"""Domain-relation properties: emitted rule shapes, set-theoretic checks,
and the characterization (property holds iff the rules are satisfied)."""

from __future__ import annotations

from itertools import product
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol import relations
from dfol.relations import (
    bridge_rules_for_property,
    inconsistency_propagation_rule,
    relation_has_property,
    relation_preserves_order,
)
from dfol.semantics import DfolModel, make_local_model, satisfies_bridge_rule
from dfol.syntax import (
    ArrowVar,
    BridgeRule,
    Eq,
    Exists,
    LabeledFormula,
    Not,
    RelationProperty,
    SyntaxError_,
    Var,
    arrow_vars,
    parse_theory,
    render_bridge_rule,
)

T2 = parse_theory("index 1, 2")
T3 = parse_theory("index 1, 2, 3")


def shapes(kind: str, *idxs: str) -> list[str]:
    return [
        render_bridge_rule(r)
        for r in bridge_rules_for_property(RelationProperty(kind, idxs))
    ]


def test_rule_shapes_two_index():
    assert shapes("fun", "1", "2") == ["1: x^>2 = y^>2 ==> 2: x = y"]
    assert shapes("tot", "1", "2") == ["1: x = x ==> 2: exists y. y = x^<1"]
    assert shapes("sur", "1", "2") == ["2: x = x ==> 1: exists y. y = x^>2"]
    assert shapes("inj", "1", "2") == ["1: ~x^>2 = y^>2 ==> 2: ~x = y"]
    assert shapes("inv", "1", "2") == [
        "1: x = y^>2 ==> 2: y = x^>1",
        "2: x = y^>1 ==> 1: y = x^>2",
    ]
    assert shapes("congr", "1", "2") == [
        "1: x = v^>2, 1: y = v^>2, 1: x = w^>2 ==> 2: y^<1 = w"
    ]


def test_rule_shapes_three_index():
    assert shapes("com", "1", "2", "3") == [
        "2: x^<1 = z^>3 ==> 3: x^<1 = z",
        "1: x = z^>3 ==> 2: x^<1 = z^>3",
    ]
    assert shapes("euc", "1", "2", "3") == [
        "2: y = z^>3 ==> 1: y^>2 = z^>3",
        "1: y^>2 = z^>3 ==> 2: y = z^>3",
        "2: y = z^<3 ==> 1: y^>2 = z^>3",
        "1: y^>2 = z^>3 ==> 2: y = z^<3",
    ]


# ---------------------------------------------------------------------------
# the catalogue: parsed templates against the constructor reference
# ---------------------------------------------------------------------------


def _lf(index: str, formula) -> LabeledFormula:
    return LabeledFormula(index, formula)


def _reference_bridge_rules_for_property(p: RelationProperty) -> list[BridgeRule]:
    """The catalogue as constructor calls, before it became rule text: the
    reference the parsed templates are compared with.  Bridge rules
    characterizing p over nonempty local-model sets.

    fun/tot/sur/inj need one rule, inv and com two, euc four; congr's single
    rule is degenerate (its premises force the two source variables to
    coincide) and is emitted verbatim for completeness of the catalog.
    """
    kind = p.kind
    tag = f"{kind}({','.join(p.indices)})"

    def rule(premises: Iterable[LabeledFormula], conclusion: LabeledFormula, n: int) -> BridgeRule:
        return BridgeRule(tuple(premises), conclusion, origin=f"{tag}/{n}")

    if kind == "fun":
        i, j = p.indices
        return [
            rule(
                [_lf(i, Eq(ArrowVar("x", ">", j), ArrowVar("y", ">", j)))],
                _lf(j, Eq(Var("x"), Var("y"))),
                1,
            )
        ]
    if kind == "tot":
        i, j = p.indices
        return [
            rule(
                [_lf(i, Eq(Var("x"), Var("x")))],
                _lf(j, Exists("y", Eq(Var("y"), ArrowVar("x", "<", i)))),
                1,
            )
        ]
    if kind == "sur":
        i, j = p.indices
        return [
            rule(
                [_lf(j, Eq(Var("x"), Var("x")))],
                _lf(i, Exists("y", Eq(Var("y"), ArrowVar("x", ">", j)))),
                1,
            )
        ]
    if kind == "inj":
        i, j = p.indices
        return [
            rule(
                [_lf(i, Not(Eq(ArrowVar("x", ">", j), ArrowVar("y", ">", j))))],
                _lf(j, Not(Eq(Var("x"), Var("y")))),
                1,
            )
        ]
    if kind == "inv":
        i, j = p.indices
        return [
            rule(
                [_lf(i, Eq(Var("x"), ArrowVar("y", ">", j)))],
                _lf(j, Eq(Var("y"), ArrowVar("x", ">", i))),
                1,
            ),
            rule(
                [_lf(j, Eq(Var("x"), ArrowVar("y", ">", i)))],
                _lf(i, Eq(Var("y"), ArrowVar("x", ">", j))),
                2,
            ),
        ]
    if kind == "congr":
        i, j = p.indices
        return [
            rule(
                [
                    _lf(i, Eq(Var("x"), ArrowVar("v", ">", j))),
                    _lf(i, Eq(Var("y"), ArrowVar("v", ">", j))),
                    _lf(i, Eq(Var("x"), ArrowVar("w", ">", j))),
                ],
                _lf(j, Eq(ArrowVar("y", "<", i), Var("w"))),
                1,
            )
        ]
    if kind == "com":
        i, j, k = p.indices
        return [
            rule(
                [_lf(j, Eq(ArrowVar("x", "<", i), ArrowVar("z", ">", k)))],
                _lf(k, Eq(ArrowVar("x", "<", i), Var("z"))),
                1,
            ),
            rule(
                [_lf(i, Eq(Var("x"), ArrowVar("z", ">", k)))],
                _lf(j, Eq(ArrowVar("x", "<", i), ArrowVar("z", ">", k))),
                2,
            ),
        ]
    if kind == "euc":
        i, j, k = p.indices
        return [
            rule(
                [_lf(j, Eq(Var("y"), ArrowVar("z", ">", k)))],
                _lf(i, Eq(ArrowVar("y", ">", j), ArrowVar("z", ">", k))),
                1,
            ),
            rule(
                [_lf(i, Eq(ArrowVar("y", ">", j), ArrowVar("z", ">", k)))],
                _lf(j, Eq(Var("y"), ArrowVar("z", ">", k))),
                2,
            ),
            rule(
                [_lf(j, Eq(Var("y"), ArrowVar("z", "<", k)))],
                _lf(i, Eq(ArrowVar("y", ">", j), ArrowVar("z", ">", k))),
                3,
            ),
            rule(
                [_lf(i, Eq(ArrowVar("y", ">", j), ArrowVar("z", ">", k)))],
                _lf(j, Eq(Var("y"), ArrowVar("z", "<", k))),
                4,
            ),
        ]
    raise ValueError(f"unknown relation property {kind!r}")


@pytest.mark.parametrize("indices", [("1", "2", "3"), ("k2", "k1", "x"), ("a b", "forall", "0")])
@pytest.mark.parametrize("kind", sorted(RelationProperty.ARITIES))
def test_templates_give_the_reference_rules(kind, indices):
    p = RelationProperty(kind, indices[: RelationProperty.ARITIES[kind]])
    rules, expected = bridge_rules_for_property(p), _reference_bridge_rules_for_property(p)
    assert rules == expected
    assert [r.origin for r in rules] == [r.origin for r in expected]


def test_every_kind_has_templates_over_its_first_placeholders():
    assert relations._TEMPLATES.keys() == RelationProperty.ARITIES.keys()
    for kind, arity in RelationProperty.ARITIES.items():
        for rule in relations._RULES[kind]:
            used = set()
            for lf in (*rule.premises, rule.conclusion):
                used |= {lf.index} | {a.foreign for a in arrow_vars(lf.formula)}
            assert used == set(relations._PLACEHOLDERS[:arity]), (kind, render_bridge_rule(rule))


def test_a_property_needs_distinct_indices():
    with pytest.raises(ValueError, match="distinct"):
        RelationProperty("inv", ("1", "1"))
    with pytest.raises(ValueError, match="distinct"):
        RelationProperty("com", ("1", "2", "1"))
    # the parser checks before it builds the tag, so the error stays a
    # SyntaxError_ with a position
    with pytest.raises(SyntaxError_, match="distinct"):
        parse_theory("index 1, 2\nproperty inv 1 1\n")


def test_inconsistency_propagation_shape():
    rule = inconsistency_propagation_rule("2", "1")
    assert render_bridge_rule(rule) == "2: false ==> 1: false"


# ---------------------------------------------------------------------------
# set-theoretic checks
# ---------------------------------------------------------------------------


def two_index_model(r12, r21=(), dom1=("d1", "d2"), dom2=("e1", "e2")) -> DfolModel:
    m1, m2 = make_local_model(dom1), make_local_model(dom2)
    return DfolModel(
        {"1": dom1, "2": dom2},
        {"1": (m1,), "2": (m2,)},
        {("1", "2", None): frozenset(r12), ("2", "1", None): frozenset(r21)},
    )


def has(kind, M, *idxs):
    return relation_has_property(M, RelationProperty(kind, idxs))


def test_fun_check():
    assert has("fun", two_index_model([("d1", "e1")]), "1", "2")
    assert not has("fun", two_index_model([("d1", "e1"), ("d1", "e2")]), "1", "2")


def test_tot_check():
    assert has("tot", two_index_model([("d1", "e1"), ("d2", "e1")]), "1", "2")
    assert not has("tot", two_index_model([("d1", "e1")]), "1", "2")


def test_sur_check():
    assert has("sur", two_index_model([("d1", "e1"), ("d1", "e2")]), "1", "2")
    assert not has("sur", two_index_model([("d1", "e1")]), "1", "2")


def test_inj_check():
    assert has("inj", two_index_model([("d1", "e1"), ("d2", "e2")]), "1", "2")
    assert not has("inj", two_index_model([("d1", "e1"), ("d2", "e1")]), "1", "2")


def test_inv_check():
    assert has(
        "inv", two_index_model([("d1", "e1")], [("e1", "d1")]), "1", "2"
    )
    assert not has("inv", two_index_model([("d1", "e1")], []), "1", "2")


def test_congr_check():
    r = [("d1", "e1"), ("d2", "e1"), ("d1", "e2")]
    assert not has("congr", two_index_model(r), "1", "2")
    assert has("congr", two_index_model(r + [("d2", "e2")]), "1", "2")


def three_index_model(r12, r23, r13, r32=()) -> DfolModel:
    doms = {"1": ("d1", "d2"), "2": ("e1", "e2"), "3": ("f1", "f2")}
    return DfolModel(
        doms,
        {i: (make_local_model(doms[i]),) for i in doms},
        {
            ("1", "2", None): frozenset(r12),
            ("2", "3", None): frozenset(r23),
            ("1", "3", None): frozenset(r13),
            ("3", "2", None): frozenset(r32),
        },
    )


def test_com_check():
    M = three_index_model([("d1", "e1")], [("e1", "f1")], [("d1", "f1")])
    assert has("com", M, "1", "2", "3")
    M2 = three_index_model([("d1", "e1")], [("e1", "f1")], [])
    assert not has("com", M2, "1", "2", "3")
    M3 = three_index_model([], [], [("d1", "f1")])
    assert not has("com", M3, "1", "2", "3")


def test_euc_check():
    # join of r12 and r13 through shared pre-image d1 is {(e1,f1)}
    M = three_index_model(
        [("d1", "e1")], [("e1", "f1")], [("d1", "f1")], [("f1", "e1")]
    )
    assert has("euc", M, "1", "2", "3")
    M_missing_back = three_index_model(
        [("d1", "e1")], [("e1", "f1")], [("d1", "f1")], []
    )
    assert not has("euc", M_missing_back, "1", "2", "3")


# ---------------------------------------------------------------------------
# characterization: property <=> rules
# ---------------------------------------------------------------------------


def satisfies_all(M, kind, *idxs) -> bool:
    rules = bridge_rules_for_property(RelationProperty(kind, idxs))
    return all(satisfies_bridge_rule(M, r)[0] for r in rules)


def all_relations(src, tgt):
    pairs = list(product(src, tgt))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


def test_two_index_characterization_exhaustive_size_two():
    doms = [("d1",), ("d1", "d2")]
    codoms = [("e1",), ("e1", "e2")]
    for dom1, dom2 in product(doms, codoms):
        for r12 in all_relations(dom1, dom2):
            for r21 in all_relations(dom2, dom1):
                M = two_index_model(r12, r21, dom1, dom2)
                for kind in ("fun", "tot", "sur", "inj", "inv"):
                    assert has(kind, M, "1", "2") == satisfies_all(M, kind, "1", "2"), (
                        kind,
                        sorted(r12),
                        sorted(r21),
                    )


def test_com_characterization_exhaustive_size_two():
    dom = ("d1", "d2")
    doms = {"1": dom, "2": ("e1", "e2"), "3": ("f1", "f2")}
    for r12 in all_relations(doms["1"], doms["2"]):
        for r23 in all_relations(doms["2"], doms["3"]):
            for r13 in all_relations(doms["1"], doms["3"]):
                M = three_index_model(r12, r23, r13)
                assert has("com", M, "1", "2", "3") == satisfies_all(
                    M, "com", "1", "2", "3"
                ), (sorted(r12), sorted(r23), sorted(r13))


PAIRS_12 = st.sets(st.tuples(st.sampled_from(["d1", "d2"]), st.sampled_from(["e1", "e2"])))
PAIRS_13 = st.sets(st.tuples(st.sampled_from(["d1", "d2"]), st.sampled_from(["f1", "f2"])))
PAIRS_23 = st.sets(st.tuples(st.sampled_from(["e1", "e2"]), st.sampled_from(["f1", "f2"])))
PAIRS_32 = st.sets(st.tuples(st.sampled_from(["f1", "f2"]), st.sampled_from(["e1", "e2"])))


@settings(max_examples=150, deadline=None)
@given(r12=PAIRS_12, r23=PAIRS_23, r13=PAIRS_13, r32=PAIRS_32)
def test_euc_characterization_sampled(r12, r23, r13, r32):
    M = three_index_model(r12, r23, r13, r32)
    assert has("euc", M, "1", "2", "3") == satisfies_all(M, "euc", "1", "2", "3")


@settings(max_examples=100, deadline=None)
@given(
    r12=st.sets(
        st.tuples(
            st.sampled_from(["d1", "d2", "d3"]), st.sampled_from(["e1", "e2", "e3"])
        )
    ),
    r21=st.sets(
        st.tuples(
            st.sampled_from(["e1", "e2", "e3"]), st.sampled_from(["d1", "d2", "d3"])
        )
    ),
)
def test_two_index_characterization_sampled_size_three(r12, r21):
    dom1, dom2 = ("d1", "d2", "d3"), ("e1", "e2", "e3")
    M = two_index_model(r12, r21, dom1, dom2)
    for kind in ("fun", "tot", "sur", "inj", "inv"):
        assert has(kind, M, "1", "2") == satisfies_all(M, kind, "1", "2"), kind


@settings(max_examples=100, deadline=None)
@given(r12=PAIRS_12)
def test_congr_rule_needs_no_side_condition(r12):
    # the congruence rule discharges itself: the witness for the conclusion
    # arrow variable is the anchor value of w^>j, already in the relation
    M = two_index_model(r12)
    assert satisfies_all(M, "congr", "1", "2")


# ---------------------------------------------------------------------------
# order preservation
# ---------------------------------------------------------------------------


def test_order_preservation():
    order1 = {("d1", "d2")}
    order2 = {("e1", "e2")}
    up = two_index_model([("d1", "e1"), ("d2", "e2")])
    down = two_index_model([("d1", "e2"), ("d2", "e1")])
    assert relation_preserves_order(up, "1", "2", order1, order2)
    assert not relation_preserves_order(down, "1", "2", order1, order2)
