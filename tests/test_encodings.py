"""Encoder tests: negation and `true` in the qml and qlc dialects, which
reach every connective of the shared formula traversal; errors at the
user's input; long chains and deep concepts; and the text of every
encoding parsing back to its theory, the same under any string-hash seed."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol import (
    EncodeError,
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
from dfol import encodings
from dfol.syntax import TokenStream, tokenize


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


# ---------------------------------------------------------------------------
# errors point into the user's input, not into the generated theory
# ---------------------------------------------------------------------------

SIG_FQR = "signature { func f/1; pred p/1, q/1, r/0; }\n"


@pytest.mark.parametrize(
    "dialect, text, line, col",
    [
        ("qml", SIG_FQR + "formula p(f)\n", 2, 12),
        ("qml", SIG_FQR + "formula p(q)\n", 2, 11),
        ("qml", SIG_FQR + "formula p(r)\n", 2, 11),
        ("qml", SIG_FQR + "formula p(7)\n", 2, 11),
        ("qlc", "contexts k1, k2\n" + SIG_FQR + "formula k1: ist(k2, p(f))\n", 3, 24),
        ("ddl", "ontology 1 { concepts C; individuals C; }\n", 1, 38),
        ("ddl", "ontology 1 {\n  concepts 7;\n  axiom 7 subclassof 7;\n}\n", 2, 12),
        ("ddl", "ontology 1 { concepts C; }\ncompose 1 1 2\n", 2, 1),
    ],
)
def test_errors_name_a_position_in_the_input(dialect, text, line, col):
    with pytest.raises(SyntaxError_) as err:
        encode_text(dialect, text)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize(
    "dialect, text, message",
    [
        # a context is a constant of every context's signature
        ("qlc", "contexts p, k2\nsignature { pred p/1; }\nformula k2: p(p)\n", "p names two"),
        ("qlc", "contexts k1, k2\nformula k1: true\nsignature { func k2/1; }\n", "k2 names two"),
        # the encoder's variables are x and y
        ("ddl", "ontology 1 { concepts x, D; axiom x subclassof D; }\n", "variable x"),
        ("ddl", "ontology 1 { concepts C; individuals x; axiom C subclassof C; }\n", "variable x"),
        ("ddl", "ontology 1 { concepts C; }\ncompose 1 2 3\n", "unknown ontology '2'"),
    ],
)
def test_clashes_in_the_built_theory_are_encode_errors(dialect, text, message):
    with pytest.raises(EncodeError, match=message):
        encode_text(dialect, text)


def test_repeats_of_one_symbol_collapse():
    enc = encode_text("ddl", "ontology 1 { concepts C, C; concepts C; }\n")
    assert enc.theory.signatures["1"].preds == (("C", 1),)
    text = "contexts a, k2, a2\nsignature { const a, a2; pred p/1; }\nformula k2: p(a)\n"
    assert encode_text("qlc", text).theory.signatures["k2"].consts == ("a", "a2", "k2")


def test_qml_keeps_completeness_at_every_index():
    enc = encode_text("qml", "signature { const a; complete pred p/1; }\nformula box box p(a)\n")
    assert enc.theory.indices == ("0", "1", "2")
    assert all(sig.is_complete("pred", "p") for sig in enc.theory.signatures.values())


def test_qlc_writes_each_rigid_designator_rule_once():
    # the context a is also a declared constant: one rule per direction for
    # each of a and k2, plus the entering and the exiting rule of ist(a, p(a))
    text = "contexts a, k2\nsignature { const a; pred p/1; }\nformula k2: ist(a, p(a))\n"
    written = [r for r in encode_text("qlc", text).theory.rules if r.origin is None]
    assert len(written) == len(set(written)) == 6


def test_a_context_name_reads_as_a_constant():
    text = "contexts k1, k2\nsignature { pred p/1; }\nformula k1: ist(k2, p(k2))\n"
    (ax,) = encode_text("qlc", text).theory.axioms
    # p(k2) has no free variable, so its fresh name is a constant
    _, wff = ax.formula.args
    assert isinstance(wff, Const) and wff.name.startswith("wff_")


# ---------------------------------------------------------------------------
# long & chains
# ---------------------------------------------------------------------------


def chain(n: int) -> str:
    return " & ".join(["p(a)"] * n)


@pytest.mark.parametrize(
    "dialect, text",
    [("qml", QML_SIG + f"formula {chain(300)}\n"), ("qlc", QLC_HEADER + f"formula k1: {chain(300)}\n")],
    ids=["qml", "qlc"],
)
def test_a_300_conjunct_chain_encodes(dialect, text):
    (ax,) = encode_text(dialect, text).theory.axioms
    f, depth = ax.formula, 0
    while isinstance(f, And):
        f, depth = f.lhs, depth + 1
    assert (f, depth) == (PA, 299)


def test_a_900_conjunct_chain_under_a_box_encodes():
    text = QML_SIG + f"formula box ({chain(900)})\n"
    assert qml_depth(parse_qml(text).formulas[0]) == 1
    enc = encode_text("qml", text)
    assert [name for name, _ in enc.names] == [ax.formula.pred for ax in enc.theory.axioms]


def test_900_negations_under_a_box_encode():
    enc = encode_text("qml", QML_SIG + "formula box " + "~" * 900 + "p(a)\n")
    ((_, meaning),) = enc.names
    assert meaning == f"box {'~' * 900}p(a) (index 1)"


@pytest.mark.parametrize(
    "dialect, text",
    [
        ("qml", QML_SIG + f"formula box ({chain(10000)})\n"),
        ("qlc", QLC_HEADER + f"formula k1: ist(k2, {chain(10000)})\n"),
    ],
    ids=["qml-box", "qlc-ist"],
)
def test_a_10000_conjunct_chain_under_a_box_or_ist_encodes(dialect, text):
    # the chain is the body the fresh name stands for
    enc = encode_text(dialect, text)
    (ax,) = enc.theory.axioms
    ((fresh, _),) = enc.names
    assert (ax.formula.pred if dialect == "qml" else ax.formula.args[1].name) == fresh
    bodies = [r.conclusion.formula for r in enc.theory.rules if r.origin is None]
    f, depth = next(b for b in bodies if isinstance(b, And)), 0
    while isinstance(f, And):
        f, depth = f.lhs, depth + 1
    assert (f, depth) == (PA, 9999)


# ---------------------------------------------------------------------------
# deep concepts in the description-logic dialects
# ---------------------------------------------------------------------------

BLOCK = {"ddl": "ontology", "econn": "ontology", "pdl": "package"}


def concept_axiom(dialect: str, concept: str) -> str:
    block = BLOCK[dialect]
    return f"{block} 1 {{ concepts C; axiom {concept} subclassof C; }}\n{block} 2 {{ concepts D; }}\n"


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("dialect", sorted(BLOCK))
def test_long_and_or_chains_and_negations_encode(dialect, n):
    for concept, connective in [
        (" and ".join(["C"] * n), And),
        (" or ".join(["C"] * n), Or),
        ("not " * n + "C", Not),
    ]:
        (ax,) = encode_text(dialect, concept_axiom(dialect, concept)).theory.axioms
        f, depth = ax.formula.body.lhs, 0
        while isinstance(f, connective):
            f, depth = (f.body if connective is Not else f.lhs), depth + 1
        assert depth == (n if connective is Not else n - 1)
        assert f == Atom("C", (Var("x"),))


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("dialect", sorted(BLOCK))
def test_parentheses_nested_too_deeply_are_a_syntax_error(dialect, n):
    text = concept_axiom(dialect, "(" * n + "C" + ")" * n)
    with pytest.raises(SyntaxError_, match="nested too deeply") as err:
        encode_text(dialect, text)
    assert err.value.line == 1 and err.value.col > len(f"{BLOCK[dialect]} 1 {{ concepts C; axiom ")


def test_a_3000_conjunct_concept_compares_and_hashes():
    # a parsed concept is a formula, so == and hash walk it with explicit stacks
    text = concept_axiom("ddl", " and ".join(["C"] * 3000))
    assert encodings.parse_ddl(text) == encodings.parse_ddl(text)
    assert isinstance(hash(encodings.parse_ddl(text)), int)


# A recursive concept tree, its renderer and its standard translation: the
# reference the concept parser is checked against.


@dataclass(frozen=True)
class CName:
    name: str


@dataclass(frozen=True)
class CNot:
    inner: object


@dataclass(frozen=True)
class CAnd:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class COr:
    lhs: object
    rhs: object


def _reference_concept_formula(c, t):
    if isinstance(c, CName):
        return Atom(c.name, (t,))
    if isinstance(c, CNot):
        return Not(_reference_concept_formula(c.inner, t))
    if isinstance(c, CAnd):
        return And(_reference_concept_formula(c.lhs, t), _reference_concept_formula(c.rhs, t))
    return Or(_reference_concept_formula(c.lhs, t), _reference_concept_formula(c.rhs, t))


def _reference_render_concept(c, ctx=0):
    # precedence: or=0 < and=1 < not=2
    if isinstance(c, CName):
        return c.name
    if isinstance(c, CNot):
        return "not " + _reference_render_concept(c.inner, 2)
    if isinstance(c, CAnd):
        s = f"{_reference_render_concept(c.lhs, 1)} and {_reference_render_concept(c.rhs, 2)}"
        return f"({s})" if ctx > 1 else s
    s = f"{_reference_render_concept(c.lhs, 0)} or {_reference_render_concept(c.rhs, 1)}"
    return f"({s})" if ctx > 0 else s


CONCEPTS = st.recursive(
    st.sampled_from(["C", "D", "E"]).map(CName),
    lambda inner: st.one_of(
        inner.map(CNot),
        st.tuples(inner, inner).map(lambda p: CAnd(*p)),
        st.tuples(inner, inner).map(lambda p: COr(*p)),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(c=CONCEPTS, ctx=st.integers(0, 2))
def test_concept_walks_match_the_recursive_reference(c, ctx):
    text = _reference_render_concept(c, ctx)
    parsed = encodings._parse_concept(TokenStream(tokenize(text)))
    assert parsed == _reference_concept_formula(c, Var("x"))


# ---------------------------------------------------------------------------
# the text of every encoding parses back to its theory
# ---------------------------------------------------------------------------

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generators  # noqa: E402


def docstring_examples() -> list[str]:
    """The indented examples after `::` in the encodings module docstring."""
    examples = []
    for chunk in encodings.__doc__.split("::\n\n")[1:]:
        lines = takewhile(lambda line: not line or line.startswith("    "), chunk.splitlines())
        examples.append("\n".join(lines) + "\n")
    return examples


ROUND_TRIP_INPUTS = [
    *zip(("ddl", "econn"), docstring_examples()),
    *(
        (dialect, generators.encoder_input(random.Random(seed), dialect, n, negate)[0])
        for seed in (1, 31)
        for dialect in ("ddl", "econn", "pdl", "qml", "qlc")
        for n in (1, 3, 10)
        for negate in (False, True)
    ),
    (
        "econn",
        "ontology 1 { concepts Person, Rich; axiom Rich subclassof Person; }\n"
        "ontology 2 { concepts House, Big; }\nlink Own from 1 to 2\n"
        "axiom 1: Rich subclassof atleast 2 Own. Big or House\n"
        "axiom 1: Person subclassof atmost 2 Own. House\n"
        "axiom 1: Rich subclassof atleast 3 Own. not Big\n",
    ),
    (
        "ddl",
        "ontology 1 { concepts C; roles R; individuals a; }\n"
        "ontology 2 { concepts D; roles S; individuals b; }\n"
        "mapping 1: R into 2: S\nmapping 1: a onto 2: b\nmapping 2: D onto 1: not C and C\n",
    ),
    (
        "pdl",
        "package 1 { concepts C; roles R; individuals a; }\n"
        "package 2 { concepts D; axiom D subclassof D; }\npackage 3 { concepts E; }\n"
        "import 1: C into 2\nimport 1: R into 2\nimport 1: a into 2\nimport 1: C into 3\nimport 2: D into 3\n",
    ),
    ("qml", "signature { const a; pred p/1, q/0; }\nformula box(x = a) p(x)\nformula forall x. box box (p(x) | ~q)\n"),
    ("qml", "semantics counterpart\nsignature { const a; func f/1; pred p/1; }\nformula box box box p(f(a))\n"),
    ("qml", "domains constant\nsignature { const a; pred p/1; }\nformula box p(a) & box ~p(a) & true\n"),
    (
        "qlc",
        "contexts k1, k2, k3\nsignature { const a; func f/1; pred p/1, q/2; }\n"
        "formula k1: forall x. ist(k2, p(x)) -> ist(k3, q(x, f(a)))\n"
        "formula k2: ist(k1, true) & ~ist(k3, ist(k1, p(a)))\n",
    ),
]


def test_round_trip_inputs_cover_every_dialect_and_both_docstring_examples():
    assert len(docstring_examples()) == 2
    assert {dialect for dialect, _ in ROUND_TRIP_INPUTS} == set(encodings.DIALECTS)


@pytest.mark.parametrize("dialect, text", ROUND_TRIP_INPUTS)
def test_the_text_parses_back_to_the_theory(dialect, text):
    enc = encode_text(dialect, text)
    assert enc.theory.rules
    assert parse_theory(enc.text) == enc.theory
    header = enc.text.split("\nindex ")[0].splitlines()
    assert header[0] == f"# encoded {dialect} input"
    sources = [line.strip() for line in text.splitlines() if line.startswith("formula")]
    assert header[1:] == [f"# {fresh} = {meaning}" for fresh, meaning in enc.names] + [
        f"# {src}" for src in sources
    ]


def encode_in_subprocess(hash_seed: int, inputs: list[tuple[str, str]]) -> list[str]:
    """Each input's encoded text, or its EncodeError, from a fresh
    interpreter with the given string-hash seed."""
    script = (
        "import json, sys\n"
        "from dfol import EncodeError, encode_text\n"
        "out = []\n"
        "for dialect, text in json.load(sys.stdin):\n"
        "    try:\n"
        "        out.append(encode_text(dialect, text).text)\n"
        "    except EncodeError as e:\n"
        "        out.append(f'EncodeError: {e}')\n"
        "json.dump(out, sys.stdout)\n"
    )
    src = str(Path(encodings.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(inputs), env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


def test_the_encoded_text_does_not_depend_on_the_hash_seed():
    # the string-hash seeds 0 and 1 iterate the set {Foo, Bar} in different
    # orders; the unknown concept named is the first in sorted order
    two_unknown = ("ddl", "ontology 1 { concepts C; axiom Foo and Bar subclassof C; }\n")
    inputs = [*ROUND_TRIP_INPUTS, two_unknown]
    first, second = (encode_in_subprocess(seed, inputs) for seed in (0, 1))
    assert first == second
    assert first[:-1] == [encode_text(dialect, text).text for dialect, text in ROUND_TRIP_INPUTS]
    assert first[-1] == "EncodeError: unknown concept 'Bar' in ontology 1"
