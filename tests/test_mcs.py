"""Tests for grounded equilibria of propositional multi-context systems."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol.mcs import (
    McsRule,
    PropFormatError,
    PropModelSet,
    PropSystem,
    _body_holds,
    equilibrium_json_text,
    equilibrium_to_json,
    fixpoint_steps,
    load_prop_system,
    local_reduction,
    minimal_model,
    parse_prop_system,
    render_equilibrium,
)
from dfol.syntax import And, Atom, Falsum, Implies, Not, Or

FIXTURES = Path(__file__).parent / "fixtures"


def sets(ms):
    return sorted(sorted(m) for m in ms)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_fixture():
    S = load_prop_system(FIXTURES / "twocontexts.mcs")
    assert S.contexts == ("1", "2")
    assert S.letters == {"1": ("p",), "2": ("q", "r")}
    assert S.axioms == {"1": (), "2": ()}
    assert [str(r) for r in S.rules] == [
        "1:p <- 2:q.",
        "2:q <- 1:p.",
        "2:r <- not(1:p).",
    ]


def test_parse_axioms_and_facts():
    S = parse_prop_system(
        """
        context a { letters x, y; axiom x -> y; axiom ~(x & y) | x; }
        rule a:x.
        """
    )
    assert len(S.axioms["a"]) == 2
    assert S.rules == (McsRule(head=("a", "x")),)


@pytest.mark.parametrize(
    "text",
    [
        "rule 1:p.",  # no contexts at all
        "context 1 { letters p; } context 1 { letters q; }",
        "context 1 { letters p, p; }",
        "context 1 { letters p; } rule 1:q.",
        "context 1 { letters p; } rule 2:p.",
        "context 1 { letters p; } rule not(1:p) <- 1:p.",
        "context 1 { letters p; axiom q; }",
        "context 1 { letters p; axiom forall x. p; }",
        "context 1 { widgets p; }",
        "context 1 { letters p; ",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(PropFormatError):
        parse_prop_system(text)


@pytest.mark.parametrize(
    "text", ["context 1 { letters false; }", "context forall { letters p; }"]
)
def test_keywords_as_names_are_format_errors(text):
    with pytest.raises(PropFormatError):
        parse_prop_system(text)


def test_format_errors_name_the_line_of_the_file():
    bad_rule = (
        "context 1 { letters p; }\n"
        "rule 1:p <- 1.\n"
        "context 2 { letters q; }\n"
        "rule 2:q.\n"
        "# the end\n"
    )
    with pytest.raises(PropFormatError, match="^line 2: "):
        parse_prop_system(bad_rule)
    bad_axiom = "context 1 {\n  letters p;\n  axiom p & ;\n}\n"
    with pytest.raises(PropFormatError, match="^line 3: "):
        parse_prop_system(bad_axiom)


def test_rule_atoms_are_tokens():
    spaced = parse_prop_system("context 1 { letters p; }\nrule 1 : p <- not ( 1 : p ).")
    assert spaced == parse_prop_system("context 1 { letters p; }\nrule 1:p <- not(1:p).")
    assert spaced.rules == (McsRule(head=("1", "p"), negative=(("1", "p"),)),)


def test_not_names_a_context_and_letters_may_follow_an_axiom():
    S = parse_prop_system(
        "context 1 { axiom p; letters p; }\n"
        "context not { letters q; }\n"
        "rule not:q <- 1:p.\n"
    )
    assert S.axioms["1"] == (Atom("p"),)
    assert S.rules == (McsRule(head=("not", "q"), positive=(("1", "p"),)),)


# ---------------------------------------------------------------------------
# The worked two-context example
# ---------------------------------------------------------------------------


def test_fixpoint_table():
    S = load_prop_system(FIXTURES / "twocontexts.mcs")
    steps = list(fixpoint_steps(S))
    assert len(steps) == 2
    assert sets(steps[0].models["1"]) == [[], ["p"]]
    assert sets(steps[0].models["2"]) == [[], ["q"], ["q", "r"], ["r"]]
    assert sets(steps[0].mc_models()) == [["not(1:p)", "not(2:q)", "not(2:r)"]]
    # only the nonmonotonic rule applies, filtering context 2 down to r
    assert sets(steps[1].models["1"]) == [[], ["p"]]
    assert sets(steps[1].models["2"]) == [["q", "r"], ["r"]]
    assert sets(steps[1].mc_models()) == [["not(1:p)", "not(2:q)"]]


def test_minimal_model_matches_table():
    S = load_prop_system(FIXTURES / "twocontexts.mcs")
    eq = minimal_model(S)
    assert sets(eq.models["1"]) == [[]]
    assert sets(eq.models["2"]) == [["r"]]
    assert sets(eq.mc_models()) == [["not(1:p)", "not(2:q)"]]
    assert render_equilibrium(eq) == (
        "M_1 = {{}}\nM_2 = {{r}}\nmc = {{not(1:p), not(2:q)}}"
    )


def test_equilibrium_json_is_stable():
    S = load_prop_system(FIXTURES / "twocontexts.mcs")
    text = equilibrium_json_text(minimal_model(S))
    assert text == equilibrium_json_text(minimal_model(S))
    assert equilibrium_to_json(minimal_model(S)) == {
        "contexts": {"1": [[]], "2": [["r"]]},
        "mc": [["not(1:p)", "not(2:q)"]],
    }


@pytest.mark.parametrize(
    "axiom", ["forall x. p", "q -> ~(exists y. p)", "p | x = y", "~(p & x = x)"]
)
def test_axioms_must_be_propositional_at_any_depth(axiom):
    with pytest.raises(PropFormatError, match="propositional"):
        parse_prop_system(f"context 1 {{ letters p, q; axiom {axiom}; }}")


def test_true_is_not_an_axiom_connective():
    with pytest.raises(PropFormatError, match="'true'"):
        parse_prop_system("context 1 { letters p; axiom p | true; }")


@pytest.mark.parametrize("depth", [300, 1000])
def test_deeply_nested_axiom_is_a_format_error(depth):
    with pytest.raises(PropFormatError, match="nested too deeply"):
        parse_prop_system(f"context 1 {{ letters p; axiom {'(' * depth}p{')' * depth}; }}")


def test_equilibrium_json_keeps_declaration_order():
    S = parse_prop_system(
        "context zeta { letters p; }\n"
        "context alpha { letters q; }\n"
        "rule alpha:q <- zeta:p.\n"
    )
    data = json.loads(equilibrium_json_text(minimal_model(S)))
    assert list(data["contexts"]) == ["zeta", "alpha"]
    assert list(data) == ["contexts", "mc"]


# ---------------------------------------------------------------------------
# Local reduction
# ---------------------------------------------------------------------------


def reduce_sets(system, **models):
    S = PropModelSet(
        system=system,
        models={c: frozenset(frozenset(m) for m in ms) for c, ms in models.items()},
    )
    return local_reduction(S)


ONE = PropSystem(
    contexts=("1",),
    letters={"1": ("p", "q", "r")},
    axioms={"1": ()},
    rules=(),
)


def test_local_reduction_examples():
    assert sets(reduce_sets(ONE, **{"1": [["r"], ["q", "r"]]}).models["1"]) == [["r"]]
    assert sets(reduce_sets(ONE, **{"1": [[]]}).models["1"]) == [[]]
    # incomparable assignments both survive
    assert sets(reduce_sets(ONE, **{"1": [["p"], ["q"]]}).models["1"]) == [
        ["p"],
        ["q"],
    ]


def test_fact_rule_matches_brute_force():
    S = parse_prop_system("context 1 { letters p; } rule 1:p.")
    eq = minimal_model(S)
    assert sets(eq.models["1"]) == [["p"]]
    # oracle: the fixpoint is the largest rule-closed family of
    # axiom-satisfying assignments
    universe = [frozenset(), frozenset({"p"})]
    closed = []
    for mask in range(4):
        cand = frozenset(universe[k] for k in range(2) if mask >> k & 1)
        if all("p" in m for m in cand):
            closed.append(cand)
    best = max(closed, key=len)
    assert sets(best) == [["p"]]


def test_inconsistent_context_empties_mc():
    # an unsatisfiable axiom empties the context, which exports the
    # inconsistency to the meta context; negative premises then hold
    # vacuously
    S = parse_prop_system(
        """
        context 1 { letters p; axiom p & ~p; }
        context 2 { letters q; }
        rule 2:q <- not(1:p).
        """
    )
    eq = minimal_model(S)
    assert sets(eq.models["1"]) == []
    assert sets(eq.mc_models()) == []
    assert sets(eq.models["2"]) == [["q"]]


def test_axioms_restrict_initial_candidates():
    S = parse_prop_system(
        """
        context 1 { letters p, q; axiom p | q; }
        """
    )
    steps = list(fixpoint_steps(S))
    assert sets(steps[0].models["1"]) == [["p"], ["p", "q"], ["q"]]
    assert sets(minimal_model(S).models["1"]) == [["p"], ["q"]]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LETTERS = {"1": ("a", "b"), "2": ("c",)}
ATOMS = [("1", "a"), ("1", "b"), ("2", "c")]


@st.composite
def small_systems(draw):
    rules = []
    for head, pos, neg in draw(
        st.lists(
            st.tuples(
                st.sampled_from(ATOMS),
                st.lists(st.sampled_from(ATOMS), max_size=3),
                st.lists(st.sampled_from(ATOMS), max_size=2),
            ),
            max_size=5,
        )
    ):
        rules.append(McsRule(head=head, positive=tuple(pos), negative=tuple(neg)))
    return PropSystem(
        contexts=("1", "2"),
        letters=LETTERS,
        axioms={"1": (), "2": ()},
        rules=tuple(rules),
    )


@st.composite
def model_sets(draw, system):
    models = {
        ctx: draw(
            st.frozensets(st.frozensets(st.sampled_from(system.letters[ctx])))
        )
        for ctx in system.contexts
    }
    return PropModelSet(system=system, models=models)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduction_is_idempotent_and_preserves_bodies(data):
    system = data.draw(small_systems())
    S = data.draw(model_sets(system))
    R = local_reduction(S)
    assert local_reduction(R).models == R.models
    for ctx in system.contexts:
        assert R.models[ctx] <= S.models[ctx]
        assert bool(R.models[ctx]) == bool(S.models[ctx])
    # reduction never changes whether a rule body holds, which is why it
    # preserves rule satisfaction
    for rule in system.rules:
        assert _body_holds(S, rule) == _body_holds(R, rule)


@settings(max_examples=100, deadline=None)
@given(small_systems())
def test_fixpoint_shrinks_and_closes(system):
    steps = list(fixpoint_steps(system))
    total = sum(len(steps[0].models[c]) for c in system.contexts)
    assert len(steps) <= total + 1
    for earlier, later in zip(steps, steps[1:]):
        for ctx in system.contexts:
            assert later.models[ctx] <= earlier.models[ctx]
    for candidate in (steps[-1], minimal_model(system)):
        for rule in system.rules:
            if _body_holds(candidate, rule):
                ctx, letter = rule.head
                assert all(letter in m for m in candidate.models[ctx])


# ---------------------------------------------------------------------------
# The fixpoint over frozensets, kept as the reference for the mask loop
# ---------------------------------------------------------------------------


def _reference_holds(f, true_letters):
    if isinstance(f, Atom):
        return f.pred in true_letters
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not _reference_holds(f.body, true_letters)
    if isinstance(f, And):
        return _reference_holds(f.lhs, true_letters) and _reference_holds(f.rhs, true_letters)
    if isinstance(f, Or):
        return _reference_holds(f.lhs, true_letters) or _reference_holds(f.rhs, true_letters)
    if isinstance(f, Implies):
        return not _reference_holds(f.lhs, true_letters) or _reference_holds(f.rhs, true_letters)
    raise AssertionError(f"non-propositional formula {f!r}")


def _reference_body_holds(S, rule):
    for ctx, p in rule.positive:
        if any(p not in m for m in S.models[ctx]):
            return False
    mc = S.mc_models()
    for ctx, p in rule.negative:
        if any(f"not({ctx}:{p})" not in m for m in mc):
            return False
    return True


def _reference_local_reduction(S):
    reduced = {
        ctx: frozenset(
            m for m in ms if not any(other != m and other <= m for other in ms)
        )
        for ctx, ms in S.models.items()
    }
    return PropModelSet(system=S.system, models=reduced)


def _reference_all_assignments(letters):
    n = len(letters)
    for mask in range(1 << n):
        yield frozenset(letters[k] for k in range(n) if mask >> k & 1)


def _reference_fixpoint_steps(system):
    current = PropModelSet(
        system=system,
        models={
            ctx: frozenset(
                m
                for m in _reference_all_assignments(system.letters[ctx])
                if all(_reference_holds(ax, m) for ax in system.axioms[ctx])
            )
            for ctx in system.contexts
        },
    )
    yield current
    while True:
        forced = {ctx: set() for ctx in system.contexts}
        for rule in system.rules:
            if _reference_body_holds(current, rule):
                forced[rule.head[0]].add(rule.head[1])
        nxt = PropModelSet(
            system=system,
            models={
                ctx: frozenset(m for m in ms if forced[ctx] <= m)
                for ctx, ms in current.models.items()
            },
        )
        if nxt.models == current.models:
            return
        yield nxt
        current = nxt


def _reference_minimal_model(system):
    for candidate in _reference_fixpoint_steps(system):
        pass
    return _reference_local_reduction(candidate)


def prop_formulas(letters):
    atoms = [Atom(p) for p in letters]
    return st.recursive(
        st.sampled_from(atoms + [Falsum()]),
        lambda inner: st.one_of(
            inner.map(Not),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
        ),
        max_leaves=5,
    )


@st.composite
def systems_with_axioms(draw):
    """small_systems() with zero to two axioms per context, among them
    unsatisfiable ones, so that contexts start or end up empty."""
    system = draw(small_systems())
    axioms = {}
    for ctx in system.contexts:
        letters = system.letters[ctx]
        contradiction = st.sampled_from([And(Atom(p), Not(Atom(p))) for p in letters])
        axioms[ctx] = tuple(
            draw(st.lists(st.one_of(prop_formulas(letters), contradiction), max_size=2))
        )
    return replace(system, axioms=axioms)


def assert_same_as_reference(system):
    steps = list(fixpoint_steps(system))
    expected = list(_reference_fixpoint_steps(system))
    assert len(steps) == len(expected)
    for got, want in zip(steps, expected):
        assert got.models == want.models
        assert list(got.models) == list(want.models)
        assert got.mc_models() == want.mc_models()
        assert equilibrium_json_text(got) == equilibrium_json_text(want)
    got, want = minimal_model(system), _reference_minimal_model(system)
    assert got.models == want.models
    assert got.mc_models() == want.mc_models()
    assert equilibrium_json_text(got) == equilibrium_json_text(want)
    assert render_equilibrium(got) == render_equilibrium(want)


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_fixpoint_matches_reference(system):
    assert_same_as_reference(system)


@settings(max_examples=200, deadline=None)
@given(systems_with_axioms())
def test_fixpoint_with_axioms_matches_reference(system):
    assert_same_as_reference(system)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_body_and_reduction_match_reference(data):
    system = data.draw(systems_with_axioms())
    S = data.draw(model_sets(system))
    for rule in system.rules:
        assert _body_holds(S, rule) == _reference_body_holds(S, rule)
    assert local_reduction(S).models == _reference_local_reduction(S).models


def test_fixture_matches_reference():
    assert_same_as_reference(load_prop_system(FIXTURES / "twocontexts.mcs"))


def test_negative_rule_fires_once_another_context_empties():
    # 2:q <- not(1:p) is blocked while 1:p holds everywhere; the fact 3:r
    # then empties context 3 against its axiom, the meta context becomes
    # empty, and the negative premise holds vacuously one step later
    S = parse_prop_system(
        """
        context 1 { letters p; axiom p; }
        context 2 { letters q; }
        context 3 { letters r; axiom ~r; }
        rule 3:r.
        rule 2:q <- not(1:p).
        """
    )
    steps = list(fixpoint_steps(S))
    assert [sets(s.models["2"]) for s in steps] == [[[], ["q"]], [[], ["q"]], [["q"]]]
    assert sets(steps[1].models["3"]) == [] and steps[1].mc_models() == frozenset()
    assert_same_as_reference(S)


def _chain(k):
    cs = [f"c{i}" for i in range(1, k + 1)]
    lines = [f"context {c} {{ letters p, q; }}" for c in cs]
    lines.append(f"rule {cs[0]}:p.")
    lines += [f"rule {cs[i + 1]}:p <- {cs[i]}:p." for i in range(k - 1)]
    lines += [f"rule {cs[i + 1]}:q <- not({cs[i]}:p)." for i in range(k - 1)]
    return parse_prop_system("\n".join(lines))


def test_chain_forces_one_context_per_step():
    # every q is forced in the first step, then p moves one context per
    # step: 201 candidates for 200 contexts, each step re-checking only
    # the rules that read the context it changed
    S = _chain(200)
    steps = list(fixpoint_steps(S))
    assert len(steps) == 201
    for k, step in enumerate(steps[1:], start=1):
        assert all("p" in m for m in step.models[f"c{k}"])
        assert k == 200 or any("p" not in m for m in step.models[f"c{k + 1}"])
    data = equilibrium_to_json(minimal_model(S))
    assert data["contexts"]["c1"] == [["p"]]
    assert all(data["contexts"][f"c{i}"] == [["p", "q"]] for i in range(2, 201))
    assert data["mc"] == [["not(c1:q)"]]


def test_chain_matches_reference():
    assert_same_as_reference(_chain(12))


def test_unchanged_contexts_share_their_frozensets():
    # after the first step only the context that p reaches changes; every
    # other context keeps the frozenset of the candidate before
    steps = list(fixpoint_steps(_chain(6)))
    for k in range(2, len(steps)):
        earlier, later = steps[k - 1].models, steps[k].models
        assert [c for c in later if later[c] is not earlier[c]] == [f"c{k}"]

