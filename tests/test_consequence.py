"""Bounded model enumeration, logical consequence, and bridge-rule
entailment: canonical counts, counterexample shapes, cut, conservativity
over classical first-order consequence, and directionality."""

from __future__ import annotations

from itertools import combinations, permutations, product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol import (
    DfolModel,
    RelationProperty,
    SearchBound,
    Verdict,
    bridge_rules_for_property,
    check_theory,
    enumerate_models,
    entails_bridge_rule,
    logical_consequence,
    parse_bridge_rule_text,
    parse_labeled_formula,
    parse_theory,
    satisfies_bridge_rule,
    validate_model,
)
from dfol import consequence
from dfol.consequence import (
    _domain,
    _index_parts,
    _labels_of,
    _local_models,
    _permuted_local,
    _StagedSearch,
)
from dfol.semantics import _axiom_plan, _relation_key, _rule_plan
from dfol.syntax import (
    And,
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
    Theory,
    Var,
    arrow_vars,
)
from test_semantics import DIFF_AXIOMS, DIFF_RULES, DIFF_THEORY, IMAGE_AXIOMS, IMAGE_RULES, SLOT_RULES
from test_syntax import formulas, formulas_at_2

B11 = SearchBound(1, 1)
B12 = SearchBound(1, 2)
B22 = SearchBound(2, 2)

PQ_RULE = parse_theory(
    """
    index 1
    signature 1 { pred p/0, q/0; }
    bridge 1: p ==> 1: q
    """
)

TWO_PLAIN = parse_theory(
    """
    index 1, 2
    signature 1 { pred p/0; }
    signature 2 { pred q/0; }
    """
)

ARROWS = parse_theory("index 1, 2")


def lf(theory, text):
    return parse_labeled_formula(theory, text)


def test_search_bound_validates():
    with pytest.raises(ValueError):
        SearchBound(0, 1)
    with pytest.raises(ValueError):
        SearchBound(1, 0)
    assert SearchBound().max_domain_size == 3
    assert SearchBound().max_local_models == 3


# -- enumeration -----------------------------------------------------------


def test_single_unary_predicate_has_three_canonical_models():
    T = parse_theory("index 1\nsignature 1 { pred p/1; }")
    models = list(enumerate_models(T, B11))
    assert len(models) == 3
    exts = sorted(
        tuple(sorted(m.pred("p") for m in M.models("1"))) for M in models
    )
    assert exts == [(), (frozenset(),), (frozenset({("d1",)}),)]


def test_enumerated_models_validate_and_satisfy_theory():
    T = parse_theory(
        """
        index 1
        signature 1 { pred p/1; }
        axiom 1: exists x. p(x)
        """
    )
    models = list(enumerate_models(T, SearchBound(2, 2)))
    assert models
    for M in models:
        assert validate_model(T, M) == []
        assert check_theory(T, M).ok
    # the axiom prunes every nonempty local model with an empty extension
    for M in models:
        for m in M.models("1"):
            assert m.pred("p")


def test_no_bridge_rules_count_is_product_of_local_counts():
    t1 = parse_theory("index 1\nsignature 1 { pred p/0; }\naxiom 1: p")
    t2 = parse_theory("index 2\nsignature 2 { pred q/0; }\naxiom 2: ~q")
    joint = parse_theory(
        """
        index 1, 2
        signature 1 { pred p/0; }
        signature 2 { pred q/0; }
        axiom 1: p
        axiom 2: ~q
        """
    )
    n1 = len(list(enumerate_models(t1, B11)))
    n2 = len(list(enumerate_models(t2, B11)))
    n_joint = len(list(enumerate_models(joint, B11)))
    # one-element domains leave four relation choices (two ordered pairs,
    # each present or absent) and no renaming freedom
    assert (n1, n2) == (2, 2)
    assert n_joint == n1 * n2 * 4


def test_enumeration_is_deterministic():
    T = parse_theory("index 1\nsignature 1 { pred p/1; }")
    first = [M.key() for M in enumerate_models(T, B12)]
    second = [M.key() for M in enumerate_models(T, B12)]
    assert first == second


# -- part canonicalization against a brute-force reference ----------------
# The reference renames every local model of every candidate set under
# every permutation of the domain and compares sorted model keys; the
# search ranks each domain's local models once and compares sorted ranks.


def _part_key(ms):
    return tuple(sorted(m.key() for m in ms))


def _reference_index_parts(sig, bound, nonempty=False):
    parts = []
    for size in range(1, bound.max_domain_size + 1):
        domain = _domain(size)
        identity, *perms = [dict(zip(domain, image)) for image in permutations(domain)]
        by_shared: dict = {}
        for shared, m in _local_models(sig, domain):
            by_shared.setdefault(shared.key(), []).append(m)
        emitted: set = set()
        for _, models in sorted(by_shared.items()):
            for card in range(0 if not nonempty else 1, min(bound.max_local_models, len(models)) + 1):
                for combo in combinations(range(len(models)), card):
                    ms = tuple(models[k] for k in combo)
                    key = _part_key(ms)
                    if key in emitted:
                        continue
                    autos = [identity]
                    for pi in perms:
                        renamed = _part_key(tuple(_permuted_local(m, pi) for m in ms))
                        if renamed < key:
                            break
                        if renamed == key:
                            autos.append(pi)
                    else:
                        emitted.add(key)
                        parts.append((domain, ms, tuple(autos)))
    return parts


@pytest.mark.parametrize(
    "decls,bound,nonempty,count",
    [
        ("pred p/1, q/1;", (3, 2), False, 519),
        ("pred p/1, q/1;", (3, 3), False, 8241),
        ("pred r/2;", (2, 3), False, 375),
        ("const c; func f/1; pred p/1;", (2, 2), False, 277),
        ("pred a/1, b/1; complete pred a/1;", (3, 2), False, 107),
        ("const c; pred p/1; complete const c;", (3, 2), False, 40),
        ("pred p/1, q/1;", (3, 2), True, 516),
    ],
)
def test_index_parts_match_the_brute_force_reference(decls, bound, nonempty, count):
    sig = parse_theory(f"index 1\nsignature 1 {{ {decls} }}").signature("1")
    parts = _index_parts(sig, SearchBound(*bound), nonempty)
    # same domains, model sets and automorphism tuples, in the same order
    assert parts == _reference_index_parts(sig, SearchBound(*bound), nonempty)
    assert len(parts) == count


# -- the enumerator against a brute-force reference ------------------------
# The reference builds the full product of parts and relations and tells
# models apart by their least key over every joint renaming of the domains.


def _brute_force_key(T, M):
    indices = list(T.indices)
    renamings = product(
        *([dict(zip(M.domains[i], image)) for image in permutations(M.domains[i])] for i in indices)
    )
    best = None
    for pis in renamings:
        pi = dict(zip(indices, pis))
        parts = tuple(
            _part_key(tuple(_permuted_local(m, pi[i]) for m in M.models(i))) for i in indices
        )
        rels = tuple(
            ((src, tgt, label or ""), tuple(sorted((pi[src][d], pi[tgt][e]) for d, e in pairs)))
            for (src, tgt, label), pairs in sorted(
                M.relations.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or "")
            )
        )
        if best is None or (parts, rels) < best:
            best = (parts, rels)
    return (tuple(len(M.domains[i]) for i in indices), best)


def _relation_subsets(src, tgt):
    """Every relation from src to tgt, in the order of its mask: bit k
    stands for the k-th pair in sorted order."""
    pairs = sorted(product(src, tgt))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


def _brute_force_keys(T, bound):
    indices = list(T.indices)
    rel_keys = [(i, j, label) for i in indices for j in indices if i != j for label in _labels_of(T)]
    seen, models = set(), set()
    for parts in product(*(_index_parts(T.signature(i), bound) for i in indices)):
        domains = {i: p[0] for i, p in zip(indices, parts)}
        model_sets = {i: p[1] for i, p in zip(indices, parts)}
        streams = [[(k, rel) for rel in _relation_subsets(domains[k[0]], domains[k[1]])] for k in rel_keys]
        for rels in product(*streams):
            M = DfolModel(dict(domains), dict(model_sets), dict(rels))
            key = _brute_force_key(T, M)
            if key not in seen:
                seen.add(key)
                if check_theory(T, M).ok:
                    models.add(key)
    return models


def _assert_matches_brute_force(T, bound):
    models = list(enumerate_models(T, bound))
    keys = {_brute_force_key(T, M) for M in models}
    assert len(keys) == len(models)
    assert keys == _brute_force_keys(T, bound)
    return len(models)


UNARY_PAIR = "index 1, 2\nsignature 1 { pred p/1; }\nsignature 2 { pred s/1; }\n"


@pytest.mark.parametrize(
    "text,bound,count",
    [
        (UNARY_PAIR + "bridge 1: p(x) ==> 2: s(x^<1)", (2, 1), 1104),
        (UNARY_PAIR, (2, 1), 2068),
        ("index 1, 2\nsignature 1 { pred p/0; }\nsignature 2 { pred s/1; }\nproperty fun 1 2", (2, 2), 2360),
    ],
)
def test_enumeration_matches_brute_force_under_joint_renaming(text, bound, count):
    assert _assert_matches_brute_force(parse_theory(text), SearchBound(*bound)) == count


def _atoms(p1, s1):
    """The atoms of p and s, over x and over its counterpart."""
    return ("p(x)", "p(x^>2)") if p1 else ("p", "p"), ("s(x)", "s(x^<1)") if s1 else ("s", "s")


@st.composite
def two_index_theories(draw):
    p1, s1 = draw(st.booleans()), draw(st.booleans())
    p, s = _atoms(p1, s1)
    lines = [
        "index 1, 2",
        f"signature 1 {{ pred p/{int(p1)}; }}",
        f"signature 2 {{ pred s/{int(s1)}; }}",
    ]
    statements = [
        f"bridge 1: {p[0]} ==> 2: {s[1]}",
        f"bridge 2: {s[0]} ==> 1: {p[1]}",
        "bridge 1: x = x ==> 2: exists y. y = x^<1",
        f"axiom 1: {p[1]}",
        f"axiom 2: exists x. ~{s[0]}",
    ] + [f"property {tag} 1 2" for tag in ("fun", "tot", "inj", "sur")]
    lines += draw(st.lists(st.sampled_from(statements), max_size=2, unique=True))
    # two local models per set make the reference's product too large
    # once a unary predicate is involved
    bound = SearchBound(2, 1) if p1 or s1 else SearchBound(2, 2)
    return parse_theory("\n".join(lines)), bound


@settings(max_examples=6, deadline=None)
@given(two_index_theories())
def test_enumeration_matches_brute_force_on_random_theories(case):
    _assert_matches_brute_force(*case)


@settings(max_examples=10, deadline=None)
@given(two_index_theories(), st.integers(0, 4))
def test_consequence_agrees_with_a_sweep_over_enumerated_models(case, pick):
    # a query holds within the bound iff every enumerated model satisfies
    # it as a bridge rule; the consequence search stages only what the
    # query reads and stops at its first countermodel
    T, bound = case
    p, s = _atoms(("p", 1) in T.signature("1").preds, ("s", 1) in T.signature("2").preds)
    premises, goal = [
        ([], f"1: {p[0]}"),
        ([f"1: {p[0]}"], f"2: {s[1]}"),
        ([f"2: {s[0]}"], f"1: {p[1]}"),
        ([f"1: ~{p[1]}"], "1: false"),
        ([], f"2: exists x. ~{s[0]}"),
    ][pick]
    premises = [lf(T, t) for t in premises]
    goal = lf(T, goal)
    query = BridgeRule(tuple(premises), goal)
    swept = all(satisfies_bridge_rule(M, query)[0] for M in enumerate_models(T, bound))
    assert logical_consequence(T, premises, goal, bound).holds == swept


# -- lex-leader relation pruning against an unpruned search ----------------


class _UnprunedSearch(_StagedSearch):
    """The staged search with only the identity renaming at every stage, so
    that it tries every relation subset."""

    def leaves(self, t=0, group=({},)):
        return super().leaves(t, ({},))


def _outcome(v):
    return v.holds, v.model and v.model.key(), v.assignment and v.assignment.key()


def _property_queries(tag, i, j):
    return [(r.premises, r.conclusion) for r in bridge_rules_for_property(RelationProperty(tag, (i, j)))]


# Queries reading r_12 alone, the relation the theories' own rules read,
# and queries that also read r_21; the latter are kept to domain size 2,
# where the unpruned product of two relations stays small.
ONE_RELATION = [q for tag in ("fun", "tot", "inj", "sur") for q in _property_queries(tag, "1", "2")]
TWO_RELATIONS = [q for tag in ("fun", "tot", "inj", "sur") for q in _property_queries(tag, "2", "1")]
TWO_RELATIONS += _property_queries("inv", "1", "2")


@settings(max_examples=30, deadline=None)
@given(
    two_index_theories(),
    st.one_of(
        st.tuples(st.sampled_from(ONE_RELATION + ["atoms"]), st.sampled_from([(2, 1), (2, 2), (3, 1)])),
        st.tuples(st.sampled_from(TWO_RELATIONS), st.sampled_from([(2, 1), (2, 2)])),
    ),
)
def test_relation_pruning_matches_an_unpruned_search(case, query):
    # empty local-model sets, and sets over 0-ary predicates only, have
    # every renaming of their domain as an automorphism, so at domain sizes
    # 2 and 3 the pruning skips most relation subsets
    T, _ = case
    pick, bound = query[0], SearchBound(*query[1])
    if pick == "atoms":
        p, s = _atoms(("p", 1) in T.signature("1").preds, ("s", 1) in T.signature("2").preds)
        premises, goal = [lf(T, f"1: {p[0]}")], lf(T, f"2: {s[1]}")
    else:
        premises, goal = pick
    pruned = logical_consequence(T, premises, goal, bound)
    with patch.object(consequence, "_StagedSearch", _UnprunedSearch):
        unpruned = logical_consequence(T, premises, goal, bound)
    assert _outcome(pruned) == _outcome(unpruned)


def test_pruning_keeps_counterexamples_that_need_two_relations():
    # the converse of r_12 need not be r_21; with r_12 surjective, the
    # least counterexample to the second inverse rule has a two-element
    # domain at index 2, where r_21 is pruned only by renamings that fix
    # the r_12 chosen before it
    T = parse_theory("index 1, 2\nproperty sur 1 2")
    for premises, goal in _property_queries("inv", "1", "2"):
        for bound in (SearchBound(2, 1), SearchBound(2, 2)):
            pruned = logical_consequence(T, premises, goal, bound)
            with patch.object(consequence, "_StagedSearch", _UnprunedSearch):
                unpruned = logical_consequence(T, premises, goal, bound)
            assert _outcome(pruned) == _outcome(unpruned)


# -- memo keys projected onto part classes against full choice keys --------


class _FullKeySearch(_StagedSearch):
    """The staged search with its memo keyed on every stage's full choice,
    and its checks run in the order given, not the must-fail check first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ready = {
            t: [
                (c, plan, [(name, None) for name, _ in keyed], must_hold)
                for c, plan, keyed, must_hold in sorted(at_t, key=lambda e: e[0])
            ]
            for t, at_t in self.ready.items()
        }


# Statements and queries over different subsets of the symbols, so that
# parts agreeing on what one check reads differ on what another reads.
SYMBOL_STATEMENTS = [
    "bridge 1: p(c) ==> 2: s(c)",
    "bridge 1: q ==> 2: t",
    "bridge 1: p(x) ==> 2: s(x^<1)",
    "bridge 2: t ==> 1: exists x. q & p(x)",
    "bridge 1: p(f(c)) ==> 2: t",
    "axiom 1: p(c) | q",
    "axiom 2: exists x. s(x^<1) -> t",
]
SYMBOL_QUERIES = [
    ([], "1: q"),
    (["1: p(c)"], "2: s(c)"),
    (["1: q"], "2: t"),
    (["2: s(x)"], "1: p(x^>2)"),
    (["1: p(x)"], "2: s(x^<1) | t"),
    (["1: p(x)"], "1: q"),
    (["1: p(x)"], "1: p(f(x))"),
]


@st.composite
def symbol_theories(draw):
    complete = draw(st.booleans())
    func = draw(st.booleans())
    statements = [s for s in SYMBOL_STATEMENTS if func or "f(" not in s]
    queries = [q for q in SYMBOL_QUERIES if func or "f(" not in q[1]]
    T = parse_theory(
        "\n".join(
            [
                "index 1, 2",
                f"signature 1 {{ {'complete ' * complete}const c; pred p/1, q/0; {'func f/1;' * func} }}",
                "signature 2 { const c; pred s/1, t/0; }",
                *draw(st.lists(st.sampled_from(statements), max_size=3, unique=True)),
            ]
        )
    )
    premises, goal = draw(st.sampled_from(queries))
    return T, [lf(T, p) for p in premises], lf(T, goal)


@settings(max_examples=40, deadline=None)
@given(symbol_theories(), st.sampled_from([(2, 1), (1, 2)]))
def test_projected_memo_keys_match_full_choice_keys(case, bound):
    T, premises, goal = case
    bound = SearchBound(*bound)
    projected = logical_consequence(T, premises, goal, bound)
    enumerated = [M.key() for M in enumerate_models(T, B12)]
    with patch.object(consequence, "_StagedSearch", _FullKeySearch):
        assert _outcome(projected) == _outcome(logical_consequence(T, premises, goal, bound))
        assert enumerated == [M.key() for M in enumerate_models(T, B12)]


def test_complete_symbols_agree_across_enumerated_sets():
    T = parse_theory(
        "index 1\nsignature 1 { const c; pred p/0; complete const c; }"
    )
    for M in enumerate_models(T, SearchBound(2, 2)):
        assert len({m.const("c") for m in M.models("1")}) <= 1


# -- deduction-theorem failure (fixed counterexample shape) ----------------


def test_rule_supports_detachment():
    v = logical_consequence(PQ_RULE, [lf(PQ_RULE, "1: p")], lf(PQ_RULE, "1: q"), B12)
    assert v.holds


def test_conditional_fails_with_expected_counterexample():
    v = logical_consequence(PQ_RULE, [], lf(PQ_RULE, "1: p -> q"), B12)
    assert not v.holds
    M = v.model
    interps = [
        (bool(m.pred("p")), bool(m.pred("q"))) for m in M.models("1")
    ]
    # one local model satisfies p, another refutes it, and both refute q,
    # so the premise of the rule fails setwise while p -> q has no support
    assert interps == [(False, False), (True, False)]
    assert len(v.assignment) == 0
    ok, _ = satisfies_bridge_rule(M, BridgeRule((), lf(PQ_RULE, "1: p -> q")))
    assert not ok


def test_counterexample_revalidates():
    v = logical_consequence(PQ_RULE, [], lf(PQ_RULE, "1: p -> q"), B12)
    assert validate_model(PQ_RULE, v.model) == []
    assert check_theory(PQ_RULE, v.model).ok


def test_verdict_truthiness_and_bound():
    held = logical_consequence(PQ_RULE, [lf(PQ_RULE, "1: p")], lf(PQ_RULE, "1: q"), B12)
    failed = logical_consequence(PQ_RULE, [], lf(PQ_RULE, "1: q"), B12)
    assert bool(held) and held.bound == B12 and held.model is None
    assert not bool(failed) and failed.bound == B12
    assert failed.model is not None and failed.assignment is not None


# -- reflexivity and cut ---------------------------------------------------


CHAIN = parse_theory(
    """
    index 1, 2
    signature 1 { pred p/0; }
    signature 2 { pred q/0, r/0; }
    bridge 1: p ==> 2: q
    bridge 2: q ==> 2: r
    """
)


def test_reflexivity():
    for text in ["1: p", "2: q -> r", "2: q & r"]:
        goal = lf(CHAIN, text)
        assert logical_consequence(CHAIN, [goal], goal, B12).holds


def test_cut_along_rule_chain():
    p, q, r = lf(CHAIN, "1: p"), lf(CHAIN, "2: q"), lf(CHAIN, "2: r")
    assert logical_consequence(CHAIN, [p], q, B12).holds
    assert logical_consequence(CHAIN, [p, q], r, B12).holds
    assert logical_consequence(CHAIN, [p], r, B12).holds


def test_cut_holds_on_propositional_samples():
    T = parse_theory("index 1\nsignature 1 { pred p/0, q/0, r/0; }")
    texts = ["1: p", "1: q", "1: p -> q", "1: p | q", "1: q -> r", "1: ~r"]
    fs = [lf(T, t) for t in texts]
    for gamma, phi, psi in product([fs[:2], fs[2:4]], fs, fs):
        if (
            logical_consequence(T, gamma, phi, B12).holds
            and logical_consequence(T, list(gamma) + [phi], psi, B12).holds
        ):
            assert logical_consequence(T, gamma, psi, B12).holds


# -- conservativity over classical first-order consequence -----------------
# independent evaluator over plain dicts; no reuse of module semantics


def _fo_structures(max_size):
    for size in range(1, max_size + 1):
        dom = list(range(size))
        for c, p_ext in product(dom, product([False, True], repeat=size)):
            yield dom, c, {(d,) for d, there in zip(dom, p_ext) if there}


def _fo_eval(f, dom, c, p, env):
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Atom):
        return tuple(_fo_term(t, c, env) for t in f.args) in p
    if isinstance(f, Eq):
        return _fo_term(f.lhs, c, env) == _fo_term(f.rhs, c, env)
    if isinstance(f, Not):
        return not _fo_eval(f.body, dom, c, p, env)
    if isinstance(f, And):
        return _fo_eval(f.lhs, dom, c, p, env) and _fo_eval(f.rhs, dom, c, p, env)
    if isinstance(f, Or):
        return _fo_eval(f.lhs, dom, c, p, env) or _fo_eval(f.rhs, dom, c, p, env)
    if isinstance(f, Implies):
        return (not _fo_eval(f.lhs, dom, c, p, env)) or _fo_eval(
            f.rhs, dom, c, p, env
        )
    if isinstance(f, Forall):
        return all(_fo_eval(f.body, dom, c, p, {**env, f.var: d}) for d in dom)
    if isinstance(f, Exists):
        return any(_fo_eval(f.body, dom, c, p, {**env, f.var: d}) for d in dom)
    raise TypeError(f)


def _fo_term(t, c, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return c
    raise TypeError(t)


def _fo_consequence(premises, goal, max_size):
    from dfol.syntax import free_plain_vars

    names = sorted(set().union(*(free_plain_vars(f) for f in premises + [goal])))
    for dom, c, p in _fo_structures(max_size):
        for values in product(dom, repeat=len(names)):
            env = dict(zip(names, values))
            if all(_fo_eval(f, dom, c, p, env) for f in premises) and not _fo_eval(
                goal, dom, c, p, env
            ):
                return False
    return True


FOT = parse_theory("index 1\nsignature 1 { const c; pred p/1; }")

FO_CASES = [
    (["1: forall x. p(x)"], "1: p(c)"),
    (["1: p(c)"], "1: exists x. p(x)"),
    (["1: exists x. p(x)"], "1: p(c)"),
    (["1: p(x)"], "1: p(y)"),
    (["1: p(x)", "1: x = y"], "1: p(y)"),
    (["1: forall x. (p(x) -> false)"], "1: ~p(c)"),
    ([], "1: p(c) | ~p(c)"),
    ([], "1: exists x. p(x)"),
]


@pytest.mark.parametrize("premise_texts,goal_text", FO_CASES)
def test_matches_classical_consequence_on_arrow_free_theories(
    premise_texts, goal_text
):
    premises = [lf(FOT, t) for t in premise_texts]
    goal = lf(FOT, goal_text)
    ours = logical_consequence(FOT, premises, goal, B22).holds
    classical = _fo_consequence(
        [f.formula for f in premises], goal.formula, 2
    )
    assert ours == classical


# -- inconsistency stays local ---------------------------------------------


def test_local_inconsistency_does_not_propagate():
    v = logical_consequence(
        ARROWS, [lf(ARROWS, "1: false")], lf(ARROWS, "2: false"), B11
    )
    assert not v.holds
    assert v.model.models("1") == ()
    assert len(v.model.models("2")) == 1


# -- directionality ---------------------------------------------------------


def test_information_flows_only_along_rule_direction():
    T = parse_theory(
        """
        index 1, 2
        signature 1 { pred p/0, r/0; }
        signature 2 { pred q/0; }
        axiom 1: ~r
        bridge 1: p ==> 2: q
        """
    )
    local = parse_theory(
        "index 1\nsignature 1 { pred p/0, r/0; }\naxiom 1: ~r"
    )
    for gamma_texts, goal_text in [
        (["1: p | r"], "1: p"),
        (["1: p | r"], "1: p | r"),
        (["1: p -> r"], "1: ~p"),
        (["1: p"], "1: r"),
        ([], "1: ~r"),
    ]:
        with_rules = logical_consequence(
            T, [lf(T, t) for t in gamma_texts], lf(T, goal_text), B12
        )
        without = logical_consequence(
            local, [lf(local, t) for t in gamma_texts], lf(local, goal_text), B12
        )
        assert with_rules.holds == without.holds


# -- arrow-variable transfer across a relation ------------------------------


def test_arrow_transfer_holds_over_nonempty_model_sets():
    premise = lf(ARROWS, "1: y = x^>2")
    goal = lf(ARROWS, "2: y^<1 = x")
    assert logical_consequence(
        ARROWS, [premise], goal, SearchBound(2, 2, nonempty_model_sets=True)
    ).holds
    assert logical_consequence(
        ARROWS, [goal], premise, SearchBound(2, 2, nonempty_model_sets=True)
    ).holds


def test_arrow_transfer_fails_when_a_model_set_is_empty():
    # an empty local-model set satisfies the premise equality vacuously
    # without forcing the two values together, so no goal witness exists
    premise = lf(ARROWS, "1: y = x^>2")
    goal = lf(ARROWS, "2: y^<1 = x")
    v = logical_consequence(ARROWS, [premise], goal, B22)
    assert not v.holds
    assert any(v.model.models(i) == () for i in ("1", "2"))
    ok, _ = satisfies_bridge_rule(v.model, BridgeRule((premise,), goal))
    assert not ok


def test_arrow_bearing_axiom_constrains_the_search():
    # the axiom makes p hold of every counterpart of an element at 2, so a
    # premise denying it of one has no model but those with no local model
    # at 1, where the goal holds vacuously
    T = parse_theory(
        """
        index 1, 2
        signature 1 { pred p/1; }
        signature 2 { pred q/1; }
        axiom 1: p(x^>2)
        """
    )
    for bound in (B11, SearchBound(2, 1)):
        assert logical_consequence(T, [lf(T, "1: ~p(x^>2)")], lf(T, "1: false"), bound).holds
    v = logical_consequence(T, [], lf(T, "1: false"), B11)
    assert not v.holds and check_theory(T, v.model).ok


# -- bridge-rule entailment --------------------------------------------------


FUN_T = parse_theory("index 1, 2\nproperty fun 1 2")


def test_entails_renamed_variant_of_own_rule():
    candidate = parse_bridge_rule_text(FUN_T, "1: u^>2 = v^>2 ==> 2: u = v")
    assert entails_bridge_rule(FUN_T, candidate, B22).holds


def test_does_not_entail_unrelated_rule():
    candidate = parse_bridge_rule_text(
        FUN_T, "1: x = x ==> 2: exists y. y = x^<1"
    )
    v = entails_bridge_rule(FUN_T, candidate, B22)
    assert not v.holds
    assert validate_model(FUN_T, v.model) == []


def test_empty_premise_candidate():
    T = parse_theory(
        """
        index 1, 2
        signature 2 { pred q/0; }
        axiom 2: q
        """
    )
    candidate = parse_bridge_rule_text(T, "==> 2: q")
    assert entails_bridge_rule(T, candidate, B12).holds


# -- projection keeps untouched indices out of the search -------------------


def test_counterexample_covers_all_indices():
    T = parse_theory(
        """
        index 1, 2, 3
        signature 1 { pred p/0; }
        signature 3 { pred s/0; }
        axiom 3: s
        """
    )
    v = logical_consequence(T, [], lf(T, "1: p"), B12)
    assert not v.holds
    assert set(v.model.domains) == {"1", "2", "3"}
    assert validate_model(T, v.model) == []
    assert check_theory(T, v.model).ok
    # index 3 is untouched by the query, so the completion leaves it empty
    assert v.model.models("3") == ()


# -- rule checks are memoised per (stage, rule), however many rules ---------


@pytest.mark.parametrize("copies", [255, 256, 257])
def test_many_rules_ready_at_one_stage(copies):
    # index 2 is staged first, so its copies + 1 rules are all ready at
    # stage 0 and `==> 1: ~p` is the only rule of stage 1; with memo keys
    # packed as (stage << 8) | slot, stage 0's slot 256 shared its entry
    # with that rule
    T = parse_theory(
        "\n".join(
            ["index 2, 1", "signature 2 { pred q/0; }", "signature 1 { pred p/0; }"]
            + ["bridge ==> 2: q | ~q"] * copies
            + ["bridge ==> 2: q", "bridge ==> 1: ~p"]
        )
    )
    assert logical_consequence(T, [lf(T, "1: ~p")], lf(T, "2: q"), B12).holds


# -- what a check reads, read off its plan ----------------------------------


def _reference_formula_components(lf):
    """The stages a check over lf reads: its index, and for every arrow
    variable the relation it maps through and that relation's far endpoint,
    whose domain arrow admissibility sweeps."""
    comps = {("idx", lf.index)}
    for av in arrow_vars(lf.formula):
        comps.add(("idx", av.foreign))
        comps.add(("rel", _relation_key(lf.index, av)))
    return comps


def _reference_components(lfs):
    return tuple(set().union(*map(_reference_formula_components, lfs)))


def _reference_labels_of(T):
    labels = {None}
    for lf in list(T.axioms) + [f for r in T.rules for f in list(r.premises) + [r.conclusion]]:
        for av in arrow_vars(lf.formula):
            labels.add(av.label)
    return sorted(labels, key=lambda x: (x is not None, x))


def _plan_stages(plan):
    return {("idx", i) for i in plan.reads} | {("rel", key) for key in plan.relations}


def _assert_footprints_match(T):
    for rule in T.rules:
        lfs = [*rule.premises, rule.conclusion]
        assert _plan_stages(_rule_plan(rule)) == set(_reference_components(lfs)), rule
    for ax in T.axioms:
        plan = _axiom_plan(ax)
        assert _plan_stages(plan) == set(_reference_components([ax])), ax
        # axioms without arrows filter parts up front
        assert (not plan.relations) == (not arrow_vars(ax.formula)), ax
    assert _labels_of(T) == _reference_labels_of(T)


FIXTURE_THEORIES = [
    parse_theory((Path(__file__).parent / "fixtures" / name).read_text())
    for name in ("cutglue.dfol", "magicbox.dfol", "magicbox_partial.dfol")
]


def test_plan_footprints_match_the_formula_components():
    rules = DIFF_RULES + SLOT_RULES + IMAGE_RULES
    _assert_footprints_match(Theory(DIFF_THEORY.indices, DIFF_THEORY.signatures, (), tuple(rules)))
    axioms = DIFF_AXIOMS + IMAGE_AXIOMS
    _assert_footprints_match(Theory(DIFF_THEORY.indices, DIFF_THEORY.signatures, tuple(axioms)))
    for T in FIXTURE_THEORIES:
        _assert_footprints_match(T)


def test_an_anchor_only_index_reads_no_symbol():
    T = parse_theory("index 1, 2\nsignature 1 { pred p/1; }")
    plan = _rule_plan(parse_bridge_rule_text(T, "1: p(x^>2) ==> 1: p(x^>2)"))
    assert plan.reads == {"1": frozenset({("pred", "p")}), "2": frozenset()}
    assert plan.relations == {("1", "2", None)}


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(2), max_size=3), formulas_at_2(), formulas(3))
def test_random_plan_footprints_match_the_formula_components(premises, conclusion, axiom):
    rule = BridgeRule(tuple(LabeledFormula("1", p) for p in premises), LabeledFormula("2", conclusion))
    ax = LabeledFormula("1", axiom)
    _assert_footprints_match(Theory(("1", "2"), {}, (ax,), (rule,)))


@settings(max_examples=20, deadline=None)
@given(st.one_of(two_index_theories().map(lambda case: case[0]), symbol_theories().map(lambda case: case[0])))
def test_random_theory_footprints_match_the_formula_components(T):
    _assert_footprints_match(T)


# -- relation masks are decoded only once they pass the lex-leader test ----


def test_relations_are_built_only_for_masks_that_reach_the_checks():
    counts = {"built": 0, "reached": 0}
    build, passes = consequence._relation, _StagedSearch._passes

    def counting_build(pairs, mask):
        counts["built"] += 1
        return build(pairs, mask)

    def counting_passes(self, t):
        counts["reached"] += self.stages[t][0] == "rel"
        return passes(self, t)

    T = parse_theory("index 1, 2\nsignature 2 { pred s/0; }\nproperty sur 1 2")
    with patch.object(consequence, "_relation", counting_build):
        with patch.object(_StagedSearch, "_passes", counting_passes):
            list(enumerate_models(T, SearchBound(2, 1)))
            for premises, goal in _property_queries("inv", "1", "2"):
                logical_consequence(T, premises, goal, SearchBound(2, 2))
        pruned = dict(counts)
        counts.update(built=0, reached=0)
        with patch.object(_StagedSearch, "_passes", counting_passes):
            with patch.object(consequence, "_StagedSearch", _UnprunedSearch):
                list(enumerate_models(T, SearchBound(2, 1)))
                for premises, goal in _property_queries("inv", "1", "2"):
                    logical_consequence(T, premises, goal, SearchBound(2, 2))
    assert pruned["built"] == pruned["reached"] > 0
    # the lex-leader test skipped some masks before any relation was built
    assert pruned["reached"] < counts["reached"] == counts["built"]
