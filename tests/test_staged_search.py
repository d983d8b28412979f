"""The staged search against the search it replaced: part tables kept on
signatures, class-level index stages and the relation-relaxed lookahead
must leave verdicts, witnesses and enumeration order as they were."""

from __future__ import annotations

import copy
import pickle
import sys
from collections import Counter
from itertools import islice, product
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol import SearchBound, enumerate_models, logical_consequence, parse_theory, render_theory
from dfol import consequence
from dfol.consequence import _index_parts, _mask_images, _relation, _Renaming, _StagedSearch
from dfol.semantics import Assignment, DfolModel, _axiom_plan, _RulePlan
from dfol.syntax import Theory
from test_consequence import (
    _FullKeySearch,
    _UnprunedSearch,
    _atoms,
    _outcome,
    lf,
    symbol_theories,
    two_index_theories,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generators  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


# -- the search as it was before part tables and class stages ---------------
# Kept verbatim but for its name and one line: the bound now carries
# nonempty_model_sets, which the constructor took as an argument.  It
# builds and filters every index's parts on each call, walks parts one by
# one and checks every rule only once all its stages are chosen.


class _ReferenceSearch:
    """Depth-first search over the models of T on the given indices and
    relations, one stage for each: indices in the order given, each
    relation right after its later endpoint.

    A check is a plan and the verdict it must have.  Its stages are the
    indices of its `reads` and the keys of its `relations`; it is run once
    its last stage is chosen, the one that must fail first, and prunes the
    branch unless its verdict is the required one.  Verdicts are memoized
    per check on the masks of the relations it reads and, for each index
    it reads, on the class of the chosen part: parts share a class when
    they have one domain and one set of local models restricted to the
    symbols the check's formulas read there.  Relations are tried in
    ascending mask order, and one that is not the least of its orbit under
    the renamings fixing the earlier choices is skipped before any check
    runs.  Checks are invariant under renaming, so the first surviving
    leaf is the first leaf of the unpruned search.  `leaves()` yields the
    live model at each surviving leaf; `results[c]` then holds check c's
    (verdict, witness) for that leaf, and `choice` the option taken at
    each stage.
    """

    def __init__(
        self,
        T: Theory,
        bound: SearchBound,
        indices: list[str],
        rel_keys: Iterable[tuple[str, str, str | None]],
        checks: list[tuple[_RulePlan, bool]],
    ):
        at = {i: t for t, i in enumerate(indices)}
        rel_keys = sorted(rel_keys, key=lambda k: (k[0], k[1], k[2] or ""))
        self.stages: list[tuple[str, object]] = []  # ("idx", index) or ("rel", key)
        for i in indices:
            self.stages.append(("idx", i))
            self.stages += [("rel", k) for k in rel_keys if max(at[k[0]], at[k[1]]) == at[i]]
        position = {name: t for t, (_, name) in enumerate(self.stages)}
        self.parts = {}
        for i in indices:
            # axioms that read no relation are decided by one index's part
            local = [_axiom_plan(ax) for ax in T.axioms if ax.index == i]
            local = [plan for plan in local if not plan.relations]
            self.parts[i] = [
                part
                for part in _index_parts(T.signature(i), bound, bound.nonempty_model_sets)
                if all(plan.check(DfolModel({i: part[0]}, {i: part[1]}, {}))[0] for plan in local)
            ]
        classes: dict[tuple[str, frozenset], list[int]] = {}

        def class_ids(i: str, symbols: frozenset) -> list[int]:
            """Each part's class at index i for a check reading `symbols` there."""
            if (i, symbols) not in classes:
                order = sorted(symbols)
                ids: dict = {}
                classes[(i, symbols)] = [
                    ids.setdefault(
                        (domain, frozenset(tuple(m.interp_key(*sym) for sym in order) for m in models)),
                        len(ids),
                    )
                    for domain, models, _ in self.parts[i]
                ]
            return classes[(i, symbols)]

        self.ready: dict[int, list] = {}
        # The check that must fail goes first at its stage: it prunes the
        # most branches, and a leaf needs every verdict either way.
        for c, (plan, must_hold) in sorted(enumerate(checks), key=lambda e: e[1][1]):
            keyed = [(i, class_ids(i, symbols)) for i, symbols in plan.reads.items()]
            keyed += [(key, None) for key in plan.relations]
            ready = max(position[name] for name, _ in keyed)
            self.ready.setdefault(ready, []).append((c, plan, keyed, must_hold))
        self.model = DfolModel({}, {}, {})
        # Interned choice ids keep memo keys small integers instead of deep
        # structures that would be re-hashed on every lookup.
        self.choice: dict[object, int] = {name: -1 for _, name in self.stages}
        self.results: list[tuple[bool, Assignment | None] | None] = [None] * len(checks)
        self.memo: dict[tuple[int, tuple[int, ...]], tuple[bool, Assignment | None]] = {}

    def _passes(self, t: int) -> bool:
        choice = self.choice
        for c, plan, keyed, must_hold in self.ready.get(t, ()):
            key = (c, tuple([choice[name] if ids is None else ids[choice[name]] for name, ids in keyed]))
            hit = self.memo.get(key)
            if hit is None:
                hit = self.memo[key] = plan.check(self.model)
            self.results[c] = hit
            if hit[0] != must_hold:
                return False
        return True

    def leaves(self, t: int = 0, group: Sequence[_Renaming] = ({},)) -> Iterator[DfolModel]:
        """The leaves below stage t.  `group` holds the joint renamings that
        fix every choice so far, identity first: the product of the chosen
        parts' automorphisms, narrowed at each relation stage to those
        that map the chosen relation onto itself.  A relation whose image
        under one of them has a smaller mask is skipped, so of every orbit
        only its least member (masks compared in stage order) is reached."""
        if t == len(self.stages):
            yield self.model
            return
        kind, name = self.stages[t]
        M = self.model
        # A stage's old value needs no clearing on the way back: checks
        # ready at a stage read only that stage and earlier ones.
        if kind == "idx":
            for choice, (domain, models, autos) in enumerate(self.parts[name]):
                M.domains[name], M.model_sets[name] = domain, models
                self.choice[name] = choice
                if self._passes(t):
                    product_group = [{**g, name: a} for g in group for a in autos] if len(autos) > 1 else group
                    yield from self.leaves(t + 1, product_group)
            return
        src, tgt, _ = name
        images = _mask_images(group, M.domains, src, tgt) if len(group) > 1 else [None]
        movers = list({id(table): table for table in images if table}.values())
        pairs = sorted(product(M.domains[src], M.domains[tgt]))
        for mask in range(1 << len(pairs)):
            if any(table[mask] < mask for table in movers):
                continue
            M.relations[name] = _relation(pairs, mask)
            self.choice[name] = mask
            if self._passes(t):
                yield from self.leaves(
                    t + 1,
                    [g for g, table in zip(group, images) if table is None or table[mask] == mask],
                )


# -- theories and queries ----------------------------------------------------


def _two_index_queries(T: Theory) -> list[tuple[list[str], str]]:
    p, s = _atoms(("p", 1) in T.signature("1").preds, ("s", 1) in T.signature("2").preds)
    return [
        ([], f"1: {p[0]}"),
        ([f"1: {p[0]}"], f"2: {s[1]}"),
        ([f"2: {s[0]}"], f"1: {p[1]}"),
        ([f"1: ~{p[1]}"], "1: false"),
        ([], f"2: exists x. ~{s[0]}"),
    ]


@st.composite
def searched_theories(draw):
    """(T, premises, goal) from the theories of test_consequence."""
    if draw(st.booleans()):
        return draw(symbol_theories())
    T, _ = draw(two_index_theories())
    premises, goal = draw(st.sampled_from(_two_index_queries(T)))
    return T, [lf(T, p) for p in premises], lf(T, goal)


# Rules of the lookahead shape: no arrow variable among the premises, and
# one in the conclusion that ranges over a relation image.  The others
# read a relation through a premise, which the lookahead leaves alone.
LOOKAHEAD_STATEMENTS = [
    "bridge 1: p(x) ==> 2: s(x^<1)",
    "bridge 1: p(x) & q ==> 2: exists y. s(y) & y = x^<1",
    "bridge 2: t ==> 1: exists y. p(y^<2) | q",
    "bridge 1: x = x ==> 2: exists y. y = x^<1",
    "bridge 2: s(x) & ~t ==> 1: p(x^<2)",
    "bridge 2: s(x^>1) ==> 1: p(x)",
    "axiom 2: exists x. s(x^<1) -> t",
    "property fun 1 2",
    "property sur 2 1",
]
LOOKAHEAD_QUERIES = [
    ([], "1: q"),
    (["1: p(x)"], "2: s(x^<1)"),
    (["1: exists x. p(x)"], "2: exists x. s(x)"),
    (["2: t"], "1: exists x. p(x)"),
    (["2: s(x)"], "1: p(x^<2) | q"),
]


@st.composite
def lookahead_theories(draw):
    T = parse_theory(
        "\n".join(
            [
                "index 1, 2",
                "signature 1 { pred p/1, q/0; }",
                "signature 2 { pred s/1, t/0; }",
                *draw(st.lists(st.sampled_from(LOOKAHEAD_STATEMENTS), min_size=1, max_size=3, unique=True)),
            ]
        )
    )
    premises, goal = draw(st.sampled_from(LOOKAHEAD_QUERIES))
    return T, [lf(T, p) for p in premises], lf(T, goal)


def _fresh(T: Theory) -> Theory:
    """An equal theory parsed anew, whose signatures hold no part table."""
    return parse_theory(render_theory(T))


def _model_keys(T: Theory, bound: SearchBound, limit: int = 200) -> list:
    return [M.key() for M in islice(enumerate_models(T, bound), limit)]


def _tables(T: Theory) -> dict[str, dict]:
    return {i: T.signature(i).__dict__.get("_parts", {}) for i in T.indices}


# -- the search against the reference ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.one_of(searched_theories(), lookahead_theories()), st.sampled_from([(2, 1), (1, 2)]))
def test_search_matches_the_reference_search(case, bound):
    T, premises, goal = case
    bound = SearchBound(*bound)
    verdict = _outcome(logical_consequence(T, premises, goal, bound))
    models = _model_keys(T, bound)
    with patch.object(consequence, "_StagedSearch", _ReferenceSearch):
        assert verdict == _outcome(logical_consequence(T, premises, goal, bound))
        assert models == _model_keys(T, bound)


@settings(max_examples=15, deadline=None)
@given(lookahead_theories())
def test_full_key_and_unpruned_searches_still_match(case):
    # both keep the class walk and the lookahead; the full-key search
    # gives no class ids, so its index stages decide one part at a time
    T, premises, goal = case
    bound = SearchBound(2, 1)
    verdict = _outcome(logical_consequence(T, premises, goal, bound))
    models = _model_keys(T, bound)
    with patch.object(consequence, "_StagedSearch", _FullKeySearch):
        assert verdict == _outcome(logical_consequence(T, premises, goal, bound))
        assert models == _model_keys(T, bound)
    with patch.object(consequence, "_StagedSearch", _UnprunedSearch):
        assert verdict == _outcome(logical_consequence(T, premises, goal, bound))


def _relation_visits(search_class, T, premises, goal, bound) -> tuple[tuple, int]:
    """The outcome of a query and how often its search reached a relation stage."""
    visits = Counter()
    passes = search_class._passes

    def counting(self, t):
        visits[self.stages[t][0]] += 1
        return passes(self, t)

    with patch.object(consequence, "_StagedSearch", search_class), patch.object(search_class, "_passes", counting):
        outcome = _outcome(logical_consequence(T, premises, goal, bound))
    return outcome, visits["rel"]


def test_lookahead_prunes_before_any_relation_is_chosen():
    # where s is empty in a model at index 2 and p holds somewhere in every
    # model at index 1, the rule fails under every r_12, and the relaxed
    # check finds that out before r_12 is staged
    T = parse_theory("index 1, 2\nsignature 1 { pred p/1; }\nsignature 2 { pred s/1; }\nbridge 1: p(x) ==> 2: s(x^<1)")
    premises, goal = [lf(T, "1: exists x. p(x)")], lf(T, "2: exists x. s(x)")
    search = _StagedSearch(T, SearchBound(2, 1), ["1", "2"], {("1", "2", None)}, consequence._theory_checks(T))
    assert [len(at_t) for at_t in search.lookahead.values()] == [1]
    for bound in (SearchBound(2, 1), SearchBound(2, 2)):
        outcome, visits = _relation_visits(_StagedSearch, T, premises, goal, bound)
        reference, reference_visits = _relation_visits(_ReferenceSearch, T, premises, goal, bound)
        assert outcome == reference
        assert visits < reference_visits


def test_the_magic_box_query_holds_at_domain_size_two():
    T = parse_theory((FIXTURES / "magicbox.dfol").read_text())
    seen = "exists x. exists y. inbox(x,y)"
    v = logical_consequence(T, [lf(T, f"1: {seen}")], lf(T, f"2: {seen}"), SearchBound(2, 1))
    assert v.holds and v.bound == SearchBound(2, 1)


# -- part tables kept on signatures ------------------------------------------

TWO_UNARY = "index 1, 2\nsignature 1 { pred p/1; }\nsignature 2 { pred s/1; }\nbridge 1: p(x) ==> 2: s(x^<1)"


@settings(max_examples=15, deadline=None)
@given(st.one_of(searched_theories(), lookahead_theories()))
def test_kept_tables_answer_as_a_freshly_parsed_theory(case):
    T, premises, goal = case
    bounds = [SearchBound(*b) for b in ((2, 1), (1, 2), (2, 2), (2, 1), (1, 2))]
    for bound in bounds:
        fresh = _fresh(T)
        assert _outcome(logical_consequence(T, premises, goal, bound)) == _outcome(
            logical_consequence(fresh, premises, goal, bound)
        )
        assert _model_keys(T, bound, 50) == _model_keys(fresh, bound, 50)
    for tables in _tables(T).values():
        assert {bound for bound, _ in tables} == set(bounds)


class _Interrupted(Exception):
    pass


def _interrupt_at(k: int):
    """_permuted_local, raising on its k-th call."""
    calls = Counter()
    real = consequence._permuted_local

    def permuted(m, pi):
        calls["n"] += 1
        if calls["n"] == k:
            raise _Interrupted()
        return real(m, pi)

    return permuted, calls


@pytest.mark.parametrize("index_one_done", [False, True])
def test_an_interrupted_build_keeps_no_table(index_one_done):
    # a deadline that cuts a build short must not leave a partial table
    T = parse_theory(TWO_UNARY)
    bound = SearchBound(2, 2)
    premises, goal = [lf(T, "1: exists x. p(x)")], lf(T, "2: exists x. s(x)")
    counting, calls = _interrupt_at(0)
    with patch.object(consequence, "_permuted_local", counting):
        _index_parts(T.signature("1"), bound)
    k = calls["n"] + 1 if index_one_done else 1
    failing, _ = _interrupt_at(k)
    with patch.object(consequence, "_permuted_local", failing), pytest.raises(_Interrupted):
        logical_consequence(T, premises, goal, bound)
    assert [len(tables) for tables in _tables(T).values()] == [int(index_one_done), 0]
    expected = _outcome(logical_consequence(_fresh(T), premises, goal, bound))
    assert _outcome(logical_consequence(T, premises, goal, bound)) == expected
    assert [len(tables) for tables in _tables(T).values()] == [1, 1]


def test_copies_of_a_searched_signature_carry_no_table():
    T = parse_theory(TWO_UNARY)
    logical_consequence(T, [lf(T, "1: exists x. p(x)")], lf(T, "2: exists x. s(x)"), SearchBound(2, 1))
    for sig in T.signatures.values():
        assert sig.__dict__.get("_parts")
        for clone in (pickle.loads(pickle.dumps(sig)), copy.deepcopy(sig)):
            assert clone == sig and "_parts" not in clone.__dict__
    for clone in (pickle.loads(pickle.dumps(T)), copy.deepcopy(T)):
        assert clone == T and not any(_tables(clone).values())


def test_entail_rounds_build_each_part_table_once():
    # one round of the entail benchmark asks for many (signature, bound)
    # pairs more than once; a second round builds nothing
    texts, specs, _ = generators.build("entail", 1)
    ops = workloads.make_ops(workloads.Context(texts, Tracer(False)), specs)
    built = []
    real = consequence._index_parts

    def counting(sig, bound, nonempty=False):
        built.append((id(sig), bound, nonempty))
        return real(sig, bound, nonempty)

    with patch.object(consequence, "_index_parts", counting):
        for op in ops:
            assert op.check(op.call()) is None, op.name
        first_round = list(built)
        for op in ops:
            assert op.check(op.call()) is None, op.name
    assert built == first_round
    assert len(built) == len(set(built)) > 0
