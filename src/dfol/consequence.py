"""Bounded-enumeration decision procedure for logical consequence and
bridge-rule entailment, with counterexample extraction.

Logical consequence quantifies over all models of a theory, which is
undecidable in general; this module searches the finite space of models
within a SearchBound (domain sizes and local-model-set sizes per index) and
returns either a counterexample or the explicitly bound-labeled verdict
`holds_within_bound`, which is not a proof.

A premise set entails a goal on a fixed model exactly when the model
satisfies the bridge rule `premises ==> goal`: every strictly
premise-admissible assignment satisfying the premises extends to one
satisfying the goal.  The search therefore reuses bridge-rule satisfaction
from module semantics, with each rule compiled once per search.

One staged depth-first search serves both entry points.  Its stages are
the indices, each followed by the domain relations whose later endpoint it
is; every bridge rule and arrow-bearing axiom is checked (memoized on the
choices it reads) as soon as its last stage is chosen, and arrow-free
axioms filter each index's candidate parts up front.  logical_consequence
adds the query as a check that must fail, stages only the indices and
relations some check reads (the rest get a one-element domain with an
empty local-model set), and stops at the first leaf.  enumerate_models
stages every index and relation and keeps each leaf that is new up to
renaming: every part is the least of its orbit, so the parts'
automorphisms, found while canonicalizing them, break the joint symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

from .semantics import (
    Assignment,
    DfolModel,
    LocalModel,
    _axiom_plan,
    _relation_key,
    _rule_plan,
    _RulePlan,
    satisfies_bridge_rule,
    validate_model,
)
from .syntax import (
    BridgeRule,
    LabeledFormula,
    Signature,
    Theory,
    arrow_vars,
)

__all__ = [
    "SearchBound",
    "Verdict",
    "enumerate_models",
    "logical_consequence",
    "entails_bridge_rule",
]


@dataclass(frozen=True)
class SearchBound:
    """Per-index caps on domain size and local-model-set size."""

    max_domain_size: int = 3
    max_local_models: int = 3

    def __post_init__(self) -> None:
        if self.max_domain_size < 1 or self.max_local_models < 1:
            raise ValueError("search bound components must be at least 1")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded search: holds within the bound, or a
    counterexample model and premise assignment that re-validate."""

    holds: bool
    bound: SearchBound
    model: DfolModel | None = None
    assignment: Assignment | None = None

    @classmethod
    def holds_within_bound(cls, bound: SearchBound) -> "Verdict":
        return cls(True, bound)

    @classmethod
    def counterexample(
        cls, bound: SearchBound, model: DfolModel, assignment: Assignment
    ) -> "Verdict":
        return cls(False, bound, model, assignment)

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# Local-model and relation enumeration
# ---------------------------------------------------------------------------


def _domain(size: int) -> tuple[str, ...]:
    return tuple(f"d{k}" for k in range(1, size + 1))


def _interp_streams(sig: Signature, domain: tuple[str, ...], names: set[str] | None):
    """Deterministic streams of interpretation choices for the chosen symbols
    (names=None means all); yields (consts, funcs, preds) triples."""
    const_names = [c for c in sorted(sig.consts) if names is None or c in names]
    func_decls = [(f, a) for f, a in sorted(sig.funcs) if names is None or f in names]
    pred_decls = [(p, a) for p, a in sorted(sig.preds) if names is None or p in names]

    const_choices = [[(c, v) for v in domain] for c in const_names]

    func_choices = []
    for f, arity in func_decls:
        keys = sorted(product(domain, repeat=arity))
        tables = [
            (f, tuple(zip(keys, values)))
            for values in product(domain, repeat=len(keys))
        ]
        func_choices.append(tables)

    pred_choices = []
    for p, arity in pred_decls:
        tuples = sorted(product(domain, repeat=arity))
        exts = [
            (p, frozenset(t for k, t in enumerate(tuples) if mask >> k & 1))
            for mask in range(1 << len(tuples))
        ]
        pred_choices.append(exts)

    for combo in product(*const_choices, *func_choices, *pred_choices):
        consts = tuple(combo[: len(const_choices)])
        funcs = tuple(combo[len(const_choices) : len(const_choices) + len(func_choices)])
        preds = tuple(combo[len(const_choices) + len(func_choices) :])
        yield consts, funcs, preds


def _local_models(
    sig: Signature, domain: tuple[str, ...]
) -> Iterator[tuple[LocalModel, LocalModel]]:
    """All local models over the domain, as (complete-fragment part, model);
    models sharing the first component agree on every complete symbol."""
    complete_names = {name for _, name in sig.complete}
    incomplete_names = set(sig.symbol_names()) - complete_names
    for cc, cf, cp in _interp_streams(sig, domain, complete_names):
        shared = LocalModel(domain, cc, cf, cp)
        for ic, if_, ip in _interp_streams(sig, domain, incomplete_names):
            yield shared, LocalModel(
                domain,
                tuple(sorted(cc + ic)),
                tuple(sorted(cf + if_)),
                tuple(sorted(cp + ip)),
            )


def _permuted_local(m: LocalModel, pi: dict[str, str]) -> LocalModel:
    return LocalModel(
        m.domain,
        tuple(sorted((n, pi[v]) for n, v in m.consts)),
        tuple(
            sorted(
                (
                    n,
                    tuple(
                        sorted(
                            (tuple(pi[x] for x in args), pi[v]) for args, v in table
                        )
                    ),
                )
                for n, table in m.funcs
            )
        ),
        tuple(
            sorted(
                (n, frozenset(tuple(pi[x] for x in t) for t in ext))
                for n, ext in m.preds
            )
        ),
    )


def _part_key(ms: tuple[LocalModel, ...]):
    return tuple(sorted(m.key() for m in ms))


def _index_parts(
    sig: Signature, bound: SearchBound, nonempty: bool = False
) -> list[tuple[tuple[str, ...], tuple[LocalModel, ...], tuple[dict[str, str], ...]]]:
    """Canonical (domain, model set, automorphisms) choices for one index,
    in deterministic order: domain sizes ascending, then complete-fragment
    interpretation, then model sets by (cardinality, position).  A part is
    kept only if no renaming of its domain elements yields a smaller
    canonical key; the renamings that yield the same key, identity first,
    are its automorphisms."""
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


def _relation_subsets(
    src: tuple[str, ...], tgt: tuple[str, ...]
) -> Iterator[frozenset[tuple[str, str]]]:
    pairs = sorted(product(src, tgt))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


# ---------------------------------------------------------------------------
# The staged search
# ---------------------------------------------------------------------------

_Stage = tuple[str, object]  # ("idx", index) or ("rel", relation key)


def _formula_components(lf: LabeledFormula) -> set[_Stage]:
    """The stages a check over lf reads: its index, and for every arrow
    variable the relation it maps through and that relation's far endpoint,
    whose domain arrow admissibility sweeps."""
    comps: set[_Stage] = {("idx", lf.index)}
    for av in arrow_vars(lf.formula):
        comps.add(("idx", av.foreign))
        comps.add(("rel", _relation_key(lf.index, av)))
    return comps


def _components(formulas: Iterable[LabeledFormula]) -> tuple[_Stage, ...]:
    return tuple(set().union(*map(_formula_components, formulas)))


def _theory_checks(T: Theory) -> list[tuple[_RulePlan, tuple[_Stage, ...], bool]]:
    """T's bridge rules and arrow-bearing axioms, each compiled once, with
    the stages it reads and the verdict it must have (both must hold).
    Arrow-free axioms filter each index's parts instead."""
    checks = [(_rule_plan(r), _components([*r.premises, r.conclusion]), True) for r in T.rules]
    checks += [
        (_axiom_plan(ax), _components([ax]), True) for ax in T.axioms if arrow_vars(ax.formula)
    ]
    return checks


class _StagedSearch:
    """Depth-first search over the models of T on the given indices and
    relations, one stage per component: indices in the order given, each
    relation right after its later endpoint.

    Every check is run once its last stage is chosen, memoized on the
    choices of the stages it reads, and prunes the branch unless its
    verdict is the required one.  `leaves()` yields the live model at
    each surviving leaf; `results[c]` then holds check c's (verdict,
    witness) for that leaf, and `choice` the option taken at each stage.
    """

    def __init__(
        self,
        T: Theory,
        bound: SearchBound,
        indices: list[str],
        rel_keys: Iterable[tuple[str, str, str | None]],
        checks: list[tuple[_RulePlan, tuple[_Stage, ...], bool]],
        nonempty: bool = False,
    ):
        at = {i: t for t, i in enumerate(indices)}
        rel_keys = sorted(rel_keys, key=lambda k: (k[0], k[1], k[2] or ""))
        self.stages: list[_Stage] = []
        for i in indices:
            self.stages.append(("idx", i))
            self.stages += [("rel", k) for k in rel_keys if max(at[k[0]], at[k[1]]) == at[i]]
        position = {name: t for t, (_, name) in enumerate(self.stages)}
        self.ready: dict[int, list] = {}
        for c, (plan, comps, must_hold) in enumerate(checks):
            ready = max(position[name] for _, name in comps)
            self.ready.setdefault(ready, []).append((c, plan, comps, must_hold))
        self.parts = {}
        for i in indices:
            local = [
                _axiom_plan(ax) for ax in T.axioms if ax.index == i and not arrow_vars(ax.formula)
            ]
            self.parts[i] = [
                part
                for part in _index_parts(T.signature(i), bound, nonempty)
                if all(plan.check(DfolModel({i: part[0]}, {i: part[1]}, {}))[0] for plan in local)
            ]
        self.model = DfolModel({}, {}, {})
        # Interned choice ids keep memo keys small integers instead of deep
        # structures that would be re-hashed on every lookup.
        self.choice: dict[object, int] = {name: -1 for _, name in self.stages}
        self.results: list[tuple[bool, Assignment | None] | None] = [None] * len(checks)
        self.memo: dict[tuple[int, tuple[int, ...]], tuple[bool, Assignment | None]] = {}

    def _passes(self, t: int) -> bool:
        for c, plan, comps, must_hold in self.ready.get(t, ()):
            key = (c, tuple(self.choice[name] for _, name in comps))
            hit = self.memo.get(key)
            if hit is None:
                hit = self.memo[key] = plan.check(self.model)
            self.results[c] = hit
            if hit[0] != must_hold:
                return False
        return True

    def leaves(self, t: int = 0) -> Iterator[DfolModel]:
        if t == len(self.stages):
            yield self.model
            return
        kind, name = self.stages[t]
        M = self.model
        if kind == "idx":
            options = self.parts[name]
        else:
            options = _relation_subsets(M.domains[name[0]], M.domains[name[1]])
        # A stage's old value needs no clearing on the way back: checks
        # ready at a stage read only that stage and earlier ones.
        for choice, option in enumerate(options):
            if kind == "idx":
                M.domains[name], M.model_sets[name], _ = option
            else:
                M.relations[name] = option
            self.choice[name] = choice
            if self._passes(t):
                yield from self.leaves(t + 1)


def _is_theory_model(T: Theory, M: DfolModel) -> bool:
    plans = [_axiom_plan(ax) for ax in T.axioms] + [_rule_plan(r) for r in T.rules]
    return all(plan.check(M)[0] for plan in plans)


def _labels_of(T: Theory) -> list[str | None]:
    labels: set[str | None] = {None}
    for lf in list(T.axioms) + [
        f for r in T.rules for f in list(r.premises) + [r.conclusion]
    ]:
        for av in arrow_vars(lf.formula):
            labels.add(av.label)
    return sorted(labels, key=lambda x: (x is not None, x))


def enumerate_models(T: Theory, bound: SearchBound) -> Iterator[DfolModel]:
    """Every model of T (axioms and bridge rules) within the bound, up to
    renaming of domain elements, in deterministic order.

    Each part is the least of its orbit, so a renaming between two leaves
    maps every part onto itself: it lies in the product of the parts'
    automorphism groups, and the least relation tuple over that product
    tells the leaves apart."""
    indices = list(T.indices)
    rel_keys = [(i, j, label) for i in indices for j in indices if i != j for label in _labels_of(T)]
    search = _StagedSearch(T, bound, indices, rel_keys, _theory_checks(T))
    seen: set = set()
    for M in search.leaves():
        renamings = product(*(search.parts[i][search.choice[i]][2] for i in indices))
        key = (
            tuple(search.choice[i] for i in indices),
            min(
                tuple(
                    tuple(sorted((pi[src][d], pi[tgt][e]) for d, e in M.relations[(src, tgt, label)]))
                    for src, tgt, label in rel_keys
                )
                for pi in (dict(zip(indices, pis)) for pis in renamings)
            ),
        )
        if key not in seen:
            seen.add(key)
            yield DfolModel(dict(M.domains), dict(M.model_sets), dict(M.relations))


# ---------------------------------------------------------------------------
# Consequence
# ---------------------------------------------------------------------------


def _complete_counterexample(T: Theory, M: DfolModel) -> DfolModel:
    """Extend a projected model to all of T's indices: fresh one-element
    domains with empty local-model sets satisfy any arrow-free axiom."""
    domains = dict(M.domains)
    model_sets = dict(M.model_sets)
    for i in T.indices:
        if i not in domains:
            domains[i] = _domain(1)
            model_sets[i] = ()
    return DfolModel(domains, model_sets, dict(M.relations))


def logical_consequence(
    T: Theory,
    premises: Iterable[LabeledFormula],
    goal: LabeledFormula,
    bound: SearchBound = SearchBound(),
    *,
    _nonempty_model_sets: bool = False,
) -> Verdict:
    """Decide premises |= goal over all models of T within the bound.

    Returns a counterexample exactly when some model of T's axioms and
    bridge rules admits a strictly premise-admissible assignment that
    satisfies every premise but extends to no admissible assignment
    satisfying the goal.  Free plain variables are swept universally with
    the premises; only the goal's own new arrow variables are searched
    existentially, mirroring bridge-rule satisfaction.
    """
    premises = tuple(premises)
    query = BridgeRule(premises, goal)
    checks = _theory_checks(T)
    query_comps = _components([*premises, goal])
    checks.append((_rule_plan(query), query_comps, False))
    # Only the components some check reads can influence the query; the
    # rest are fixed by the completion.
    involved = {c for _, comps, _ in checks for c in comps}
    # Indices the query itself touches come first: once they are staged the
    # query's verdict is fixed, and branches where it already holds are
    # pruned without enumerating the remaining components.
    indices = sorted(
        (i for i in T.indices if ("idx", i) in involved),
        key=lambda i: (("idx", i) not in query_comps, T.indices.index(i)),
    )
    rel_keys = [name for kind, name in involved if kind == "rel"]
    search = _StagedSearch(T, bound, indices, rel_keys, checks, _nonempty_model_sets)
    M = next(search.leaves(), None)
    if M is None:
        return Verdict.holds_within_bound(bound)
    witness = search.results[-1][1]  # the query is the last check
    counter = _complete_counterexample(T, M)
    _revalidate(T, counter, query, witness)
    return Verdict.counterexample(bound, counter, witness)


def _revalidate(
    T: Theory, M: DfolModel, query: BridgeRule, witness: Assignment
) -> None:
    """Counterexamples must re-check negatively through module semantics."""
    problems = validate_model(T, M)
    if problems:
        raise RuntimeError(f"counterexample fails validation: {problems[0]}")
    if not _is_theory_model(T, M):
        raise RuntimeError("counterexample does not satisfy the theory")
    ok, found = satisfies_bridge_rule(M, query)
    if ok:
        raise RuntimeError("counterexample satisfies the query after all")
    del found  # the first failing assignment is the reported witness


def entails_bridge_rule(
    T: Theory, candidate: BridgeRule, bound: SearchBound = SearchBound()
) -> Verdict:
    """candidate is entailed by T's bridge rules iff its conclusion follows
    from its premises over all models of T within the bound."""
    return logical_consequence(T, candidate.premises, candidate.conclusion, bound)
