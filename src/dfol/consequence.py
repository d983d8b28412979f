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

Enumeration is staged: indices and domain relations that cannot influence
the query (they occur in no premise, goal, bridge rule, or arrow-variable
axiom) are fixed to a one-element domain with an empty local-model set,
and every axiom or rule is checked as soon as the last index or relation
it mentions has been chosen, pruning the cross product early.
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
) -> list[tuple[tuple[str, ...], tuple[LocalModel, ...]]]:
    """Canonical (domain, model set) choices for one index, in deterministic
    order: domain sizes ascending, then complete-fragment interpretation,
    then model sets by (cardinality, position).  A part is kept only if no
    renaming of its domain elements yields a smaller canonical key."""
    parts: list[tuple[tuple[str, ...], tuple[LocalModel, ...]]] = []
    for size in range(1, bound.max_domain_size + 1):
        domain = _domain(size)
        perms = [
            dict(zip(domain, image)) for image in permutations(domain) if image != domain
        ]
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
                    if any(
                        _part_key(tuple(_permuted_local(m, pi) for m in ms)) < key
                        for pi in perms
                    ):
                        continue
                    emitted.add(key)
                    parts.append((domain, ms))
    return parts


def _relation_subsets(
    src: tuple[str, ...], tgt: tuple[str, ...]
) -> Iterator[frozenset[tuple[str, str]]]:
    pairs = sorted(product(src, tgt))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


# ---------------------------------------------------------------------------
# Model enumeration (plain, spec-shaped)
# ---------------------------------------------------------------------------


def _labels_of(T: Theory) -> list[str | None]:
    labels: set[str | None] = {None}
    for lf in list(T.axioms) + [
        f for r in T.rules for f in list(r.premises) + [r.conclusion]
    ]:
        for av in arrow_vars(lf.formula):
            labels.add(av.label)
    return sorted(labels, key=lambda x: (x is not None, x))


def _theory_plans(T: Theory) -> list[_RulePlan]:
    """T's axioms, then its bridge rules, each compiled once."""
    return [_axiom_plan(ax) for ax in T.axioms] + [_rule_plan(r) for r in T.rules]


def _is_theory_model(T: Theory, M: DfolModel) -> bool:
    return all(plan.check(M)[0] for plan in _theory_plans(T))


def _joint_canonical_key(T: Theory, M: DfolModel):
    indices = list(T.indices)
    perm_space = [
        [dict(zip(M.domains[i], image)) for image in permutations(M.domains[i])]
        for i in indices
    ]
    best = None
    for pis in product(*perm_space):
        by_index = dict(zip(indices, pis))
        parts = tuple(
            _part_key(tuple(_permuted_local(m, by_index[i]) for m in M.models(i)))
            for i in indices
        )
        rels = tuple(
            (
                (src, tgt, label or ""),
                tuple(
                    sorted((by_index[src][d], by_index[tgt][e]) for d, e in pairs)
                ),
            )
            for (src, tgt, label), pairs in sorted(
                M.relations.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or "")
            )
        )
        key = (parts, rels)
        if best is None or key < best:
            best = key
    return (tuple(len(M.domains[i]) for i in indices), best)


def enumerate_models(T: Theory, bound: SearchBound) -> Iterator[DfolModel]:
    """Every model of T (axioms and bridge rules) within the bound, up to
    renaming of domain elements, in deterministic order."""
    indices = list(T.indices)
    part_lists = [_index_parts(T.signature(i), bound) for i in indices]
    labels = _labels_of(T)
    plans = _theory_plans(T)
    rel_keys = [
        (i, j, label)
        for i in indices
        for j in indices
        if i != j
        for label in labels
    ]
    seen: set = set()
    for parts in product(*part_lists):
        domains = {i: p[0] for i, p in zip(indices, parts)}
        model_sets = {i: p[1] for i, p in zip(indices, parts)}
        rel_streams = [
            [(key, rel) for rel in _relation_subsets(domains[key[0]], domains[key[1]])]
            for key in rel_keys
        ]
        for rel_combo in product(*rel_streams):
            relations = {key: rel for key, rel in rel_combo}
            M = DfolModel(dict(domains), dict(model_sets), relations)
            key = _joint_canonical_key(T, M)
            if key in seen:
                continue
            seen.add(key)
            if all(plan.check(M)[0] for plan in plans):
                yield M


# ---------------------------------------------------------------------------
# Staged consequence search
# ---------------------------------------------------------------------------


def _formula_components(lf: LabeledFormula) -> set:
    comps: set = {("idx", lf.index)}
    for av in arrow_vars(lf.formula):
        comps.add(("idx", av.foreign))
        comps.add(("rel", _relation_key(lf.index, av)))
    return comps


def _involved_components(
    T: Theory, premises: Iterable[LabeledFormula], goal: LabeledFormula
):
    """Indices and relation keys that can influence the query: those of the
    premises and goal, of every bridge rule, and of every axiom mentioning
    an arrow variable.  Arrow-free axioms at untouched indices hold in the
    empty-model-set completion, so their indices stay out."""
    comps: set = set()
    for lf in list(premises) + [goal]:
        comps |= _formula_components(lf)
    for r in T.rules:
        for lf in list(r.premises) + [r.conclusion]:
            comps |= _formula_components(lf)
    for ax in T.axioms:
        if arrow_vars(ax.formula):
            comps |= _formula_components(ax)
    indices = {name for kind, name in comps if kind == "idx"}
    rel_keys = {name for kind, name in comps if kind == "rel"}
    return indices, rel_keys


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
    involved_idx, involved_rels = _involved_components(T, premises, goal)

    query_own: set = set()
    for lf in list(premises) + [goal]:
        query_own |= _formula_components(lf)
    query_idx = {name for kind, name in query_own if kind == "idx"}
    # Indices the query itself touches come first: once they are staged the
    # query's verdict is fixed, and branches where it already holds are
    # pruned without enumerating the remaining components.
    stage_indices = [i for i in T.indices if i in involved_idx]
    stage_indices.sort(key=lambda i: (i not in query_idx, T.indices.index(i)))
    stage_rels = sorted(involved_rels, key=lambda k: (k[0], k[1], k[2] or ""))
    # Each relation stage sits right after its endpoint indices, so the
    # rules over that relation prune before unrelated indices branch.
    idx_pos = {i: t for t, i in enumerate(stage_indices)}
    stages: list[tuple[str, object]] = [("idx", i) for i in stage_indices]
    for k in sorted(stage_rels, key=lambda k: max(idx_pos[k[0]], idx_pos[k[1]])):
        after = max(idx_pos[k[0]], idx_pos[k[1]])
        spot = len(stages)
        for t, (kind, name) in enumerate(stages):
            if kind == "idx" and idx_pos[name] > after:
                spot = t
                break
        stages.insert(spot, ("rel", k))
    position = {name: t for t, (_, name) in enumerate(stages)}

    def rule_components(r: BridgeRule) -> tuple[tuple[str, object], ...]:
        comps: set[tuple[str, object]] = set()
        for lf in list(r.premises) + [r.conclusion]:
            comps |= _formula_components(lf)
        # Arrow admissibility sweeps both endpoint domains, so a relation
        # component pulls its endpoints in as dependencies as well.
        for kind, name in tuple(comps):
            if kind == "rel":
                comps.add(("idx", name[0]))
                comps.add(("idx", name[1]))
        return tuple(sorted(comps, key=lambda c: (c[0], str(c[1]))))

    # Axioms touch one index only, so they filter that index's candidate
    # parts up front instead of re-running inside the stage product.
    ready_at: dict[int, list[tuple[_RulePlan, tuple[tuple[str, object], ...]]]] = {}
    for r in T.rules:
        comps = rule_components(r)
        ready = max(position[name] for _, name in comps)
        ready_at.setdefault(ready, []).append((_rule_plan(r), comps))

    domains: dict[str, tuple[str, ...]] = {}
    model_sets: dict[str, tuple[LocalModel, ...]] = {}
    relations: dict[tuple[str, str, str | None], frozenset] = {}
    M = DfolModel(domains, model_sets, relations)

    parts_cache = {
        i: _index_parts(T.signature(i), bound, nonempty=_nonempty_model_sets)
        for i in stage_indices
    }
    for i in stage_indices:
        local = [_axiom_plan(ax) for ax in T.axioms if ax.index == i]
        if local:
            kept = []
            for domain, ms in parts_cache[i]:
                probe = DfolModel({i: domain}, {i: ms}, {})
                if all(plan.check(probe)[0] for plan in local):
                    kept.append((domain, ms))
            parts_cache[i] = kept

    # Interned choice ids keep memo keys small integers instead of deep
    # structures that would be re-hashed on every lookup.
    current_choice: dict[object, int] = {name: -1 for _, name in stages}

    def state_key(comps: tuple[tuple[str, object], ...]) -> tuple:
        return tuple(current_choice[name] for _, name in comps)

    # A check's verdict depends only on the components it touches, which a
    # memo keyed by their assigned values exploits across sibling branches.
    memo: dict[tuple[tuple[int, int], tuple], tuple[bool, Assignment | None]] = {}

    def cached_check(slot: tuple[int, int], plan: _RulePlan, comps) -> tuple[bool, Assignment | None]:
        key = (slot, state_key(comps))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = plan.check(M)
        return hit

    def checks_pass(t: int) -> bool:
        for slot, (plan, comps) in enumerate(ready_at.get(t, ())):
            if not cached_check((t, slot), plan, comps)[0]:
                return False
        return True

    query_plan = _rule_plan(query)
    query_comps = rule_components(query)
    query_ready = max(position[name] for _, name in query_comps)

    def search(t: int) -> Assignment | None:
        if t > query_ready and cached_check((-1, 0), query_plan, query_comps)[0]:
            return None  # no completion below can be a countermodel
        if t == len(stages):
            return cached_check((-1, 0), query_plan, query_comps)[1]
        kind, name = stages[t]
        if kind == "idx":
            for choice, (domain, ms) in enumerate(parts_cache[name]):
                domains[name] = domain
                model_sets[name] = ms
                current_choice[name] = choice
                if checks_pass(t):
                    found = search(t + 1)
                    if found is not None:
                        return found
            del domains[name]
            del model_sets[name]
        else:
            src, tgt, _ = name
            for choice, rel in enumerate(_relation_subsets(domains[src], domains[tgt])):
                relations[name] = rel
                current_choice[name] = choice
                if checks_pass(t):
                    found = search(t + 1)
                    if found is not None:
                        return found
            del relations[name]
        return None

    witness = search(0)
    if witness is None:
        return Verdict.holds_within_bound(bound)

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
