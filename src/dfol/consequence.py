"""Bounded-enumeration decision procedure for logical consequence and
bridge-rule entailment, with counterexample extraction.

Logical consequence quantifies over all models of a theory, which is
undecidable in general; this module searches the finite space of models
within a SearchBound (domain sizes and local-model-set sizes per index,
and whether empty local-model sets count) and returns either a
counterexample or the explicitly bound-labeled verdict
`holds_within_bound`, which is not a proof.

A premise set entails a goal on a fixed model exactly when the model
satisfies the bridge rule `premises ==> goal`: every strictly
premise-admissible assignment satisfying the premises extends to one
satisfying the goal.  The search therefore reuses bridge-rule satisfaction
from module semantics, with each rule compiled once (the plan is kept on
the rule object).  entails_bridge_rule searches with the candidate rule
itself, so a candidate asked about again reuses its plan.

One staged depth-first search serves both entry points.  Its stages are
the indices, each followed by the domain relations whose later endpoint it
is.  What a check reads comes from its compiled plan alone: the indices of
`_RulePlan.reads` and the relation keys of `_RulePlan.relations` are its
stages.  Every bridge rule, and every axiom that reads a relation, is
checked as soon as its last stage is chosen; the other axioms filter each
index's candidate parts up front.  logical_consequence adds the query as a
check that must fail, stages only the indices and relations some check
reads (the rest get a one-element domain with an empty local-model set),
and stops at the first leaf.  enumerate_models stages every index of T and
every relation with a label some check reads, and yields every leaf.

Each index's parts are kept in a table on its frozen Signature, one per
bound and set of arrow-free local axioms at that index (`_part_table`):
the canonical parts that pass those axioms, built once and stored only
when the build has finished, and, for each symbol set a check reads
there, the class of each part.  A plan reads an index's part only
through its domain and through the symbols its formulas at that index
name, so parts with one domain and one set of local models restricted to
those symbols form a class.  A check's verdict and witness are memoized
on the class ids of its indices and the masks of its relations.

An index stage walks classes, not parts (Freuder, AAAI 1991): each check
ready there is decided once per class of the parts still alive, the
check that must fail (the query) first, and only the parts whose classes
pass every check are walked, in part order.  A must-hold rule whose slots
have no arrow conditions but whose conclusion searches new arrow
variables is also checked as soon as its last index is chosen, with each
relation it reads set to the full product of the two domains (forward
checking, Haralick & Elliott, AIJ 14, 1980): its premise assignments do
not depend on the relations, and a larger relation only offers its
conclusion more extensions, so failing there means failing under every
relation.  Both prune only branches a search over parts would prune at a
later stage, so the search reaches the same leaves in the same order,
with the same witnesses, as one keyed on full choices.

Symmetry is broken by lex-leader pruning (Crawford, Ginsberg, Luks & Roy,
KR 1996) rather than by comparing keys under every renaming.  Each
index's parts are the least local-model sets of their orbits, found by
comparing sorted ranks of the domain's local models under a rank table per
permutation, and each part records its automorphisms.  The search
carries the joint renamings that fix its choices so far and skips a
relation that one of them maps to a smaller mask, so it reaches exactly
one model of every isomorphism class, the least in search order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .semantics import (
    Assignment,
    DfolModel,
    LocalModel,
    _axiom_plan,
    _rule_plan,
    _RulePlan,
    check_theory,
    satisfies_bridge_rule,
    validate_model,
)
from .syntax import BridgeRule, LabeledFormula, Signature, Theory

__all__ = [
    "SearchBound",
    "Verdict",
    "enumerate_models",
    "logical_consequence",
    "entails_bridge_rule",
]


@dataclass(frozen=True)
class SearchBound:
    """Per-index caps on domain size and local-model-set size.  With
    nonempty_model_sets, only models whose every local-model set holds at
    least one local model are searched."""

    max_domain_size: int = 3
    max_local_models: int = 3
    nonempty_model_sets: bool = False

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


def _index_parts(
    sig: Signature, bound: SearchBound, nonempty: bool = False
) -> list[tuple[tuple[str, ...], tuple[LocalModel, ...], tuple[dict[str, str], ...]]]:
    """Canonical (domain, model set, automorphisms) choices for one index,
    in deterministic order: domain sizes ascending, then complete-fragment
    interpretation, then model sets by (cardinality, position).

    The local models of each domain are ranked by key once, and each
    renaming of the domain becomes a table from model to the rank of its
    image.  A model set is kept only if no renaming maps it to a set of
    smaller sorted ranks; the renamings that map it onto itself, identity
    first, are its automorphisms.  Ranks keep key order, so this is the
    order of the sets' sorted keys.  With nonempty, the empty set is left
    out (the search passes its bound's nonempty_model_sets)."""
    parts = []
    for size in range(1, bound.max_domain_size + 1):
        domain = _domain(size)
        identity, *perms = [dict(zip(domain, image)) for image in permutations(domain)]
        models: list[LocalModel] = []
        groups: dict = {}
        for shared, m in _local_models(sig, domain):
            groups.setdefault(shared.key(), []).append(len(models))
            models.append(m)
        rank_of = {key: r for r, key in enumerate(sorted(m.key() for m in models))}
        rank = [rank_of[m.key()] for m in models]
        images = [[rank_of[_permuted_local(m, pi).key()] for m in models] for pi in perms]
        # With complete symbols every group offers the empty set.
        emitted: set = set()
        for _, members in sorted(groups.items()):
            for card in range(0 if not nonempty else 1, min(bound.max_local_models, len(members)) + 1):
                for combo in combinations(members, card):
                    own = sorted(map(rank.__getitem__, combo))
                    key = tuple(own)
                    if key in emitted:
                        continue
                    autos = [identity]
                    for pi, image in zip(perms, images):
                        renamed = sorted(map(image.__getitem__, combo))
                        if renamed < own:
                            break
                        if renamed == own:
                            autos.append(pi)
                    else:
                        emitted.add(key)
                        parts.append((domain, tuple(models[k] for k in combo), tuple(autos)))
    return parts


def _relation(pairs: Sequence[tuple[str, str]], mask: int) -> frozenset[tuple[str, str]]:
    """The relation a mask stands for: bit k for pairs[k].  The search
    numbers the relations from src to tgt by masks over their sorted pairs."""
    return frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


_Renaming = dict[str, dict[str, str]]  # index -> domain permutation; absent means identity


def _mask_images(
    group: Sequence[_Renaming], domains: dict[str, tuple[str, ...]], src: str, tgt: str
) -> list[list[int] | None]:
    """For each renaming in group, the table from the mask of a relation
    from src to tgt (as `_relation` numbers them) to the mask of its
    image, or None where the renaming fixes every pair.  Renamings that
    agree on src and tgt share one table."""
    pairs = sorted(product(domains[src], domains[tgt]))
    position = {p: k for k, p in enumerate(pairs)}
    tables: dict[tuple[int, ...], list[int] | None] = {}
    out = []
    for g in group:
        ps, pt = g.get(src), g.get(tgt)
        perm = tuple(position[(ps[d] if ps else d, pt[e] if pt else e)] for d, e in pairs)
        if perm not in tables:
            table = None
            if perm != tuple(range(len(pairs))):
                table = [0]
                for mask in range(1, 1 << len(pairs)):
                    low = mask & -mask
                    table.append(table[mask ^ low] | 1 << perm[low.bit_length() - 1])
            tables[perm] = table
        out.append(tables[perm])
    return out


# ---------------------------------------------------------------------------
# The staged search
# ---------------------------------------------------------------------------

def _theory_checks(T: Theory) -> list[tuple[_RulePlan, bool]]:
    """T's bridge rules and the axioms that read a relation, each compiled
    once, with the verdict it must have (both must hold).  The other
    axioms filter each index's parts instead."""
    checks = [(_rule_plan(r), True) for r in T.rules]
    return checks + [(plan, True) for plan in map(_axiom_plan, T.axioms) if plan.relations]


_Part = tuple[tuple[str, ...], tuple[LocalModel, ...], tuple[dict[str, str], ...]]


class _PartTable:
    """The canonical parts of one index that pass its arrow-free local
    axioms, in `_index_parts` order, and their classes per symbol set."""

    __slots__ = ("parts", "_classes")

    def __init__(self, parts: list[_Part]):
        self.parts = parts
        self._classes: dict[frozenset, tuple[list[int], list[list[int]]]] = {}

    def classes(self, symbols: frozenset) -> tuple[list[int], list[list[int]]]:
        """(each part's class id, each class's parts in part order) for a
        check reading `symbols` at this index: parts share a class when
        they have one domain and one set of local models restricted to
        those symbols.  Computed on first use, stored whole."""
        found = self._classes.get(symbols)
        if found is None:
            order = sorted(symbols)
            ids: dict = {}
            of_part = [
                ids.setdefault(
                    (domain, frozenset(tuple(m.interp_key(*sym) for sym in order) for m in models)),
                    len(ids),
                )
                for domain, models, _ in self.parts
            ]
            members: list[list[int]] = [[] for _ in ids]
            for part, k in enumerate(of_part):
                members[k].append(part)
            found = self._classes[symbols] = (of_part, members)
        return found


def _part_table(T: Theory, i: str, bound: SearchBound) -> _PartTable:
    """Index i's part table, kept on its frozen signature per bound and
    arrow-free local axioms, as plans are kept on rules.  The signature
    cannot change and the key holds everything else the parts depend on,
    so a table never goes stale.  It is stored only once its parts are
    built, so a build cut short by an exception leaves nothing behind;
    pickling leaves the tables out (syntax._without_caches)."""
    sig = T.signature(i)
    tables = sig.__dict__.get("_parts")
    if tables is None:
        tables = {}
        object.__setattr__(sig, "_parts", tables)
    axioms = tuple(ax for ax in T.axioms if ax.index == i and not _axiom_plan(ax).relations)
    table = tables.get((bound, axioms))
    if table is None:
        plans = [_axiom_plan(ax) for ax in axioms]
        parts = [
            part
            for part in _index_parts(sig, bound, bound.nonempty_model_sets)
            if all(plan.check(DfolModel({i: part[0]}, {i: part[1]}, {}))[0] for plan in plans)
        ]
        table = tables[(bound, axioms)] = _PartTable(parts)
    return table


class _StagedSearch:
    """Depth-first search over the models of T on the given indices and
    relations, one stage for each: indices in the order given, each
    relation right after its later endpoint.

    A check is a plan and the verdict it must have.  Its stages are the
    indices of its `reads` and the keys of its `relations`; it is run once
    its last stage is chosen, the one that must fail first, and prunes the
    branch unless its verdict is the required one.  Verdicts are memoized
    per check on the masks of the relations it reads and, for each index
    it reads, on the class of the chosen part in that index's kept
    `_PartTable`.  Building a search does no work on parts beyond looking
    up those tables.

    At an index stage each ready check is decided once per class of the
    parts still alive, and then `lookahead` checks run the same way: a
    must-hold plan whose slots have no arrow conditions and whose
    conclusion has `missing` arrow variables is tried once its last index
    is chosen, with every relation it reads set to the full product of its
    endpoints' domains.  It can only hold more often on a larger relation,
    so a failure there prunes the branch before any of its relations is
    chosen.  Only the parts whose classes pass every check are walked, in
    part order.  Where a check's class ids are None (a key on the full
    choice), each part is its own class.

    Relations are tried in ascending mask order, and one that is not the
    least of its orbit under the renamings fixing the earlier choices is
    skipped before any check runs.  Checks are invariant under renaming,
    so the first surviving leaf is the first leaf of the unpruned search.
    `leaves()` yields the live model at each surviving leaf; `results[c]`
    then holds check c's (verdict, witness) for that leaf, and `choice`
    the option taken at each stage.
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
        self.tables = {i: _part_table(T, i, bound) for i in indices}
        self.ready: dict[int, list] = {}
        self.lookahead: dict[int, list] = {}
        # The check that must fail goes first at its stage: it prunes the
        # most branches, and a leaf needs every verdict either way.
        for c, (plan, must_hold) in sorted(enumerate(checks), key=lambda e: e[1][1]):
            at_indices = [(i, self.tables[i].classes(symbols)[0]) for i, symbols in plan.reads.items()]
            keyed = at_indices + [(key, None) for key in plan.relations]
            ready = max(position[name] for name, _ in keyed)
            self.ready.setdefault(ready, []).append((c, plan, keyed, must_hold))
            if must_hold and plan.missing and not any(plan.sources):
                last = max(position[i] for i in plan.reads)
                if last < ready:
                    self.lookahead.setdefault(last, []).append((c, plan, at_indices))
        self.model = DfolModel({}, {}, {})
        # Interned choice ids keep memo keys small integers instead of deep
        # structures that would be re-hashed on every lookup.
        self.choice: dict[object, int] = {name: -1 for _, name in self.stages}
        self.results: list[tuple[bool, Assignment | None] | None] = [None] * len(checks)
        self.memo: dict[tuple[int, tuple[int, ...]], tuple[bool, Assignment | None]] = {}
        # Index stages memoize per class: (check, relaxed, key of its other
        # stages) -> class id -> verdict.
        self.class_memo: dict[tuple, dict[int, tuple[bool, Assignment | None]]] = {}
        self.stage_checks: dict[int, list] = {}

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

    def _stage_checks(self, t: int, name: str) -> list:
        """The checks run at index stage t, as (check, plan, keyed, verdict
        it must have, relaxed, its class ids at index `name`): the ready
        ones in run order, then the lookahead ones."""
        at_t = self.stage_checks.get(t)
        if at_t is None:
            # built on the first visit, so that it follows `ready` as a
            # subclass may have rewritten it
            checks = [(c, plan, keyed, must_hold, False) for c, plan, keyed, must_hold in self.ready.get(t, ())]
            checks += [(c, plan, keyed, True, True) for c, plan, keyed in self.lookahead.get(t, ())]
            at_t = self.stage_checks[t] = [(*check, dict(check[2])[name]) for check in checks]
        return at_t

    def _relaxed_check(self, plan: _RulePlan) -> tuple[bool, Assignment | None]:
        """plan's verdict with each relation it reads set to the full
        product of its endpoints' domains; the model's relations are left
        as they were."""
        M = self.model
        kept = {key: M.relations.get(key) for key in plan.relations}
        for src, tgt, label in plan.relations:
            M.relations[(src, tgt, label)] = frozenset(product(M.domains[src], M.domains[tgt]))
        try:
            return plan.check(M)
        finally:
            for key, rel in kept.items():
                if rel is None:
                    del M.relations[key]
                else:
                    M.relations[key] = rel

    def _index_choices(self, t: int, name: str) -> tuple[list[int] | range, list]:
        """The parts of index `name` that pass every check of stage t, in
        part order, and for each ready check (c, class ids, verdict per
        class) to record its result with.

        Each check is decided on one part of each of its classes among the
        parts still alive, and its verdicts are memoized per class under
        the choices of its other stages, which stay fixed while this stage
        is walked.  The first check with class ids walks the table's
        classes; the others walk the parts the earlier ones kept."""
        parts, M, choice = self.tables[name].parts, self.model, self.choice
        alive: list[int] | None = None
        recorded = []
        for c, plan, keyed, must_hold, relaxed, ids in self._stage_checks(t, name):
            rest = tuple([choice[n] if i is None else i[choice[n]] for n, i in keyed if n != name])
            hits = self.class_memo.setdefault((c, relaxed, rest), {})
            if alive is None and ids is not None:
                walk = [(members[0], members) for members in self.tables[name].classes(plan.reads[name])[1]]
            else:
                walk = [(part, (part,)) for part in (range(len(parts)) if alive is None else alive)]
            kept: list[int] = []
            for part, members in walk:
                k = part if ids is None else ids[part]
                hit = hits.get(k)
                if hit is None:
                    M.domains[name], M.model_sets[name], _ = parts[part]
                    choice[name] = part
                    hit = hits[k] = self._relaxed_check(plan) if relaxed else plan.check(M)
                if hit[0] == must_hold:
                    kept += members
            alive = sorted(kept)
            if not alive:
                break
            if not relaxed:
                recorded.append((c, ids, hits))
        return (range(len(parts)) if alive is None else alive), recorded

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
            parts = self.tables[name].parts
            alive, recorded = self._index_choices(t, name)
            for choice in alive:
                domain, models, autos = parts[choice]
                M.domains[name], M.model_sets[name] = domain, models
                self.choice[name] = choice
                for c, ids, hits in recorded:
                    self.results[c] = hits[choice if ids is None else ids[choice]]
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


def _labels_of(T: Theory) -> list[str | None]:
    """The link labels of the relations T's checks read, None first."""
    labels = {key[2] for plan, _ in _theory_checks(T) for key in plan.relations}
    return sorted(labels | {None}, key=lambda x: (x is not None, x))


def enumerate_models(T: Theory, bound: SearchBound) -> Iterator[DfolModel]:
    """Every model of T (axioms and bridge rules) within the bound, up to
    renaming of domain elements, in deterministic order.

    Each part is the least of its orbit, so a renaming between two leaves
    maps every part onto itself: it lies in the product of the parts'
    automorphism groups.  The search reaches only the leaf whose relation
    masks are least under that product, so each model comes once."""
    indices = list(T.indices)
    rel_keys = [(i, j, label) for i in indices for j in indices if i != j for label in _labels_of(T)]
    search = _StagedSearch(T, bound, indices, rel_keys, _theory_checks(T))
    for M in search.leaves():
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
) -> Verdict:
    """Decide premises |= goal over all models of T within the bound.

    Returns a counterexample exactly when some model of T's axioms and
    bridge rules admits a strictly premise-admissible assignment that
    satisfies every premise but extends to no admissible assignment
    satisfying the goal.  Free plain variables are swept universally with
    the premises; only the goal's own new arrow variables are searched
    existentially, mirroring bridge-rule satisfaction.
    """
    return entails_bridge_rule(T, BridgeRule(tuple(premises), goal), bound)


def _revalidate(
    T: Theory, M: DfolModel, query: BridgeRule, witness: Assignment
) -> None:
    """Counterexamples must re-check negatively through module semantics."""
    problems = validate_model(T, M)
    if problems:
        raise RuntimeError(f"counterexample fails validation: {problems[0]}")
    if not check_theory(T, M).ok:
        raise RuntimeError("counterexample does not satisfy the theory")
    ok, found = satisfies_bridge_rule(M, query)
    if ok:
        raise RuntimeError("counterexample satisfies the query after all")
    del found  # the first failing assignment is the reported witness


def entails_bridge_rule(
    T: Theory, candidate: BridgeRule, bound: SearchBound = SearchBound()
) -> Verdict:
    """candidate is entailed by T's bridge rules iff its conclusion follows
    from its premises over all models of T within the bound.  The search
    runs on the candidate itself, so its compiled plan is kept on it."""
    plan = _rule_plan(candidate)
    checks = _theory_checks(T) + [(plan, False)]
    # Only the indices and relations some check reads can influence the
    # query; the rest are fixed by the completion.
    read = {i for p, _ in checks for i in p.reads}
    # Indices the query itself reads come first: once they are staged the
    # query's verdict is fixed, and branches where it already holds are
    # pruned without enumerating the remaining stages.
    indices = sorted(
        (i for i in T.indices if i in read),
        key=lambda i: (i not in plan.reads, T.indices.index(i)),
    )
    rel_keys = {key for p, _ in checks for key in p.relations}
    search = _StagedSearch(T, bound, indices, rel_keys, checks)
    M = next(search.leaves(), None)
    if M is None:
        return Verdict.holds_within_bound(bound)
    witness = search.results[-1][1]  # the query is the last check
    counter = _complete_counterexample(T, M)
    _revalidate(T, counter, candidate, witness)
    return Verdict.counterexample(bound, counter, witness)
