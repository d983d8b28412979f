"""Finite-model semantics: local models, domain relations, assignments, and
satisfaction of labeled formulas and bridge rules.

A DfolModel pairs every index with a shared finite domain and a finite —
possibly empty — set of local first-order models over it, plus directed
domain relations between indices.  Satisfaction of `i: φ` under an
assignment `a` requires (i) `a` to be admissible for the formula (every
arrow variable assigned, with its relation condition met) and (ii) every
local model at `i` to satisfy φ; an empty model set therefore satisfies
everything admissible, including `i: false`.

Local satisfaction is compiled, not interpreted.  `_compile` turns a
formula, once, into nested closures `f(m, values)` against a slot layout:
each plain or arrow variable in scope reads a fixed position of the flat
list `values`, and each quantifier writes its element into one reserved
slot after the slots of the variables in scope, so evaluation builds and
copies no dict.  A quantifier that shadows a variable gets a fresh slot.
Constants, functions and predicates are looked up in the local model when
the closure runs, and a variable missing from the layout compiles to a
closure that raises `UndefinedVariableError` when reached, so errors
surface exactly where a tree walk would meet them; a node that is not a
formula or term is a `TypeError` at compile time.  `satisfies_local`,
`eval_term` and `satisfies_labeled` compile against their env's variables
per call; a bridge-rule or axiom plan (`_RulePlan`) compiles its premises
and conclusion once against the rule's own slots, with the conclusion's
extension-searched arrow variables in the slots right after them.  The
plan is kept on the (frozen) BridgeRule or LabeledFormula it was built
for, so `check_theory` and every other caller compile each rule object
once; pickling and deep copies leave the plan out, and it is rebuilt on
first use.

A plan has one walk, a depth-first sweep over its slots that calls a
given function at each admissible assignment satisfying the premises: the
conclusion's extension search for a rule or axiom check, a collector for
`enumerate_admissible`.  Its `reads` (the symbols it reads at each index)
and `relations` (the relations its arrow variables map through) state all
it reads of a model; the staged consequence search takes its stages and
memo keys from them.

An arrow condition pairs two slots through one domain relation, so a plan
never sweeps the later of the two over its whole domain.  When checking a
model, each relation that a slot's first arrow condition or an
extension-searched arrow variable reads is turned, once per check, into an
image table: each element's partners, restricted to the partner index's
domain, in sorted order.  A slot with conditions takes its candidates from
the image of the already bound slot through its first condition (forward
when it is the pair's second element, backward when the first), and
further conditions on it filter by membership; an extension-searched arrow
variable ranges over the image of its anchor.  Candidates thus come in the
plain sweep's order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .syntax import (
    App,
    ArrowVar,
    Atom,
    BridgeRule,
    Const,
    Eq,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    LabeledFormula,
    Not,
    And,
    Or,
    Signature,
    Term,
    Theory,
    Var,
    arrow_vars,
    formula_symbols,
    free_plain_vars,
    render_term,
)

__all__ = [
    "LocalModel",
    "DfolModel",
    "Assignment",
    "UndefinedVariableError",
    "ModelFormatError",
    "validate_model",
    "validate_assignment",
    "eval_term",
    "satisfies_local",
    "is_admissible",
    "satisfies_labeled",
    "enumerate_admissible",
    "satisfies_bridge_rule",
    "satisfies_axiom",
    "check_theory",
    "load_model",
    "load_model_file",
    "model_to_json",
]


class UndefinedVariableError(Exception):
    """A term evaluation met a variable the assignment does not cover."""


class ModelFormatError(ValueError):
    """Malformed model JSON."""


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalModel:
    """One classical first-order model over a finite domain.

    `funcs` maps a function name to a tuple of (args, value) pairs covering
    every argument tuple; `preds` maps a predicate name to its extension.
    """

    domain: tuple[str, ...]
    consts: tuple[tuple[str, str], ...] = ()
    funcs: tuple[tuple[str, tuple[tuple[tuple[str, ...], str], ...]], ...] = ()
    preds: tuple[tuple[str, frozenset[tuple[str, ...]]], ...] = ()

    def const(self, name: str) -> str:
        for n, v in self.consts:
            if n == name:
                return v
        raise UndefinedVariableError(f"constant {name} not interpreted")

    def func(self, name: str, args: tuple[str, ...]) -> str:
        for n, table in self.funcs:
            if n == name:
                for key, value in table:
                    if key == args:
                        return value
                raise UndefinedVariableError(f"function {name} undefined on {args}")
        raise UndefinedVariableError(f"function {name} not interpreted")

    def pred(self, name: str) -> frozenset[tuple[str, ...]]:
        for n, ext in self.preds:
            if n == name:
                return ext
        return frozenset()

    def interp_key(self, kind: str, name: str):
        """Canonical value of one symbol's interpretation, for agreement checks."""
        if kind == "const":
            return dict(self.consts).get(name)
        if kind == "func":
            for n, table in self.funcs:
                if n == name:
                    return tuple(sorted(table))
            return ()
        return tuple(sorted(self.pred(name)))

    def key(self):
        return (
            self.domain,
            tuple(sorted(self.consts)),
            tuple((n, tuple(sorted(t))) for n, t in sorted(self.funcs)),
            tuple((n, tuple(sorted(e))) for n, e in sorted(self.preds)),
        )


def make_local_model(
    domain: Iterable[str],
    consts: Mapping[str, str] | None = None,
    funcs: Mapping[str, Mapping[tuple[str, ...], str]] | None = None,
    preds: Mapping[str, Iterable[tuple[str, ...]]] | None = None,
) -> LocalModel:
    """Convenience constructor from plain mappings."""
    return LocalModel(
        tuple(domain),
        tuple(sorted((consts or {}).items())),
        tuple(
            (name, tuple(sorted(table.items())))
            for name, table in sorted((funcs or {}).items())
        ),
        tuple(
            (name, frozenset(tuple(t) for t in ext))
            for name, ext in sorted((preds or {}).items())
        ),
    )


@dataclass
class DfolModel:
    """Per-index domains and local-model sets plus directed domain relations.

    Relations are keyed (source index, target index, link label or None);
    absent keys denote the empty relation.
    """

    domains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    model_sets: dict[str, tuple[LocalModel, ...]] = field(default_factory=dict)
    relations: dict[tuple[str, str, str | None], frozenset[tuple[str, str]]] = field(
        default_factory=dict
    )

    def rel(self, src: str, tgt: str, label: str | None = None) -> frozenset[tuple[str, str]]:
        return self.relations.get((src, tgt, label), frozenset())

    def models(self, index: str) -> tuple[LocalModel, ...]:
        return self.model_sets.get(index, ())

    def key(self):
        return (
            tuple(sorted(self.domains.items())),
            tuple(
                (i, tuple(sorted(m.key() for m in ms)))
                for i, ms in sorted(self.model_sets.items())
            ),
            tuple((k, tuple(sorted(v))) for k, v in sorted(self.relations.items()) if v),
        )


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


class Assignment:
    """Immutable per-index partial map from (plain and arrow) variables to
    domain elements; `x`, `x^>j` and `x^<j` are distinct keys."""

    __slots__ = ("_map",)

    def __init__(self, entries: Iterable[tuple[str, Term, str]] = ()):
        m: dict[tuple[str, Term], str] = {}
        for index, var, elem in entries:
            m[(index, var)] = elem
        object.__setattr__(self, "_map", m)

    def get(self, index: str, var: Term) -> str | None:
        return self._map.get((index, var))

    def defined(self, index: str, var: Term) -> bool:
        return (index, var) in self._map

    def entries(self) -> list[tuple[str, Term, str]]:
        return sorted(
            ((i, v, e) for (i, v), e in self._map.items()),
            key=lambda t: (t[0], render_term(t[1])),
        )

    def extend(self, entries: Iterable[tuple[str, Term, str]]) -> "Assignment":
        return Assignment(self.entries() + list(entries))

    def env(self, index: str) -> dict[Term, str]:
        return {v: e for (i, v), e in self._map.items() if i == index}

    def extends(self, other: "Assignment") -> bool:
        return all(self._map.get(k) == v for k, v in other._map.items())

    def key(self):
        return tuple((i, render_term(v), e) for i, v, e in self.entries())

    def to_json(self) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for i, v, e in self.entries():
            out.setdefault(i, {})[render_term(v)] = e
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.key())

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}:{render_term(v)}={e}" for i, v, e in self.entries())
        return f"Assignment({body})"


def _relation_key(index: str, av: ArrowVar) -> tuple[str, str, str | None]:
    """The relation an arrow variable at `index` maps through:
    r_{index,foreign} for to-variables, r_{foreign,index} for from-variables."""
    if av.direction == ">":
        return (index, av.foreign, av.label)
    return (av.foreign, index, av.label)


def _arrow_condition(M: DfolModel, a: Assignment, index: str, av: ArrowVar) -> bool:
    """Def. Assignment conditions: to-variables map through r_{index,foreign},
    from-variables through r_{foreign,index}, anchored at the plain variable."""
    value = a.get(index, av)
    anchor = a.get(av.foreign, Var(av.base))
    if value is None or anchor is None:
        return False
    pair = (value, anchor) if av.direction == ">" else (anchor, value)
    return pair in M.rel(*_relation_key(index, av))


def validate_assignment(M: DfolModel, a: Assignment) -> list[str]:
    """Violations of Def. Assignment; empty list means ok."""
    problems: list[str] = []
    for index, var, elem in a.entries():
        if index not in M.domains:
            problems.append(f"assignment uses unknown index {index}")
            continue
        if elem not in M.domains[index]:
            problems.append(
                f"a_{index}({render_term(var)}) = {elem} is outside the domain"
            )
        if isinstance(var, ArrowVar) and not _arrow_condition(M, a, index, var):
            problems.append(
                f"a_{index}({render_term(var)}) = {elem} violates its domain-relation condition"
            )
    return problems


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


_Eval = Callable[[LocalModel, list], object]


def _compile_term(t: Term, layout: Mapping[Term, int]) -> _Eval:
    """A closure f(m, values) that evaluates t in m, reading each variable
    v from values[layout[v]].  Constants and functions are looked up in m
    when f runs; a variable missing from the layout raises when reached."""
    if isinstance(t, (Var, ArrowVar)):
        k = layout.get(t)
        if k is None:
            message = f"unassigned variable {render_term(t)}"

            def unassigned(m, values):
                raise UndefinedVariableError(message)

            return unassigned
        return lambda m, values: values[k]
    if isinstance(t, Const):
        name = t.name
        return lambda m, values: m.const(name)
    if isinstance(t, App):
        name = t.func
        args = [_compile_term(a, layout) for a in t.args]
        return lambda m, values: m.func(name, tuple([a(m, values) for a in args]))
    raise TypeError(f"not a term: {t!r}")


def _compile(phi: Formula, layout: Mapping[Term, int], free: int) -> tuple[_Eval, int]:
    """(f, width): f(m, values) is classical satisfaction of phi in m, with
    each variable v in the layout read from values[layout[v]].  A quantifier
    writes its element into slot `free`, the first slot after those of the
    variables in scope, and its body is compiled with `free + 1`, so
    shadowing gets a fresh slot; f needs a values list of `width` entries.
    Closures nest as phi does and recurse once per level when run."""
    if isinstance(phi, Atom):
        name = phi.pred
        ks = [layout.get(a) if isinstance(a, (Var, ArrowVar)) else None for a in phi.args]
        if len(ks) == 1 and ks[0] is not None:
            a = ks[0]
            return (lambda m, values: (values[a],) in m.pred(name)), free
        if len(ks) == 2 and None not in ks:
            a, b = ks
            return (lambda m, values: (values[a], values[b]) in m.pred(name)), free
        args = [_compile_term(a, layout) for a in phi.args]
        return (lambda m, values: tuple([a(m, values) for a in args]) in m.pred(name)), free
    if isinstance(phi, Eq):
        a, b = (layout.get(t) if isinstance(t, (Var, ArrowVar)) else None for t in (phi.lhs, phi.rhs))
        if a is not None and b is not None:
            return (lambda m, values: values[a] == values[b]), free
        lhs, rhs = _compile_term(phi.lhs, layout), _compile_term(phi.rhs, layout)
        return (lambda m, values: lhs(m, values) == rhs(m, values)), free
    if isinstance(phi, Falsum):
        return (lambda m, values: False), free
    if isinstance(phi, Not):
        body, width = _compile(phi.body, layout, free)
        return (lambda m, values: not body(m, values)), width
    if isinstance(phi, (And, Or, Implies)):
        lhs, lw = _compile(phi.lhs, layout, free)
        rhs, rw = _compile(phi.rhs, layout, free)
        if isinstance(phi, And):
            f = lambda m, values: lhs(m, values) and rhs(m, values)
        elif isinstance(phi, Or):
            f = lambda m, values: lhs(m, values) or rhs(m, values)
        else:
            f = lambda m, values: not lhs(m, values) or rhs(m, values)
        return f, max(lw, rw)
    if isinstance(phi, (Forall, Exists)):
        k = free
        body, width = _compile(phi.body, {**layout, Var(phi.var): k}, k + 1)
        if isinstance(phi, Forall):

            def forall(m, values):
                for d in m.domain:
                    values[k] = d
                    if not body(m, values):
                        return False
                return True

            return forall, width

        def exists(m, values):
            for d in m.domain:
                values[k] = d
                if body(m, values):
                    return True
            return False

        return exists, width
    raise TypeError(f"not a formula: {phi!r}")


def _compile_env(phi: Formula, env: Mapping[Term, str]) -> tuple[_Eval, list]:
    """phi compiled against the variables of env, in env's order, and the
    values list it runs on: env's values, then room for the quantifiers."""
    f, width = _compile(phi, {v: k for k, v in enumerate(env)}, len(env))
    return f, [*env.values()] + [None] * (width - len(env))


def eval_term(m: LocalModel, env: Mapping[Term, str], t: Term) -> str:
    return _compile_term(t, {v: k for k, v in enumerate(env)})(m, [*env.values()])


def satisfies_local(m: LocalModel, phi: Formula, env: Mapping[Term, str]) -> bool:
    """Classical Tarskian satisfaction; arrow variables act as assigned names."""
    f, values = _compile_env(phi, env)
    return f(m, values)


def is_admissible(M: DfolModel, a: Assignment, lf: LabeledFormula) -> bool:
    """a assigns every arrow variable of lf, meeting its relation condition."""
    return all(
        a.defined(lf.index, av) and _arrow_condition(M, a, lf.index, av)
        for av in arrow_vars(lf.formula)
    )


def satisfies_labeled(M: DfolModel, lf: LabeledFormula, a: Assignment) -> bool:
    """True iff a is admissible for lf and every local model at its index
    satisfies the body; an empty model set satisfies vacuously."""
    if not is_admissible(M, a, lf):
        return False
    f, values = _compile_env(lf.formula, a.env(lf.index))
    return all(f(m, values) for m in M.models(lf.index))


# ---------------------------------------------------------------------------
# Admissible-assignment enumeration
# ---------------------------------------------------------------------------


def _variables_of(formulas: Iterable[LabeledFormula]) -> list[tuple[str, Term]]:
    """All (index, variable) slots a materialized assignment must cover:
    free plain variables, arrow variables, and the anchors of arrow
    variables (plain variables at the foreign index)."""
    slots: set[tuple[str, Term]] = set()
    for lf in formulas:
        for name in free_plain_vars(lf.formula):
            slots.add((lf.index, Var(name)))
        for av in arrow_vars(lf.formula):
            slots.add((lf.index, av))
            slots.add((av.foreign, Var(av.base)))
    return sorted(slots, key=lambda s: (s[0], render_term(s[1])))


def enumerate_admissible(
    M: DfolModel, formulas: Iterable[LabeledFormula]
) -> Iterator[Assignment]:
    """Assignments over exactly the variables occurring in the formula set,
    admissible for every formula, in lexicographic order.  Materialization
    confines the assignment to occurring variables, so it is strict
    (assigns no arrow variables beyond the formulas') by construction.
    One walk of a plan with neither premises nor conclusion collects them.
    """
    slots = _variables_of(formulas)
    found: list[Assignment] = []

    def collect(values: list, tables: list) -> bool:
        found.append(Assignment((i, v, e) for (i, v), e in zip(slots, values)))
        return False

    _RulePlan(slots).walk(M, collect)
    yield from found


# ---------------------------------------------------------------------------
# Bridge rules, axioms, whole theories
# ---------------------------------------------------------------------------


def _rule_slots(rule: BridgeRule) -> list[tuple[str, Term]]:
    """Outer-assignment slots of a bridge rule: the premises' variables plus
    the conclusion's plain variables and anchors.  The conclusion's own new
    arrow variables stay out: they are found by extension search."""
    slots = set(_variables_of(rule.premises))
    concl = rule.conclusion
    for name in free_plain_vars(concl.formula):
        slots.add((concl.index, Var(name)))
    for av in arrow_vars(concl.formula):
        slots.add((av.foreign, Var(av.base)))
    return sorted(slots, key=lambda s: (s[0], render_term(s[1])))


def _formula_vars(f: Formula) -> list[Term]:
    """The variables f reads from an assignment, in a fixed order."""
    return sorted(
        [Var(name) for name in free_plain_vars(f)] + list(arrow_vars(f)), key=render_term
    )


def _holds(f: _Eval, models: tuple[LocalModel, ...], values: list) -> bool:
    """f holds in every model of the set; an empty set satisfies it."""
    for m in models:
        if not f(m, values):
            return False
    return True


class _RulePlan:
    """A bridge rule compiled once against its outer slots, so that
    checking it on a model is one walk over one flat list of slot values.

    Everything that depends on the rule alone is resolved here:
    - `images`: the distinct (relation key, forward) pairs whose image
      tables `walk` builds for a model; a forward table maps an element to
      the second elements of its pairs, a backward one to the first ones;
    - `sources[k]`: where slot k's candidates come from.  None means the
      whole (sorted) domain of its index.  A slot with arrow conditions is
      bound only to the partners of an earlier slot's value through the
      relation of its first condition, as (other slot, image): the forward
      image when slot k is the second element of the pair, the backward
      image when it is the first;
    - `conditions[k]`: the further arrow conditions decidable once slot k
      is bound, as (first, second, relation key): the pair of those slots'
      values must lie in the relation;
    - `premises[k]`: the premises whose last variable is slot k, as (index,
      compiled formula); `closed` holds the premises with no variable;
    - the conclusion's (index, compiled formula), and its `missing` arrow
      variables as (anchor slot, image), in extension-search order: each
      ranges over the image of its anchor's value.  They take the slots
      right after the rule's own, and every quantifier slot comes after
      those; `width` is the length of the values list.

    The plan also states what of a model it reads:
    - `reads`: for each index that a slot sweeps or a premise or the
      conclusion sits at, the (kind, name) symbols those formulas read
      there; an index that holds only anchors reads none.  A plan reads a
      local model only through its domain and these symbols;
    - `relations`: the keys of every relation it maps an arrow variable
      through, the only relations it reads.

    `walk` is the one depth-first sweep over the slots.  `check` runs it
    with the extension search at each leaf; `enumerate_admissible` runs a
    plan with neither premises nor conclusion and collects every leaf.
    An image table is restricted to the domain of the slots it binds and
    kept in sorted order, so candidates come in the order of the plain
    sweep.  An axiom is a premise-free plan whose arrow variables are all
    slots.
    """

    def __init__(
        self,
        slots: list[tuple[str, Term]],
        premises: Iterable[LabeledFormula] = (),
        conclusion: LabeledFormula | None = None,
    ):
        pos = {s: k for k, s in enumerate(slots)}
        self.slots = slots
        reads: dict[str, set[tuple[str, str]]] = {i: set() for i, _ in slots}
        for lf in (*premises, conclusion) if conclusion else premises:
            reads.setdefault(lf.index, set()).update(formula_symbols(lf.formula))
        self.reads = {i: frozenset(symbols) for i, symbols in reads.items()}
        conditions: list[list[tuple[int, int, tuple]]] = [[] for _ in slots]
        for k, (index, var) in enumerate(slots):
            if isinstance(var, ArrowVar):
                anchor = pos[(var.foreign, Var(var.base))]
                first, second = (k, anchor) if var.direction == ">" else (anchor, k)
                conditions[max(k, anchor)].append((first, second, _relation_key(index, var)))
        self.images: list[tuple[tuple, bool]] = []
        self.sources: list[tuple[int, int] | None] = []
        for k, at_k in enumerate(conditions):
            if at_k:
                first, second, key = at_k[0]
                forward = second == k
                self.sources.append((first if forward else second, _image_number(self.images, key, forward)))
            else:
                self.sources.append(None)
        self.conditions = [at_k[1:] for at_k in conditions]
        layout: dict[Term, int] = {}
        self.missing: list[tuple[int, int]] = []
        for v in _formula_vars(conclusion.formula) if conclusion else ():
            if (conclusion.index, v) in pos:
                layout[v] = pos[(conclusion.index, v)]
            else:
                layout[v] = len(slots) + len(self.missing)
                anchor = pos[(v.foreign, Var(v.base))]
                key = _relation_key(conclusion.index, v)
                self.missing.append((anchor, _image_number(self.images, key, v.direction == "<")))
        self.relations = frozenset(
            [key for at_k in conditions for _, _, key in at_k] + [key for key, _ in self.images]
        )
        free = self.width = len(slots) + len(self.missing)

        def compiled(phi: Formula, layout: dict[Term, int]):
            f, width = _compile(phi, layout, free)
            self.width = max(self.width, width)
            return f

        if conclusion:
            self.conclusion = (conclusion.index, compiled(conclusion.formula, layout))
        self.closed: list[tuple[str, _Eval]] = []
        self.premises: list[list[tuple[str, _Eval]]] = [[] for _ in slots]
        for lf in premises:
            layout = {v: pos[(lf.index, v)] for v in _formula_vars(lf.formula)}
            entry = (lf.index, compiled(lf.formula, layout))
            if layout:
                self.premises[max(layout.values())].append(entry)
            else:
                self.closed.append(entry)

    def walk(
        self, M: DfolModel, leaf: Callable[[list, list[dict[str, list[str]]]], bool]
    ) -> Assignment | None:
        """Depth-first, in lexicographic order, over the assignments to the
        slots that meet their arrow conditions and satisfy the premises:
        calls leaf(values, tables) at each, with values[k] holding slot k's
        element and `tables` the image tables of `images`.  Stops at the
        first leaf for which that is true and returns its assignment; None
        if there is none.  A subtree is dropped as soon as a premise fails
        in it, which skips only assignments the plain sweep would skip too.
        The walk recurses once per slot and adds no generator frame."""
        n = len(self.slots)
        domains = [sorted(M.domains.get(i, ())) for i, _ in self.slots]
        tables = [_image(M, key, forward) for key, forward in self.images]
        sources = self.sources
        # `at_k and ...` keeps a slot's empty list as it is, without a call
        conditions = [
            at_k and [(a, b, M.rel(*key)) for a, b, key in at_k] for at_k in self.conditions
        ]
        premises = [at_k and [(f, M.models(i)) for i, f in at_k] for at_k in self.premises]
        values: list = [None] * self.width

        def found_below(k: int) -> bool:
            if k == n:
                return leaf(values, tables)
            source, at_k, premises_at_k = sources[k], conditions[k], premises[k]
            elems = domains[k] if source is None else tables[source[1]].get(values[source[0]], ())
            for elem in elems:
                values[k] = elem
                if at_k and not all((values[a], values[b]) in rel for a, b, rel in at_k):
                    continue
                if premises_at_k and not all(_holds(f, ms, values) for f, ms in premises_at_k):
                    continue
                if found_below(k + 1):
                    return True
            return False

        if all(_holds(f, M.models(i), values) for i, f in self.closed) and found_below(0):
            return Assignment((i, v, e) for (i, v), e in zip(self.slots, values))
        return None

    def check(self, M: DfolModel) -> tuple[bool, Assignment | None]:
        """(True, None) iff every admissible assignment over the slots that
        satisfies the premises extends to one satisfying the conclusion;
        otherwise (False, the first failing assignment in lexicographic
        order)."""
        n = len(self.slots)
        c_index, c_formula = self.conclusion
        c_models = M.models(c_index)
        missing = self.missing

        def fails(values: list, tables: list[dict[str, list[str]]]) -> bool:
            choices = [tables[t].get(values[anchor], ()) for anchor, t in missing]
            for combo in product(*choices):
                values[n : n + len(combo)] = combo
                if _holds(c_formula, c_models, values):
                    return False
            return True

        witness = self.walk(M, fails)
        return witness is None, witness


def _image_number(images: list[tuple[tuple, bool]], key: tuple, forward: bool) -> int:
    """The position of the image table (key, forward) in images, which
    gains it if new."""
    if (key, forward) not in images:
        images.append((key, forward))
    return images.index((key, forward))


def _image(M: DfolModel, key: tuple, forward: bool) -> dict[str, list[str]]:
    """Each element's partners through relation `key`: the second elements
    of its pairs if forward, else the first ones, kept only if they lie in
    the domain of their index, in sorted order."""
    table: dict[str, list[str]] = {}
    rel = M.relations.get(key)
    if rel:
        allowed = frozenset(M.domains.get(key[1] if forward else key[0], ()))
        if forward:
            for d, e in rel:
                if e in allowed:
                    table.setdefault(d, []).append(e)
        else:
            for d, e in rel:
                if d in allowed:
                    table.setdefault(e, []).append(d)
        if len(rel) > 1:
            for partners in table.values():
                partners.sort()
    return table


def _kept_plan(owner: BridgeRule | LabeledFormula, build: Callable[[], _RulePlan]) -> _RulePlan:
    """The plan kept on a frozen rule or axiom, built on first use; the
    owner cannot change, so the plan never goes stale, and pickling leaves
    it out (syntax._without_caches)."""
    plan = owner.__dict__.get("_plan")
    if plan is None:
        plan = build()
        object.__setattr__(owner, "_plan", plan)
    return plan


def _rule_plan(rule: BridgeRule) -> _RulePlan:
    return _kept_plan(rule, lambda: _RulePlan(_rule_slots(rule), rule.premises, rule.conclusion))


def _axiom_plan(ax: LabeledFormula) -> _RulePlan:
    return _kept_plan(ax, lambda: _RulePlan(_variables_of([ax]), (), ax))


def satisfies_bridge_rule(
    M: DfolModel, rule: BridgeRule
) -> tuple[bool, Assignment | None]:
    """(True, None) iff every strictly premise-admissible assignment that
    satisfies all premises admits an extension satisfying the conclusion;
    otherwise (False, witnessing assignment)."""
    return _rule_plan(rule).check(M)


def satisfies_axiom(M: DfolModel, ax: LabeledFormula) -> tuple[bool, Assignment | None]:
    """An axiom holds when every admissible assignment over its variables
    satisfies it; closed axioms reduce to the single empty assignment."""
    return _axiom_plan(ax).check(M)


@dataclass
class TheoryReport:
    """Outcome of checking a model against a theory's axioms and rules."""

    axiom_results: list[tuple[LabeledFormula, bool, Assignment | None]]
    rule_results: list[tuple[BridgeRule, bool, Assignment | None]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.axiom_results) and all(
            ok for _, ok, _ in self.rule_results
        )


def check_theory(T: Theory, M: DfolModel) -> TheoryReport:
    axiom_results = [(ax, *satisfies_axiom(M, ax)) for ax in T.axioms]
    rule_results = [(rule, *satisfies_bridge_rule(M, rule)) for rule in T.rules]
    return TheoryReport(axiom_results, rule_results)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_local(
    sig: Signature, domain: tuple[str, ...], m: LocalModel, where: str
) -> list[str]:
    problems: list[str] = []
    if tuple(m.domain) != tuple(domain):
        problems.append(f"{where}: local model domain differs from the index domain")
    dom = set(domain)
    const_names = {n for n, _ in m.consts}
    for c in sig.consts:
        if c not in const_names:
            problems.append(f"{where}: constant {c} not interpreted")
    for n, v in m.consts:
        if not sig.is_const(n):
            problems.append(f"{where}: undeclared constant {n}")
        if v not in dom:
            problems.append(f"{where}: constant {n} maps outside the domain")
    func_names = {n for n, _ in m.funcs}
    for f, arity in sig.funcs:
        if f not in func_names:
            problems.append(f"{where}: function {f} not interpreted")
    for n, table in m.funcs:
        arity = sig.func_arity(n)
        if arity is None:
            problems.append(f"{where}: undeclared function {n}")
            continue
        seen = set()
        for args, value in table:
            if len(args) != arity:
                problems.append(f"{where}: function {n} entry has arity {len(args)}")
            if any(x not in dom for x in args) or value not in dom:
                problems.append(f"{where}: function {n} entry leaves the domain")
            seen.add(args)
        need = 1
        for _ in range(arity):
            need *= len(domain)
        if len(seen) != need:
            problems.append(f"{where}: function {n} is not total over the domain")
    for n, ext in m.preds:
        arity = sig.pred_arity(n)
        if arity is None:
            problems.append(f"{where}: undeclared predicate {n}")
            continue
        for tup in ext:
            if len(tup) != arity:
                problems.append(f"{where}: predicate {n} tuple has arity {len(tup)}")
            elif any(x not in dom for x in tup):
                problems.append(f"{where}: predicate {n} tuple leaves the domain")
    return problems


def validate_model(T: Theory, M: DfolModel) -> list[str]:
    """All structural violations: empty domains, partial interpretations,
    out-of-domain tuples, complete-symbol disagreements, bad relations.
    Empty model sets over nonempty domains are legal."""
    problems: list[str] = []
    for index in T.indices:
        if index not in M.domains or not M.domains[index]:
            problems.append(f"index {index}: missing or empty domain")
    for index in M.domains:
        if index not in T.indices:
            problems.append(f"unknown index {index}")
    for index, ms in M.model_sets.items():
        if index not in T.indices:
            problems.append(f"model set for unknown index {index}")
            continue
        sig = T.signatures[index]
        domain = M.domains.get(index, ())
        for k, m in enumerate(ms):
            problems.extend(_validate_local(sig, tuple(domain), m, f"M_{index}[{k}]"))
        for kind, name in sorted(sig.complete):
            interps = {m.interp_key(kind, name) for m in ms}
            if len(interps) > 1:
                problems.append(
                    f"M_{index}: local models disagree on complete {kind} {name}"
                )
    for (src, tgt, label), pairs in M.relations.items():
        if src not in T.indices or tgt not in T.indices or src == tgt:
            problems.append(f"bad relation key {src}->{tgt}")
            continue
        dom_s, dom_t = set(M.domains.get(src, ())), set(M.domains.get(tgt, ()))
        for d, e in pairs:
            if d not in dom_s or e not in dom_t:
                suffix = f"@{label}" if label else ""
                problems.append(f"relation {src}->{tgt}{suffix}: pair ({d},{e}) leaves the domains")
    return problems


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def load_model(data: dict) -> DfolModel:
    """Build a DfolModel from the JSON object format::

        {"domains": {"1": ["a"]},
         "models": {"1": [{"const": {"l": "a"}, "func": {"f": [["a", "a"]]},
                            "pred": {"p": [["a"]]}}]},
         "relations": {"1->2": [["a", "b"]], "1->2@E": []}}

    Function entries list argument elements followed by the value.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    domains: dict[str, tuple[str, ...]] = {}
    for index, elems in (data.get("domains") or {}).items():
        if not isinstance(elems, list) or not elems:
            raise ModelFormatError(f"domain of index {index} must be a nonempty array")
        domains[str(index)] = tuple(str(e) for e in elems)
    model_sets: dict[str, tuple[LocalModel, ...]] = {i: () for i in domains}
    for index, models in (data.get("models") or {}).items():
        index = str(index)
        if index not in domains:
            raise ModelFormatError(f"models given for index {index} without a domain")
        if not isinstance(models, list):
            raise ModelFormatError(f"models of index {index} must be an array")
        built = []
        for m in models:
            if not isinstance(m, dict):
                raise ModelFormatError(f"local model of index {index} must be an object")
            consts = {str(k): str(v) for k, v in (m.get("const") or {}).items()}
            funcs: dict[str, dict[tuple[str, ...], str]] = {}
            for name, entries in (m.get("func") or {}).items():
                table: dict[tuple[str, ...], str] = {}
                for entry in entries:
                    if not isinstance(entry, list) or len(entry) < 1:
                        raise ModelFormatError(f"bad function entry for {name}")
                    table[tuple(str(x) for x in entry[:-1])] = str(entry[-1])
                funcs[str(name)] = table
            preds = {
                str(name): [tuple(str(x) for x in t) for t in ext]
                for name, ext in (m.get("pred") or {}).items()
            }
            built.append(make_local_model(domains[index], consts, funcs, preds))
        model_sets[index] = tuple(built)
    relations: dict[tuple[str, str, str | None], frozenset[tuple[str, str]]] = {}
    for key, pairs in (data.get("relations") or {}).items():
        name, _, label = str(key).partition("@")
        src, sep, tgt = name.partition("->")
        if not sep:
            raise ModelFormatError(f"relation key {key!r} must look like 'i->j'")
        rel = frozenset((str(d), str(e)) for d, e in pairs)
        relations[(src.strip(), tgt.strip(), label or None)] = rel
    return DfolModel(domains, model_sets, relations)


def load_model_file(path: str) -> DfolModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
    return load_model(data)


def model_to_json(M: DfolModel) -> dict:
    """Inverse of load_model (up to key ordering)."""
    models = {}
    for index, ms in sorted(M.model_sets.items()):
        out = []
        for m in ms:
            out.append(
                {
                    "const": {n: v for n, v in sorted(m.consts)},
                    "func": {
                        n: [[*args, value] for args, value in sorted(table)]
                        for n, table in sorted(m.funcs)
                    },
                    "pred": {n: sorted(list(t) for t in ext) for n, ext in sorted(m.preds)},
                }
            )
        models[index] = out
    relations = {}
    for (src, tgt, label), pairs in sorted(M.relations.items(), key=lambda kv: str(kv[0])):
        key = f"{src}->{tgt}" + (f"@{label}" if label else "")
        relations[key] = sorted(list(p) for p in pairs)
    return {
        "domains": {i: list(d) for i, d in sorted(M.domains.items())},
        "models": models,
        "relations": relations,
    }
