"""Bounded classical first order prover for local proof obligations.

A signed analytic tableau over the formula AST of :mod:`dfol.syntax`,
restricted to sentences of a single index.  Arrow variables are treated
as opaque constants: within one index they denote fixed elements, so a
classical reading is sound for local consequence.

The prover is refutation based: ``premises |= conclusion`` is attempted
by closing a tableau for the premises plus the negated conclusion.  The
search is bounded in two ways: universal formulas are instantiated in a
fixed number of rounds over the ground terms of the branch, and
asserted implications are only split when unit propagation cannot
decide their antecedent (undecided implications stay dormant).  The
result is therefore one sided: ``True`` means a closed tableau was
found, ``False`` only that none was found inside the budget.  Equality
is handled by congruence closure over the ground terms of a branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    And,
    App,
    Atom,
    Const,
    Eq,
    Falsum,
    Forall,
    Exists,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    atom_terms,
    children,
    substitute,
    subterms,
    term_free_plain_vars,
)

DEFAULT_GAMMA_ROUNDS = 4
DEFAULT_MAX_STEPS = 200_000


class _Exhausted(Exception):
    """Raised when the step budget runs out; treated as an open tableau."""


def _ground_terms(f: Formula) -> set[Term]:
    """All ground terms and ground subterms occurring in f."""
    out: set[Term] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kids = children(g)
        if kids:
            stack.extend(kids)
        else:
            out.update(t for t in subterms(atom_terms(g)) if not term_free_plain_vars(t))
    return out


def _instance(br: _Branch, sign: bool, q: Forall | Exists, t: Term) -> tuple[bool, Formula]:
    """The instance of q's body at t, its ground terms added to the branch.

    Every formula the tableau pops is a subformula of an input formula or
    of such an instance, so collecting ground terms here and for the
    inputs gives the branch the same terms as collecting them at each pop,
    with one walk per instance instead of one per popped subformula.  The
    terms are read only when a gamma round starts, which is after every
    pushed formula has been popped."""
    g = substitute(q.body, q.var, t)
    br.terms |= _ground_terms(g)
    return sign, g


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Term, Term] = {}

    def find(self, t: Term) -> Term:
        """The root of t's class; every term on the way now points at it."""
        parent = self.parent
        path = []
        p = parent.setdefault(t, t)
        while p != t:
            path.append(t)
            t, p = p, parent.setdefault(p, p)
        for s in path:
            parent[s] = t
        return t

    def union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _canon(t: Term, uf: _UnionFind) -> Term:
    # canonicalize argument positions first so congruent applications merge
    if isinstance(t, App):
        t = App(t.func, tuple(_canon(a, uf) for a in t.args))
    return uf.find(t)


@dataclass
class _Branch:
    pos_atoms: set[Formula] = field(default_factory=set)
    neg_atoms: set[Formula] = field(default_factory=set)
    pos_eqs: list[tuple[Term, Term]] = field(default_factory=list)
    neg_eqs: list[tuple[Term, Term]] = field(default_factory=list)
    gammas: list[tuple[bool, Formula]] = field(default_factory=list)
    dormant: list[tuple[bool, Formula]] = field(default_factory=list)
    used: set[tuple[bool, Formula, Term]] = field(default_factory=set)
    terms: set[Term] = field(default_factory=set)
    seen: set[tuple[bool, Formula]] = field(default_factory=set)

    def copy(self) -> _Branch:
        b = _Branch()
        b.pos_atoms = set(self.pos_atoms)
        b.neg_atoms = set(self.neg_atoms)
        b.pos_eqs = list(self.pos_eqs)
        b.neg_eqs = list(self.neg_eqs)
        b.gammas = list(self.gammas)
        b.dormant = list(self.dormant)
        b.used = set(self.used)
        b.terms = set(self.terms)
        b.seen = set(self.seen)
        return b

    def holds(self, sign: bool, f: Formula) -> bool:
        """Cheap syntactic truth test used only for unit propagation."""
        if isinstance(f, Not):
            return self.holds(not sign, f.body)
        if isinstance(f, Atom):
            return f in (self.pos_atoms if sign else self.neg_atoms)
        if isinstance(f, Eq):
            if sign and f.lhs == f.rhs:
                return True
            pairs = self.pos_eqs if sign else self.neg_eqs
            return (f.lhs, f.rhs) in pairs or (f.rhs, f.lhs) in pairs
        if isinstance(f, Falsum):
            return not sign
        return (sign, f) in self.seen


class _Prover:
    def __init__(self, max_steps: int) -> None:
        self.skolem = 0
        self.steps = max_steps

    def tick(self) -> None:
        self.steps -= 1
        if self.steps <= 0:
            raise _Exhausted

    def fresh(self) -> Const:
        self.skolem += 1
        return Const(f"_sk{self.skolem}")

    def closed(self, br: _Branch) -> bool:
        uf = _UnionFind()
        # saturate the ground equalities; repeated passes propagate
        # congruence through nested applications
        for _ in range(max(1, len(br.pos_eqs))):
            for lhs, rhs in br.pos_eqs:
                uf.union(_canon(lhs, uf), _canon(rhs, uf))

        def canon_atom(a: Formula) -> tuple:
            assert isinstance(a, Atom)
            return (a.pred, tuple(_canon(t, uf) for t in a.args))

        pos = {canon_atom(a) for a in br.pos_atoms}
        neg = {canon_atom(a) for a in br.neg_atoms}
        if pos & neg:
            return True
        return any(_canon(l, uf) == _canon(r, uf) for l, r in br.neg_eqs)

    def expand(self, br: _Branch, pending: list[tuple[bool, Formula]], rounds: int) -> bool:
        """True iff every branch under this state closes within the budget."""
        while True:
            while pending:
                self.tick()
                sign, f = pending.pop()
                if (sign, f) in br.seen:
                    continue
                br.seen.add((sign, f))
                if isinstance(f, Falsum):
                    if sign:
                        return True
                elif isinstance(f, Not):
                    pending.append((not sign, f.body))
                elif isinstance(f, And):
                    if sign:
                        pending.append((True, f.lhs))
                        pending.append((True, f.rhs))
                    else:
                        br.dormant.append((sign, f))
                elif isinstance(f, Or):
                    if sign:
                        br.dormant.append((sign, f))
                    else:
                        pending.append((False, f.lhs))
                        pending.append((False, f.rhs))
                elif isinstance(f, Implies):
                    if sign:
                        br.dormant.append((sign, f))
                    else:
                        pending.append((True, f.lhs))
                        pending.append((False, f.rhs))
                elif isinstance(f, Forall):
                    if sign:
                        br.gammas.append((True, f))
                    else:
                        c = self.fresh()
                        br.terms.add(c)
                        pending.append(_instance(br, False, f, c))
                elif isinstance(f, Exists):
                    if sign:
                        c = self.fresh()
                        br.terms.add(c)
                        pending.append(_instance(br, True, f, c))
                    else:
                        br.gammas.append((False, f))
                elif isinstance(f, Atom):
                    (br.pos_atoms if sign else br.neg_atoms).add(f)
                elif isinstance(f, Eq):
                    (br.pos_eqs if sign else br.neg_eqs).append((f.lhs, f.rhs))
                else:
                    raise TypeError(f"unexpected formula node {type(f).__name__}")

            # unit propagation over the dormant two-sided formulas
            progressed = False
            still: list[tuple[bool, Formula]] = []
            for sign, f in br.dormant:
                self.tick()
                if isinstance(f, Implies):
                    parts = [(False, f.lhs), (True, f.rhs)]
                else:
                    assert isinstance(f, (And, Or))
                    parts = [(sign, f.lhs), (sign, f.rhs)]
                sat = any(br.holds(s, g) for s, g in parts)
                if sat:
                    progressed = True
                    continue
                refuted = [(s, g) for s, g in parts if br.holds(not s, g)]
                if len(refuted) == len(parts):
                    # both sides fail: alpha-like contradiction
                    return True
                if len(refuted) == 1:
                    other = parts[0] if parts[1] == refuted[0] else parts[1]
                    pending.append(other)
                    progressed = True
                else:
                    still.append((sign, f))
            br.dormant = still
            if pending:
                continue
            if not progressed:
                break

        if self.closed(br):
            return True

        # branch on genuine disjunctions before spending a gamma round:
        # implications stay dormant (they are split only by propagation,
        # which keeps axiom sets tractable at the cost of completeness)
        for i, (sign, f) in enumerate(br.dormant):
            if isinstance(f, Implies):
                continue
            rest = br.dormant[:i] + br.dormant[i + 1:]
            if isinstance(f, Or):
                parts = [(True, f.lhs), (True, f.rhs)]
            else:
                parts = [(False, f.lhs), (False, f.rhs)]
            lb = br.copy()
            lb.dormant = list(rest)
            if not self.expand(lb, [parts[0]], rounds):
                return False
            br.dormant = rest
            return self.expand(br, [parts[1]], rounds)

        if rounds <= 0:
            return False
        # one universal instantiation round: every stored gamma formula
        # meets every ground term not yet tried on this branch
        if not br.terms:
            br.terms.add(self.fresh())
        fresh_pending: list[tuple[bool, Formula]] = []
        terms = sorted(br.terms, key=repr)  # before the instances add theirs
        for sign, g in br.gammas:
            for t in terms:
                key = (sign, g, t)
                if key in br.used:
                    continue
                br.used.add(key)
                fresh_pending.append(_instance(br, sign, g, t))
        if not fresh_pending:
            return False
        return self.expand(br, fresh_pending, rounds - 1)


def tableau_valid(
    premises: list[Formula] | tuple[Formula, ...],
    conclusion: Formula,
    *,
    gamma_rounds: int = DEFAULT_GAMMA_ROUNDS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Bounded classical consequence test.

    True iff a tableau for the premises together with the negated
    conclusion closes within the given number of universal
    instantiation rounds and the step budget.  False reports only that
    no refutation was found inside those bounds.
    """
    for p in premises:
        if not isinstance(p, Formula):
            raise TypeError("premises must be formulas")
    if gamma_rounds < 0:
        raise ValueError("gamma_rounds must be nonnegative")
    pending = [(True, p) for p in premises] + [(False, conclusion)]
    terms = set().union(*(_ground_terms(f) for _, f in pending))
    for budget in range(1, gamma_rounds + 1):
        prover = _Prover(max_steps)
        branch = _Branch(terms=set(terms))
        try:
            if prover.expand(branch, list(pending), budget):
                return True
        except _Exhausted:
            return False
    return False
