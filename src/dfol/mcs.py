"""Grounded equilibria for propositional multi-context systems.

A system is a family of propositional contexts plus bridge rules whose
bodies may contain meta premises `not(j:q)`.  A candidate model assigns
each context a set of truth assignments (each assignment is the set of
letters it makes true).  The meta context is never enumerated: it holds
exactly the atoms `not(j:q)` forced by the local sets, namely those
where some assignment in context j falsifies q, and it is empty (an
exported inconsistency) as soon as some context has no assignment left.

The minimal model is computed as a shrinking fixpoint: start from all
assignments satisfying the local axioms, repeatedly delete from each
context the assignments violating the head of a rule whose body holds
in the current candidate, then reduce each context to its
inclusion-minimal assignments.  Negative premises are read off the meta
context of the current candidate, so they hold vacuously once any
context has been emptied; no rule in the bundled examples exercises
that corner, but the reading keeps the meta context an ordinary
context.

Internally an assignment is an int mask over its context's declared
letters (bit k for the k-th letter), and the fixpoint keeps, per
context, `common`: the AND of its masks, or every letter once the
context is empty.  A positive premise `j:p` holds iff bit p is set in
`common[j]`, and `not(j:q)` is in the meta context iff bit q is clear
in it, so a body is decided without building the meta context.  Each
step applies every rule that fires against the same snapshot, so the
candidates are those of the plain operator.  Because deletions only
accumulate, a step re-checks just the rules that read a context the
previous step changed, plus every rule with a negative premise on the
step after the first context empties; a rule whose head letter is
already common to its context is skipped.  Candidates are turned back
into sets of letters only when they are returned.

System files look like::

    # two contexts feeding each other, one nonmonotonic rule
    context 1 { letters p; }
    context 2 { letters q, r; }
    rule 1:p <- 2:q.
    rule 2:q <- 1:p.
    rule 2:r <- not(1:p).

The grammar, over the tokens of theory files (`syntax.tokenize`)::

    system  := ('context' NAME '{' entry* '}' | 'rule' ATOM ('<-' body?)? '.')*
    entry   := 'letters' NAME (',' NAME)* ';' | 'axiom' FORMULA ';'
    body    := premise (',' premise)*
    premise := ATOM | 'not' '(' ATOM ')'
    ATOM    := NAME ':' NAME

A NAME is an identifier or a number, but not a keyword of theory files
(`false`, `forall`, `axiom`, ...); a context may be called `not`.  `#`
starts a comment, and whitespace may appear between any two tokens, as
in `not ( 1 : p )`.  Entries may repeat in any order; an axiom is a
propositional formula (`~ & | -> false`) over all its block's letters.
A rule with no body is a fact, and is always applicable; it may name
contexts declared after it.  A malformed file raises `PropFormatError`
naming the line of the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Signature,
    SyntaxError_,
    Theory,
    Token,
    TokenStream,
    _FormulaParser,
    _name_token,
    _whole_formula,
    children,
    render_formula,
    tokenize,
)

__all__ = [
    "McsRule",
    "PropSystem",
    "PropModelSet",
    "parse_prop_system",
    "load_prop_system",
    "local_reduction",
    "fixpoint_steps",
    "minimal_model",
    "equilibrium_to_json",
    "equilibrium_json_text",
    "render_equilibrium",
]


Assignment = frozenset  # of letters; the empty frozenset is "all false"


@dataclass(frozen=True)
class McsRule:
    """`head <- positive..., not(negative)...` with (context, letter) atoms."""

    head: tuple[str, str]
    positive: tuple[tuple[str, str], ...] = ()
    negative: tuple[tuple[str, str], ...] = ()

    def __str__(self) -> str:
        body = [f"{c}:{p}" for c, p in self.positive]
        body += [f"not({c}:{p})" for c, p in self.negative]
        return f"{self.head[0]}:{self.head[1]} <- {', '.join(body)}."


@dataclass(frozen=True)
class PropSystem:
    """Contexts with letters and local axioms, plus bridge rules."""

    contexts: tuple[str, ...]
    letters: Mapping[str, tuple[str, ...]]
    axioms: Mapping[str, tuple[Formula, ...]]
    rules: tuple[McsRule, ...]


@dataclass(frozen=True)
class PropModelSet:
    """A set of truth assignments per context; the meta context is derived."""

    system: PropSystem
    models: Mapping[str, frozenset[Assignment]]

    def mc_models(self) -> frozenset[Assignment]:
        """The derived meta context: empty once some context is empty
        (inconsistency is exported), otherwise the one assignment
        holding `not(i:p)` for every letter falsified somewhere in
        context i."""
        if any(not self.models[i] for i in self.system.contexts):
            return frozenset()
        atoms = {
            f"not({i}:{p})"
            for i in self.system.contexts
            for p in self.system.letters[i]
            if any(p not in m for m in self.models[i])
        }
        return frozenset({frozenset(atoms)})


class PropFormatError(Exception):
    """Malformed multi-context system file."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _assert_propositional(f: Formula, at: Token) -> None:
    if isinstance(f, (Forall, Exists)):
        raise SyntaxError_("axioms must be propositional, found a quantifier", at.line, at.col)
    if isinstance(f, Eq):
        raise SyntaxError_(
            f"axioms must be propositional, found {render_formula(f)}", at.line, at.col
        )
    for g in children(f):
        _assert_propositional(g, at)


def _rule_atom(ts: TokenStream) -> tuple[bool, Token, Token]:
    """`j:p` or `not(j:p)` as (negative, context token, letter token); a
    context may itself be called `not`."""
    negative = ts.at("ident", "not") and ts.tokens[ts.pos + 1].kind == "("
    if negative:
        ts.pos += 2
    ctx = _name_token(ts, "a context name")
    ts.expect(":")
    letter = _name_token(ts, "a letter")
    if negative:
        ts.expect(")")
    return negative, ctx, letter


def _parse_context(ts: TokenStream, theory: Theory, axioms: dict[str, tuple[Formula, ...]]) -> None:
    """A `context` block, after its keyword: the context goes into `theory`,
    with its letters as 0-ary predicates, and its axioms into `axioms`."""
    tok = _name_token(ts, "a context name")
    ctx = tok.text
    if ctx in theory.signatures:
        raise SyntaxError_(f"duplicate context {ctx!r}", tok.line, tok.col)
    ts.expect("{")
    letters: list[str] = []
    axiom_starts: list[int] = []
    while not ts.accept("}"):
        if ts.accept("ident", "letters"):
            for p in ts.separated(lambda: _name_token(ts, "a letter")):
                if p.text in letters:
                    raise SyntaxError_(f"duplicate letter {p.text!r} in context {ctx}", p.line, p.col)
                letters.append(p.text)
            ts.expect(";")
        elif ts.accept("ident", "axiom"):
            # parsed once the block closes, since letters may follow it
            axiom_starts.append(ts.pos)
            while not ts.accept(";"):
                if ts.at("eof"):
                    raise ts.error("unterminated axiom, expected ';'")
                ts.next()
        else:
            tok = ts.peek()
            raise ts.error(f"expected 'letters', 'axiom' or '}}', found {tok.text or tok.kind!r}")
    theory.indices += (ctx,)
    theory.signatures[ctx] = Signature(preds=tuple((p, 0) for p in letters))
    end = ts.pos
    parsed = []
    for start in axiom_starts:
        ts.pos = start
        f = _whole_formula(_FormulaParser(theory, ctx, ts))
        ts.expect_end(";")
        _assert_propositional(f, ts.tokens[start])
        parsed.append(f)
    ts.pos = end
    axioms[ctx] = tuple(parsed)


def _parse_rule(ts: TokenStream) -> list[tuple[bool, Token, Token]]:
    """A `rule` after its keyword: its head atom, then its body atoms."""
    atoms = [_rule_atom(ts)]
    if atoms[0][0]:
        raise SyntaxError_("rule heads cannot be not(...) atoms", atoms[0][1].line, atoms[0][1].col)
    if ts.accept("<-") and not ts.at("."):
        atoms += ts.separated(lambda: _rule_atom(ts))
    ts.expect(".")
    return atoms


def parse_prop_system(text: str) -> PropSystem:
    """Parse the system file format shown in the module docstring."""
    try:
        return _parse_prop_system(TokenStream(tokenize(text)))
    except SyntaxError_ as exc:
        raise PropFormatError(f"line {exc.line}: {exc.message}") from exc


def _parse_prop_system(ts: TokenStream) -> PropSystem:
    theory = Theory()
    axioms: dict[str, tuple[Formula, ...]] = {}
    parsed_rules: list[list[tuple[bool, Token, Token]]] = []
    while not ts.at("eof"):
        if ts.accept("ident", "context"):
            _parse_context(ts, theory, axioms)
        elif ts.accept("ident", "rule"):
            parsed_rules.append(_parse_rule(ts))
        else:
            raise ts.error(f"expected 'context' or 'rule', found {ts.peek().text!r}")
    if not theory.indices:
        raise PropFormatError("system declares no contexts")
    letters = {ctx: tuple(p for p, _ in theory.signatures[ctx].preds) for ctx in theory.indices}

    # checked last: a rule may name a context declared after it
    rules = []
    for atoms in parsed_rules:
        for _, c, p in atoms:
            if c.text not in letters:
                raise SyntaxError_(f"unknown context {c.text!r}", c.line, c.col)
            if p.text not in letters[c.text]:
                raise SyntaxError_(f"letter {p.text!r} not declared in context {c.text}", p.line, p.col)
        (_, ctx, letter), body = atoms[0], atoms[1:]
        rules.append(
            McsRule(
                head=(ctx.text, letter.text),
                positive=tuple((c.text, p.text) for neg, c, p in body if not neg),
                negative=tuple((c.text, p.text) for neg, c, p in body if neg),
            )
        )
    return PropSystem(contexts=theory.indices, letters=letters, axioms=axioms, rules=tuple(rules))


def load_prop_system(path) -> PropSystem:
    from pathlib import Path

    return parse_prop_system(Path(path).read_text())


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def _letter_bits(system: PropSystem) -> dict[str, dict[str, int]]:
    """Bit k of a context's masks stands for its k-th declared letter."""
    return {
        ctx: {p: 1 << k for k, p in enumerate(system.letters[ctx])}
        for ctx in system.contexts
    }


def _encode(m: Assignment, bits: Mapping[str, int]) -> int:
    return sum(bits[p] for p in m)


def _decode(letters: tuple[str, ...], masks) -> frozenset[Assignment]:
    return frozenset(
        frozenset(p for k, p in enumerate(letters) if m >> k & 1) for m in masks
    )


def _common(masks, full: int) -> int:
    """The letters every mask makes true; all letters when there is none."""
    for m in masks:
        full &= m
    return full


def _minimal(masks) -> tuple[int, ...]:
    return tuple(m for m in masks if not any(o != m and o & m == o for o in masks))


def _holds(f: Formula, m: int, bits: Mapping[str, int]) -> bool:
    if isinstance(f, Atom):
        return bool(m & bits[f.pred])
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not _holds(f.body, m, bits)
    if isinstance(f, And):
        return _holds(f.lhs, m, bits) and _holds(f.rhs, m, bits)
    if isinstance(f, Or):
        return _holds(f.lhs, m, bits) or _holds(f.rhs, m, bits)
    if isinstance(f, Implies):
        return not _holds(f.lhs, m, bits) or _holds(f.rhs, m, bits)
    raise AssertionError(f"non-propositional formula {f!r}")


@dataclass(frozen=True, eq=False)
class _RulePlan:
    """A rule over letter bits: the head's context and bit, and the
    (context, bit) pairs its positive and negative premises read."""

    head: str
    bit: int
    positive: tuple[tuple[str, int], ...]
    negative: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, rule: McsRule, bits: Mapping[str, Mapping[str, int]]) -> _RulePlan:
        ctx, p = rule.head
        return cls(
            head=ctx,
            bit=bits[ctx][p],
            positive=tuple((c, bits[c][q]) for c, q in rule.positive),
            negative=tuple((c, bits[c][q]) for c, q in rule.negative),
        )

    def body_holds(self, common: Mapping[str, int], consistent: bool) -> bool:
        # j:p holds when every assignment of j makes p true (vacuously
        # when j is empty); not(j:q) is in the meta context when some
        # assignment of j makes q false, and every negative premise holds
        # once the meta context is empty
        return all(common[c] & b for c, b in self.positive) and (
            not consistent or not any(common[c] & b for c, b in self.negative)
        )


def _body_holds(S: PropModelSet, rule: McsRule) -> bool:
    system = S.system
    bits = _letter_bits(system)
    common = {
        ctx: _common(
            (_encode(m, bits[ctx]) for m in S.models[ctx]),
            (1 << len(system.letters[ctx])) - 1,
        )
        for ctx in system.contexts
    }
    consistent = all(S.models[ctx] for ctx in system.contexts)
    return _RulePlan.of(rule, bits).body_holds(common, consistent)


def local_reduction(S: PropModelSet) -> PropModelSet:
    """Keep only the inclusion-minimal assignments of each context."""
    bits = _letter_bits(S.system)
    reduced = {
        ctx: _decode(
            S.system.letters[ctx], _minimal([_encode(m, bits[ctx]) for m in ms])
        )
        for ctx, ms in S.models.items()
    }
    return PropModelSet(system=S.system, models=reduced)


def _axiom_masks(system: PropSystem, ctx: str, bits: Mapping[str, int]) -> tuple[int, ...]:
    """Every assignment of ctx that satisfies its axioms.  There is no
    shortcut: all 2^|letters| masks are tried, so a context with n letters
    costs 2^n axiom checks and up to 2^n ints before the first step."""
    axioms = system.axioms[ctx]
    return tuple(
        m
        for m in range(1 << len(system.letters[ctx]))
        if all(_holds(ax, m, bits) for ax in axioms)
    )


def _mask_steps(system: PropSystem) -> Iterator[dict[str, tuple[int, ...]]]:
    """The candidates of the fixpoint as int masks per context, the first
    one included.  A yielded dict is never changed afterwards, and a
    context the step left alone keeps the same tuple object."""
    bits = _letter_bits(system)
    full = {ctx: (1 << len(system.letters[ctx])) - 1 for ctx in system.contexts}
    masks = {ctx: _axiom_masks(system, ctx, bits[ctx]) for ctx in system.contexts}
    common = {ctx: _common(masks[ctx], full[ctx]) for ctx in system.contexts}
    consistent = all(masks.values())
    plans = [_RulePlan.of(rule, bits) for rule in system.rules]
    readers: dict[str, list[_RulePlan]] = {ctx: [] for ctx in system.contexts}
    for plan in plans:
        for ctx in {c for c, _ in plan.positive + plan.negative}:
            readers[ctx].append(plan)
    nonmonotonic = [plan for plan in plans if plan.negative]
    recheck: Iterable[_RulePlan] = plans
    while True:
        yield masks
        # every rule that fires is applied against this one snapshot of
        # `common`; a rule whose head letter is already common to its
        # context cannot delete anything
        forced: dict[str, int] = {}
        for plan in recheck:
            if not common[plan.head] & plan.bit and plan.body_holds(common, consistent):
                forced[plan.head] = forced.get(plan.head, 0) | plan.bit
        if not forced:
            return
        masks = dict(masks)
        for ctx, f in forced.items():
            masks[ctx] = tuple(m for m in masks[ctx] if m & f == f)
            common[ctx] = _common(masks[ctx], full[ctx])
        # a body can change only through a context it reads, or, for a
        # negative premise, when the meta context becomes empty
        recheck = {plan for ctx in forced for plan in readers[ctx]}
        if consistent and not all(masks[ctx] for ctx in forced):
            consistent = False
            recheck.update(nonmonotonic)


def fixpoint_steps(system: PropSystem) -> Iterator[PropModelSet]:
    """Yield the shrinking candidates, from all axiom models to the
    fixpoint (inclusive).

    The first candidate lists every assignment of every context that
    satisfies its axioms: 2^|letters| masks per context are checked up
    front, so a context with many letters is expensive however few rules
    it has.  A candidate shares the frozensets of the contexts that its
    step left unchanged with the one before it."""
    models: dict[str, frozenset[Assignment]] = {}
    previous: dict[str, tuple[int, ...]] = {}
    for masks in _mask_steps(system):
        models = {
            ctx: models[ctx] if previous.get(ctx) is ms else _decode(system.letters[ctx], ms)
            for ctx, ms in masks.items()
        }
        previous = masks
        yield PropModelSet(system=system, models=models)


def minimal_model(system: PropSystem) -> PropModelSet:
    """The locally reduced fixpoint of the rule-filtering operator."""
    for masks in _mask_steps(system):
        pass
    return PropModelSet(
        system=system,
        models={
            ctx: _decode(system.letters[ctx], _minimal(ms)) for ctx, ms in masks.items()
        },
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _sorted_set(ms: frozenset[Assignment]) -> list[list[str]]:
    return sorted((sorted(m) for m in ms))


def equilibrium_to_json(S: PropModelSet) -> dict:
    """Deterministic JSON image: contexts in declaration order, each a
    sorted list of sorted assignments, plus the derived meta context."""
    return {
        "contexts": {ctx: _sorted_set(S.models[ctx]) for ctx in S.system.contexts},
        "mc": _sorted_set(S.mc_models()),
    }


def _braces(ms: frozenset[Assignment]) -> str:
    return "{%s}" % ", ".join("{%s}" % ", ".join(m) for m in _sorted_set(ms))


def render_equilibrium(S: PropModelSet) -> str:
    lines = [f"M_{ctx} = {_braces(S.models[ctx])}" for ctx in S.system.contexts]
    lines.append(f"mc = {_braces(S.mc_models())}")
    return "\n".join(lines)


def equilibrium_json_text(S: PropModelSet) -> str:
    return json.dumps(equilibrium_to_json(S), indent=2) + "\n"
