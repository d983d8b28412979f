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

`letters` and `axiom` entries may repeat inside a block; axioms are
propositional formulas over the block's letters (`~ & | -> false`).
A rule with no `<-` part is a fact and is always applicable.
"""

from __future__ import annotations

import json
import re
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
    SyntaxError_,
    children,
    parse_formula,
    parse_theory,
    render_formula,
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

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        # strip comments but keep line structure for error reporting
        self.text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def error(self, message: str) -> PropFormatError:
        line = self.text.count("\n", 0, self.pos) + 1
        return PropFormatError(f"line {line}: {message}")

    def peek_name(self) -> str | None:
        self._skip_ws()
        m = _NAME.match(self.text, self.pos)
        return m.group(0) if m else None

    def name(self, what: str) -> str:
        got = self.peek_name()
        if got is None:
            raise self.error(f"expected {what}")
        self.pos += len(got)
        return got

    def literal(self, token: str) -> None:
        self._skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def tries(self, token: str) -> bool:
        self._skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def until(self, stop: str, what: str) -> str:
        self._skip_ws()
        end = self.text.find(stop, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}, expected {stop!r}")
        raw = self.text[self.pos:end]
        self.pos = end + len(stop)
        return raw


def _assert_propositional(f: Formula) -> None:
    if isinstance(f, (Forall, Exists)):
        raise PropFormatError("axioms must be propositional, found a quantifier")
    if isinstance(f, Eq):
        raise PropFormatError(
            f"axioms must be propositional, found {render_formula(f)}"
        )
    for g in children(f):
        _assert_propositional(g)


def _parse_rule_atom(raw: str, sc: _Scanner) -> tuple[bool, str, str]:
    raw = raw.strip()
    negative = False
    if raw.startswith("not(") and raw.endswith(")"):
        negative = True
        raw = raw[len("not("):-1].strip()
    ctx, colon, letter = raw.partition(":")
    ctx, letter = ctx.strip(), letter.strip()
    if not colon or not _NAME.fullmatch(ctx) or not _NAME.fullmatch(letter):
        raise sc.error(f"bad rule atom {raw!r}, expected context:letter")
    return negative, ctx, letter


def parse_prop_system(text: str) -> PropSystem:
    """Parse the system file format shown in the module docstring."""
    sc = _Scanner(text)
    order: list[str] = []
    letters: dict[str, list[str]] = {}
    axiom_texts: dict[str, list[str]] = {}
    rule_texts: list[str] = []
    while not sc.at_end():
        keyword = sc.name("'context' or 'rule'")
        if keyword == "context":
            ctx = sc.name("context name")
            if ctx in letters:
                raise sc.error(f"duplicate context {ctx!r}")
            order.append(ctx)
            letters[ctx] = []
            axiom_texts[ctx] = []
            sc.literal("{")
            while not sc.tries("}"):
                entry = sc.name("'letters', 'axiom' or '}'")
                if entry == "letters":
                    while True:
                        p = sc.name("letter")
                        if p in letters[ctx]:
                            raise sc.error(f"duplicate letter {p!r} in context {ctx}")
                        letters[ctx].append(p)
                        if not sc.tries(","):
                            break
                    sc.literal(";")
                elif entry == "axiom":
                    axiom_texts[ctx].append(sc.until(";", "axiom"))
                else:
                    raise sc.error(f"unknown context entry {entry!r}")
        elif keyword == "rule":
            rule_texts.append(sc.until(".", "rule"))
        else:
            raise sc.error(f"unknown declaration {keyword!r}")
    if not order:
        raise PropFormatError("system declares no contexts")

    # reuse the theory machinery for axiom parsing: letter = 0-ary predicate
    lines = ["index " + ", ".join(order)]
    for ctx in order:
        preds = ", ".join(f"{p}/0" for p in letters[ctx])
        lines.append("signature %s { %s }" % (ctx, f"pred {preds};" if preds else ""))
    theory = parse_theory("\n".join(lines))

    axioms: dict[str, tuple[Formula, ...]] = {}
    for ctx in order:
        parsed = []
        for raw in axiom_texts[ctx]:
            try:
                f = parse_formula(theory, ctx, raw)
            except SyntaxError_ as exc:
                raise PropFormatError(f"axiom {raw.strip()!r}: {exc}") from exc
            _assert_propositional(f)
            parsed.append(f)
        axioms[ctx] = tuple(parsed)

    rules = []
    for raw in rule_texts:
        head_raw, arrow, body_raw = raw.partition("<-")
        negative, ctx, letter = _parse_rule_atom(head_raw, sc)
        if negative:
            raise sc.error("rule heads cannot be not(...) atoms")
        atoms = []
        if arrow and body_raw.strip():
            atoms = [_parse_rule_atom(part, sc) for part in body_raw.split(",")]
        for _, c, p in [(False, ctx, letter)] + atoms:
            if c not in letters:
                raise PropFormatError(f"rule {raw.strip()!r}: unknown context {c!r}")
            if p not in letters[c]:
                raise PropFormatError(
                    f"rule {raw.strip()!r}: letter {p!r} not declared in context {c}"
                )
        rules.append(
            McsRule(
                head=(ctx, letter),
                positive=tuple((c, p) for neg, c, p in atoms if not neg),
                negative=tuple((c, p) for neg, c, p in atoms if neg),
            )
        )

    return PropSystem(
        contexts=tuple(order),
        letters={c: tuple(ps) for c, ps in letters.items()},
        axioms=axioms,
        rules=tuple(rules),
    )


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
