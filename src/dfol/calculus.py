"""Proof scripts for the multi-language natural deduction calculus.

A proof script is a Lemmon style listing of numbered steps, each one a
labeled formula justified by a rule application over earlier steps.
Local rules (``impI`` through ``eqE``, plus ``cut``) work at single
indices or glue indices through their major premise; interface rules
(``BR``, ``fromII``, ``toII``) move information across indices through
declared bridge rules and domain relations.  ``check_proof`` validates
every step against its rule schema and against the six global
restrictions R1 to R6 that keep arrow variable reasoning sound, and
reports the first failing step.

Key notions, all relative to a script's concluding step:

* dependencies: the assumptions a step still rests on, in the usual
  Lemmon arithmetic (assumptions depend on themselves; a rule's
  dependencies are its premises' minus anything it discharges);
* existential arrow variables of a step: arrow variables occurring in
  its formula but in none of the assumptions it depends on, i.e.
  variables that assert mere existence of a counterpart rather than
  naming one from an open hypothesis;
* local assumptions: assumptions with the conclusion's index whose
  every path from the conclusion crosses neither an interface rule nor
  the major premise of a cross index ``cut``/``orE``/``exE``; all other
  assumptions are global.

One table fixes, for every rule, how many premises it takes and where
they sit.  ``assumption`` and ``axiom`` take none.  ``impI``, ``andE``,
``orI``, ``botI``, ``allI``, ``allE`` and ``exI`` take one premise, and
``impE``, ``andI`` and ``eqE`` two, at the step's own index; ``eqI``
and ``local-lemma`` take any number there.  ``cut`` and ``exE`` take a
major premise and one minor, ``orE`` a major premise and two minors:
the major anywhere, the minors at the step's index.  ``fromII`` and
``toII`` take one premise at another index, and ``BR`` the premises of
its bridge rule, at the indices that rule names.  Only ``impI``,
``botI``, ``orE``, ``exE`` and ``cut`` discharge assumptions, and a
discharged assumption copies, at the first premise's index, the
antecedent of the conclusion (``impI``, ``botI``), a disjunct of the
major premise (``orE``), its body (``exE``) or the major premise itself
(``cut``).  These columns are checked alike for every step; each rule
then adds only its own schema.

The ``local-lemma`` pseudo rule compresses classical reasoning inside
one index: it accepts a step when the bundled bounded prover derives
the conclusion from the cited premises together with the arrow free
local axioms of that index, reading arrow variables as constants.

A proof file, and its grammar over the tokens of theory files
(`syntax.tokenize`)::

    theory magicbox.dfol
    (1) 1: inbox(x,r) ; rule=assumption
    (2) 2: exists y. inbox(x^<1,y) ; rule=BR:1 ; from=1
    conclude (2) global=1 local=

    script := step* 'conclude' '(' NUMBER ')' (('global' | 'local') '=' IDS)*
    step   := '(' NUMBER ')' LABELED (';' field)*
    field  := 'rule' '=' RULE | ('from' | 'discharge') '=' IDS
    RULE   := IDENT ('-' IDENT)? (':' IDENT | ':' NUMBER)?
    IDS    := (NUMBER (',' NUMBER)*)?

LABELED is `i: <formula>`; line breaks are whitespace like any other.
The first line that is not blank or a comment may be the header, read as
raw text: `theory`, then a path up to the line's end or a `#`, relative
to base_dir.  A step needs a ``rule=``, and no field or claim may
repeat.  ``from=`` lists premises in schema order (major premise first
for ``cut``, ``orE``, ``exE``); ``discharge=`` lists the assumption
steps a rule closes.  The footer claims the concluding step and the
split of its dependencies into global and local parts.  A malformed
script, or a theory file that cannot be read or parsed, raises
``ProofSyntaxError`` at a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .prover import DEFAULT_GAMMA_ROUNDS, DEFAULT_MAX_STEPS, tableau_valid
from .syntax import (
    And,
    ArrowVar,
    App,
    Atom,
    Eq,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    LabeledFormula,
    Not,
    Or,
    SyntaxError_,
    Term,
    Theory,
    TokenStream,
    Var,
    _labeled_formula,
    arrow_vars,
    atom_terms,
    children,
    free_plain_vars,
    is_complete_formula,
    parse_theory,
    render_term,
    substitute,
    term_arrow_vars,
    term_free_plain_vars,
    tokenize,
)

__all__ = [
    "RuleId",
    "ProofStep",
    "ProofScript",
    "CheckResult",
    "CheckConfig",
    "ProofSyntaxError",
    "parse_rule_id",
    "parse_proof_script",
    "load_proof_script",
    "check_proof",
    "assumption_status",
    "existential_vars_of_step",
]


@dataclass(frozen=True)
class _Rule:
    """A row of the rule table: premise count (None for any number, or
    for ``BR`` its bridge rule's); where the premises sit (``own`` index,
    ``major`` anywhere and minors at the own index, ``other`` index, or as
    the ``bridge`` rule says); both in words; whether a side may be named;
    for a discharging rule, the formulas a discharged assumption may copy,
    given the conclusion and the major premise, and those in words."""

    arity: int | None
    placement: str
    takes: str
    sided: bool = False
    hypotheses: Callable[[Formula, Formula], tuple[Formula, ...]] | None = None
    discharges: str = ""


def _antecedent(f: Formula, major: Formula) -> tuple[Formula, ...]:
    return (_as_implication(f)[0],)


_ONE, _TWO = "one premise at its own index", "two premises at its own index"
_MINOR = "a major premise and one minor at its own index"
_RULES: dict[str, _Rule] = {
    "assumption": _Rule(0, "own", "no premises"),
    "axiom": _Rule(0, "own", "no premises"),
    "impI": _Rule(1, "own", _ONE, hypotheses=_antecedent, discharges="copies of its hypothesis"),
    "impE": _Rule(2, "own", _TWO),
    "andI": _Rule(2, "own", _TWO),
    "andE": _Rule(1, "own", _ONE, sided=True),
    "orI": _Rule(1, "own", _ONE, sided=True),
    "orE": _Rule(3, "major", "a major premise and two minors at its own index",
                 hypotheses=lambda f, major: (major.lhs, major.rhs),
                 discharges="copies of the disjuncts"),
    "botI": _Rule(1, "own", _ONE, hypotheses=_antecedent, discharges="copies of its hypothesis"),
    "allI": _Rule(1, "own", _ONE),
    "allE": _Rule(1, "own", _ONE),
    "exI": _Rule(1, "own", _ONE),
    "exE": _Rule(2, "major", _MINOR,
                 hypotheses=lambda f, major: (major.body,), discharges="the opened body"),
    "eqI": _Rule(None, "own", "premises at its own index"),
    "eqE": _Rule(2, "own", _TWO),
    "cut": _Rule(2, "major", _MINOR,
                 hypotheses=lambda f, major: (major,), discharges="copies of its major premise"),
    "local-lemma": _Rule(None, "own", "premises at its own index"),
    "BR": _Rule(None, "bridge", "the premises of its bridge rule"),
    "fromII": _Rule(1, "other", "one premise at another index"),
    "toII": _Rule(1, "other", "one premise at another index"),
}


@dataclass(frozen=True)
class RuleId:
    """Rule tag of a step: a name plus an optional side or bridge index.

    ``side`` picks the projection of ``andE`` or the injection of
    ``orI`` (``left``/``right``, optional: the checker infers it);
    ``br_ref`` is the 1-based position of a bridge rule in the theory.
    """

    name: str
    side: str | None = None
    br_ref: int | None = None

    def __post_init__(self) -> None:
        rule = _RULES.get(self.name)
        if rule is None:
            raise ValueError(f"unknown rule {self.name!r}")
        if self.side is not None and self.side not in ("left", "right"):
            raise ValueError(f"bad rule side {self.side!r}")
        if self.name == "BR" and (self.br_ref is None or self.br_ref < 1):
            raise ValueError("BR needs a 1-based bridge rule reference")
        if self.name != "BR" and self.br_ref is not None:
            raise ValueError(f"{self.name} takes no bridge rule reference")
        if self.side is not None and not rule.sided:
            raise ValueError(f"{self.name} takes no side")

    def __str__(self) -> str:
        if self.br_ref is not None:
            return f"{self.name}:{self.br_ref}"
        if self.side is not None:
            return f"{self.name}:{self.side}"
        return self.name


@dataclass(frozen=True)
class ProofStep:
    """One numbered line of a proof script."""

    id: int
    formula: LabeledFormula
    rule: RuleId
    premises: tuple[int, ...] = ()
    discharged: tuple[int, ...] = ()

    @property
    def index(self) -> str:
        return self.formula.index


@dataclass(frozen=True)
class ProofScript:
    """A parsed proof: theory, steps, and the claimed conclusion split."""

    theory: Theory
    steps: tuple[ProofStep, ...]
    concluded: int
    claimed_global: frozenset[int]
    claimed_local: frozenset[int]

    def step(self, sid: int) -> ProofStep:
        for s in self.steps:
            if s.id == sid:
                return s
        raise KeyError(f"no step ({sid})")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of ``check_proof``: valid, or first violation found.

    ``code`` is one of R1..R6, ``shape`` (rule schema mismatch, failed
    lemma obligation), ``ref`` (bad step reference), or ``conclusion``
    (footer inconsistent with the computed dependencies).
    """

    ok: bool
    step: int | None = None
    code: str | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def valid(cls) -> CheckResult:
        return cls(True)

    @classmethod
    def violation(cls, step: int | None, code: str, message: str) -> CheckResult:
        return cls(False, step, code, message)


@dataclass(frozen=True)
class CheckConfig:
    """Budgets for the bundled prover behind ``local-lemma`` steps."""

    lemma_gamma_rounds: int = DEFAULT_GAMMA_ROUNDS
    lemma_max_steps: int = DEFAULT_MAX_STEPS


class ProofSyntaxError(SyntaxError_):
    """Malformed proof file, at a line and column (1-based)."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_rule_id(text: str) -> RuleId:
    """A rule tag such as ``impI``, ``andE:left`` or ``BR:3``; any other
    text raises ValueError."""
    ts = TokenStream(tokenize(text))
    try:
        rule = _rule_id(ts)
        ts.expect_end("eof")
    except SyntaxError_ as exc:
        raise ValueError(exc.message) from None
    return rule


def _rule_id(ts: TokenStream) -> RuleId:
    """`ident [: ident | : NUMBER]`, where `local-lemma` is ident `-` ident."""
    tok = ts.expect("ident")
    name = tok.text
    if ts.accept("-"):
        name += "-" + ts.expect("ident").text
    tag = ts.accept(":") and (ts.accept("number") or ts.expect("ident"))
    try:
        if tag and tag.kind == "number":
            return RuleId(name, br_ref=int(tag.text))
        return RuleId(name, side=tag.text if tag else None)
    except ValueError as exc:
        raise SyntaxError_(str(exc), tok.line, tok.col) from None


def _step_ids(ts: TokenStream) -> tuple[int, ...]:
    """`NUMBER (, NUMBER)*`, or nothing."""
    if not ts.at("number"):
        return ()
    return tuple(int(t.text) for t in ts.separated(lambda: ts.expect("number")))


def _field(ts: TokenStream, keys: tuple[str, ...], fields: dict) -> None:
    """One `key=value` field into fields; key must be one of keys, once."""
    key = ts.expect("ident")
    if key.text not in keys or key.text in fields:
        what = "repeated" if key.text in fields else "unknown"
        raise SyntaxError_(f"{what} field {key.text!r}", key.line, key.col)
    ts.expect("=")
    fields[key.text] = _rule_id(ts) if key.text == "rule" else _step_ids(ts)


def _step(theory: Theory, ts: TokenStream) -> ProofStep:
    """`( NUMBER ) i: <formula>` and its `; key=value` fields."""
    start = ts.expect("(")
    sid = int(ts.expect("number").text)
    ts.expect(")")
    lf = _labeled_formula(theory, ts)
    fields: dict = {}
    while ts.accept(";"):
        _field(ts, ("rule", "from", "discharge"), fields)
    if "rule" not in fields:
        raise SyntaxError_("step needs a rule= field", start.line, start.col)
    return ProofStep(sid, lf, fields["rule"], fields.get("from", ()), fields.get("discharge", ()))


def _header_theory(line: str, line_no: int, base_dir: str | Path) -> Theory:
    """The theory named by the header line `theory <path>`."""
    path = line.split("#", 1)[0].strip()[len("theory"):].strip()
    col = len(line) - len(line.lstrip()) + 1
    try:
        return parse_theory((Path(base_dir) / path).read_text())
    except (OSError, UnicodeError) as exc:
        raise ProofSyntaxError(f"cannot read theory {path!r}: {exc}", line_no, col) from exc
    except SyntaxError_ as exc:
        raise ProofSyntaxError(f"theory {path!r}, {exc}", line_no, col) from exc


def parse_proof_script(
    text: str,
    *,
    theory: Theory | None = None,
    base_dir: str | Path = ".",
) -> ProofScript:
    """Parse a proof file; the theory comes from the ``theory <path>``
    header (resolved against base_dir) unless passed explicitly."""
    # The header is the one line read as text, since a path is no token
    # sequence; it is blanked, not dropped, so line numbers stay true.
    lines = text.split("\n")
    for n, line in enumerate(lines):
        words = line.split("#", 1)[0].split(None, 1)
        if words:
            if words[0] == "theory":
                lines[n] = ""
                if theory is None:
                    theory = _header_theory(line, n + 1, base_dir)
            break
    try:
        ts = TokenStream(tokenize("\n".join(lines)))
        if theory is None:
            raise ts.error("proof has no theory header")
        steps = []
        while not ts.accept("ident", "conclude"):
            if ts.at("eof"):
                raise ts.error("proof has no conclude footer")
            steps.append(_step(theory, ts))
        ts.expect("(")
        concluded = int(ts.expect("number").text)
        ts.expect(")")
        claimed: dict = {}
        while ts.at("ident"):
            _field(ts, ("global", "local"), claimed)
        ts.expect_end("eof")
    except SyntaxError_ as exc:
        raise ProofSyntaxError(exc.message, exc.line, exc.col) from exc
    claims = (frozenset(claimed.get(key, ())) for key in ("global", "local"))
    return ProofScript(theory, tuple(steps), concluded, *claims)


def load_proof_script(path: str | Path, *, theory: Theory | None = None) -> ProofScript:
    path = Path(path)
    return parse_proof_script(path.read_text(), theory=theory, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Structural matching helpers
# ---------------------------------------------------------------------------


def _match(
    pattern: Formula,
    target: Formula,
    term_policy,
    bound: frozenset[str] = frozenset(),
) -> bool:
    """Structural match of target against pattern: same connectives, same
    predicates, quantifiers over the same variables.  Argument terms go to
    ``term_policy(p, t, bound)`` first, with bound the variables bound
    above them; it decides with True/False, or returns None to demand the
    same term (applications compared argument by argument)."""
    cls = type(pattern)
    if cls is not type(target):
        return False
    if cls is Forall or cls is Exists:
        if pattern.var != target.var:
            return False
        bound = bound | {pattern.var}
    elif cls is Atom and pattern.pred != target.pred:
        return False
    return _match_terms(atom_terms(pattern), atom_terms(target), term_policy, bound) and all(
        _match(p, t, term_policy, bound) for p, t in zip(children(pattern), children(target))
    )


def _match_terms(ps, ts, term_policy, bound: frozenset[str]) -> bool:
    if len(ps) != len(ts):
        return False
    for p, t in zip(ps, ts):
        verdict = term_policy(p, t, bound)
        if verdict is None:
            verdict = (
                p.func == t.func and _match_terms(p.args, t.args, term_policy, bound)
                if type(p) is App and type(t) is App
                else p == t
            )
        if not verdict:
            return False
    return True


def _match_hole(body: Formula, var: str, target: Formula) -> bool:
    """Does ``body[t/var] == target`` for some term t?  When var has no
    free occurrence, body must equal target and any term t works."""
    candidates: list[Term] = []

    def hole(b: Term, t: Term, bound: frozenset[str]) -> bool | None:
        if type(b) is Var and b.name == var and var not in bound:
            candidates.append(t)
            return True
        return None

    if not _match(body, target, hole):
        return False
    distinct = set(candidates)
    if not distinct:
        return True
    if len(distinct) > 1:
        return False
    # confirm via real substitution so capture rules stay authoritative
    try:
        return substitute(body, var, distinct.pop()) == target
    except ValueError:
        return False


def _rewrite_ok(before: Formula, after: Formula, t: Term, u: Term) -> bool:
    """True iff ``after`` comes from ``before`` by replacing some free
    occurrences of t with u (no replacement under binders capturing
    variables of either side)."""
    # binders over these names block replacement underneath them
    frozen = term_free_plain_vars(t) | term_free_plain_vars(u)

    def rewrite(b: Term, a: Term, bound: frozenset[str]) -> bool | None:
        if b == t and a == u and not (frozen & bound):
            return True
        return None

    return _match(before, after, rewrite)


def _match_renaming(
    pattern: Formula,
    target: Formula,
    sigma: dict[str, str],
) -> bool:
    """Match target against pattern under a plain variable renaming,
    extending sigma in place.  Arrow variables rename through their
    base name; bound variables must agree literally."""

    def rename(p: Term, t: Term, bound: frozenset[str]) -> bool | None:
        if type(p) is Var and p.name not in bound:
            return type(t) is Var and sigma.setdefault(p.name, t.name) == t.name
        if type(p) is ArrowVar:
            return (
                type(t) is ArrowVar
                and (p.direction, p.foreign, p.label) == (t.direction, t.foreign, t.label)
                and sigma.setdefault(p.base, t.base) == t.base
            )
        return None

    return _match(pattern, target, rename)


def _mentions_arrow(f: Formula, x: str, home: str) -> bool:
    """Does f hold an arrow variable standing for variable x of index home?"""
    return any(av.base == x and av.foreign == home for av in arrow_vars(f))


def _as_implication(f: Formula) -> tuple[Formula, Formula] | None:
    """Implication view of f; negation reads as implying falsum."""
    if isinstance(f, Implies):
        return (f.lhs, f.rhs)
    if isinstance(f, Not):
        return (f.body, Falsum())
    return None


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self, script: ProofScript, config: CheckConfig):
        self.script = script
        self.theory = script.theory
        self.config = config
        self.by_id: dict[int, ProofStep] = {}
        self.dep: dict[int, frozenset[int]] = {}
        # locality flags relative to the concluding step
        self.clean: dict[int, bool] = {}
        self.dirty: dict[int, bool] = {}

    # -- plumbing -----------------------------------------------------------

    def arrows_of(self, sid: int) -> frozenset[ArrowVar]:
        return frozenset(arrow_vars(self.by_id[sid].formula.formula))

    def existential(self, sid: int) -> frozenset[ArrowVar]:
        anchored: set[ArrowVar] = set()
        for a in self.dep[sid]:
            anchored |= self.arrows_of(a)
        return self.arrows_of(sid) - anchored

    def complete(self, step: ProofStep) -> bool:
        sig = self.theory.signature(step.index)
        return is_complete_formula(sig, step.formula.formula)

    def premise_edges(self, step: ProofStep) -> list[tuple[int, bool]]:
        """(premise id, preserves locality) pairs for the step: an
        interface rule's edges never do, a cross index major's neither."""
        placement = _RULES[step.rule.name].placement
        edges = [(p, placement in ("own", "major")) for p in step.premises]
        if placement == "major" and edges:
            edges[0] = (step.premises[0], self.by_id[step.premises[0]].index == step.index)
        return edges

    def compute_locality(self) -> None:
        root = self.by_id.get(self.script.concluded)
        if root is None:
            return
        # propagate (clean, dirty) reachability down every premise edge;
        # a discharged subtree still counts, its branches exist in the tree
        work = [(root.id, True)]
        while work:
            sid, clean = work.pop()
            key = self.clean if clean else self.dirty
            if key.get(sid):
                continue
            key[sid] = True
            step = self.by_id[sid]
            for pid, preserves in self.premise_edges(step):
                work.append((pid, clean and preserves))

    def is_local(self, sid: int) -> bool:
        root = self.by_id[self.script.concluded]
        step = self.by_id[sid]
        return (
            step.index == root.index
            and self.clean.get(sid, False)
            and not self.dirty.get(sid, False)
        )

    # -- rule schemas --------------------------------------------------------

    def shape_error(self, step: ProofStep) -> str | None:
        """None if the step instantiates its rule schema, else a message."""
        name = step.rule.name
        rule = _RULES[name]
        prem = [self.by_id[p] for p in step.premises]
        arity = rule.arity
        if name == "BR":
            if step.rule.br_ref > len(self.theory.rules):
                return f"theory has no bridge rule {step.rule.br_ref}"
            arity = len(self.theory.rules[step.rule.br_ref - 1].premises)
        at_own = [p.index == step.index for p in prem]
        if (
            arity is not None and len(prem) != arity
            or rule.placement == "own" and not all(at_own)
            or rule.placement == "major" and not all(at_own[1:])
            or rule.placement == "other" and any(at_own)
        ):
            return f"{name} takes {rule.takes}"
        if step.discharged and rule.hypotheses is None:
            return f"{name} discharges no assumptions"
        err = self.schema_error(step, prem)
        if err is not None or not step.discharged:
            return err
        major = prem[0]
        hypotheses = rule.hypotheses(step.formula.formula, major.formula.formula)
        for d in step.discharged:
            hyp = self.by_id[d].formula
            if hyp.index != major.index or hyp.formula not in hypotheses:
                return f"{name} discharges {rule.discharges}"
        return None

    def schema_error(self, step: ProofStep, prem: list[ProofStep]) -> str | None:
        """The rule's own schema, for a step whose premise count and
        placement the table has already checked."""
        name = step.rule.name
        f = step.formula.formula
        i = step.index
        got = [p.formula.formula for p in prem]

        if name in ("assumption", "axiom"):
            if name == "axiom" and step.formula not in self.theory.axioms:
                return "axiom step does not match any theory axiom"
            return None

        if name == "impI":
            view = _as_implication(f)
            if view is None:
                return "impI must conclude an implication"
            if got[0] != view[1]:
                return "impI premise must be the consequent"
            return None

        if name == "impE":
            for maj, minor in (got, got[::-1]):
                view = _as_implication(maj)
                if view and minor == view[0] and f == view[1]:
                    return None
            return "impE premises must be an implication and its antecedent"

        if name == "andI":
            if not isinstance(f, And):
                return "andI must conclude a conjunction"
            if tuple(got) not in ((f.lhs, f.rhs), (f.rhs, f.lhs)):
                return "andI premises must be the two conjuncts"
            return None

        if name == "andE":
            src = got[0]
            if not isinstance(src, And):
                return "andE premise must be a conjunction"
            sides = {"left": src.lhs, "right": src.rhs}
            if step.rule.side is not None:
                return None if f == sides[step.rule.side] else "andE side mismatch"
            return None if f in sides.values() else "andE conclusion is neither conjunct"

        if name == "orI":
            if not isinstance(f, Or):
                return "orI must conclude a disjunction"
            sides = {"left": f.lhs, "right": f.rhs}
            if step.rule.side is not None:
                return None if got[0] == sides[step.rule.side] else "orI side mismatch"
            return None if got[0] in sides.values() else "orI premise is neither disjunct"

        if name == "orE":
            if not isinstance(got[0], Or):
                return "orE major premise must be a disjunction"
            if got[1] != f or got[2] != f:
                return "orE minors must both conclude the conclusion formula"
            return None

        if name == "botI":
            view = _as_implication(f)
            if view is None or view[1] != Falsum():
                return "botI must conclude a negation"
            if got[0] != Falsum():
                return "botI premise must be falsum"
            return None

        if name == "allI":
            if not isinstance(f, Forall):
                return "allI must conclude a universal"
            if got[0] != f.body:
                return "allI premise must be the body"
            return None

        if name == "allE":
            src = got[0]
            if not isinstance(src, Forall):
                return "allE premise must be a universal"
            if _match_hole(src.body, src.var, f):
                return None
            return "allE conclusion is not an instance of the body"

        if name == "exI":
            if not isinstance(f, Exists):
                return "exI must conclude an existential"
            if _match_hole(f.body, f.var, got[0]):
                return None
            return "exI premise is not an instance of the body"

        if name == "exE":
            if not isinstance(got[0], Exists):
                return "exE major premise must be an existential"
            if got[1] != f:
                return "exE minor must conclude the conclusion formula"
            return None

        if name == "eqI":
            if not isinstance(f, Eq) or f.lhs != f.rhs:
                return "eqI must conclude t = t"
            if not term_arrow_vars(f.lhs) <= set().union(*map(arrow_vars, got)):
                return "every arrow variable of t needs a premise occurrence"
            return None

        if name == "eqE":
            for eq_f, before in (got, got[::-1]):
                if not isinstance(eq_f, Eq):
                    continue
                for t, u in ((eq_f.lhs, eq_f.rhs), (eq_f.rhs, eq_f.lhs)):
                    if _rewrite_ok(before, f, t, u):
                        return None
            return "eqE conclusion is not an equality rewrite of the premise"

        if name == "cut":
            if got[1] != f:
                return "cut minor must conclude the conclusion formula"
            return None

        if name == "local-lemma":
            axioms = self.theory.local_axioms(i)
            if tableau_valid(
                got + [ax.formula for ax in axioms if not arrow_vars(ax.formula)],
                f,
                gamma_rounds=self.config.lemma_gamma_rounds,
                max_steps=self.config.lemma_max_steps,
            ):
                return None
            return "local-lemma obligation not discharged within the prover budget"

        if name == "BR":
            rule = self.theory.rules[step.rule.br_ref - 1]
            sigma: dict[str, str] = {}
            for p, want in zip(prem, rule.premises):
                if p.index != want.index:
                    return "BR premise index mismatch"
                if not _match_renaming(want.formula, p.formula.formula, sigma):
                    return "BR premises do not instantiate the rule"
            if i != rule.conclusion.index:
                return "BR conclusion index mismatch"
            if not _match_renaming(rule.conclusion.formula, f, sigma):
                return "BR conclusion does not instantiate the rule"
            return None

        # fromII and toII
        src = got[0]
        j = prem[0].index
        if not isinstance(src, Eq) or not isinstance(f, Eq):
            return f"{name} connects two equalities"
        want_dir, out_dir = (">", "<") if name == "fromII" else ("<", ">")

        def split(eq: Eq, dir_: str, foreign: str):
            for a, b in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                if type(a) is Var and type(b) is ArrowVar:
                    if (b.direction, b.foreign) == (dir_, foreign):
                        return (a.name, b.base, b.label)
            return None

        pair = split(src, want_dir, i)
        if pair is None:
            return f"{name} premise must equate a variable with its {want_dir} counterpart"
        x, y, label = pair
        want = split(f, out_dir, j)
        if want is None:
            return f"{name} conclusion must equate a variable with its {out_dir} counterpart"
        # the roles swap: premise x = arrow-of-y turns into
        # arrow-of-x = y at the other index
        if want != (y, x, label):
            return f"{name} conclusion must swap the equated pair"
        return None

    # -- restrictions ---------------------------------------------------------

    def restriction_error(self, step: ProofStep) -> tuple[str, str] | None:
        name = step.rule.name
        placement = _RULES[name].placement
        prem = [self.by_id[p] for p in step.premises]

        # R1: only cut, orE, and exE may consume existential variables
        if placement != "major":
            for p in prem:
                ex = self.existential(p.id)
                if ex:
                    return (
                        "R1",
                        f"premise ({p.id}) carries existential "
                        f"{', '.join(sorted(map(render_term, ex)))}",
                    )

        # R2: only interface rules introduce new existential variables
        if placement == "other":
            f = step.formula.formula
            assert isinstance(f, Eq)
            arrow = f.lhs if isinstance(f.lhs, ArrowVar) else f.rhs
            assert isinstance(arrow, ArrowVar)
            if arrow not in self.existential(step.id):
                return (
                    "R2",
                    f"{render_term(arrow)} must be existential in the conclusion",
                )
        elif placement != "bridge":
            inherited: set[ArrowVar] = set()
            for p in prem:
                inherited |= self.arrows_of(p.id)
            new = self.existential(step.id) - inherited
            if new:
                return (
                    "R2",
                    f"introduces existential {', '.join(sorted(map(render_term, new)))}",
                )

        # R3: discharged assumptions must be local or complete
        if step.discharged:
            local = {d: self.is_local(d) for d in step.discharged}
            complete = {d: self.complete(self.by_id[d]) for d in step.discharged}
            if name == "orE":
                if not all(local.values()) and not any(complete.values()):
                    return (
                        "R3",
                        "orE discharges non-local assumptions none of which is complete",
                    )
            else:
                for d in step.discharged:
                    if not local[d] and not complete[d]:
                        return (
                            "R3",
                            f"discharged assumption ({d}) is neither local nor complete",
                        )

        # R4: the major's existential variables stay out of the other
        # assumptions employed to derive the minors
        if placement == "major":
            major = prem[0]
            ex_major = self.existential(major.id)
            if ex_major:
                minor_deps: set[int] = set()
                for m in prem[1:]:
                    minor_deps |= self.dep[m.id]
                minor_deps -= set(step.discharged)
                for a in sorted(minor_deps):
                    shared = ex_major & self.arrows_of(a)
                    if shared:
                        return (
                            "R4",
                            f"existential {', '.join(sorted(map(render_term, shared)))} "
                            f"of the major premise also occurs in assumption ({a})",
                        )

        # R5: the generalized variable stays out of the open assumptions
        if name == "allI":
            f = step.formula.formula
            assert isinstance(f, Forall)
            x = f.var
            for a in sorted(self.dep[prem[0].id]):
                af = self.by_id[a].formula
                if af.index == step.index and x in free_plain_vars(af.formula):
                    return ("R5", f"variable {x} is free in assumption ({a})")
                if af.index != step.index and _mentions_arrow(af.formula, x, step.index):
                    return (
                        "R5",
                        f"an arrow variable of {x} towards this index occurs in assumption ({a})",
                    )

        # R6: the witness variable of exE stays fenced
        if name == "exE":
            major, minor = prem
            src = major.formula.formula
            assert isinstance(src, Exists)
            x = src.var
            j, i = major.index, step.index
            open_deps = sorted(self.dep[minor.id] - set(step.discharged))
            for a in open_deps:
                af = self.by_id[a].formula
                if af.index == j and x in free_plain_vars(af.formula):
                    return ("R6", f"witness {x} is free in assumption ({a})")
            if j == i:
                if x in free_plain_vars(step.formula.formula):
                    return ("R6", f"witness {x} is free in the conclusion")
            elif _mentions_arrow(step.formula.formula, x, j):
                return ("R6", f"an arrow variable of witness {x} occurs in the conclusion")
            else:
                for a in open_deps:
                    if _mentions_arrow(self.by_id[a].formula.formula, x, j):
                        return (
                            "R6",
                            f"an arrow variable of witness {x} occurs in assumption ({a})",
                        )

        return None

    # -- driver ---------------------------------------------------------------

    def references(self) -> CheckResult | None:
        """Index the steps and their assumption dependencies in order; the
        violation at the first bad reference, else None."""
        last = 0
        for step in self.script.steps:
            if step.id <= last:
                return CheckResult.violation(step.id, "ref", "step ids must increase")
            last = step.id
            for p in step.premises + step.discharged:
                if p not in self.by_id:
                    return CheckResult.violation(step.id, "ref", f"reference to missing step ({p})")
            for d in step.discharged:
                if self.by_id[d].rule.name != "assumption":
                    return CheckResult.violation(step.id, "ref", f"({d}) is not an assumption")
            self.by_id[step.id] = step
            if step.rule.name == "assumption":
                self.dep[step.id] = frozenset({step.id})
            else:
                deps: set[int] = set()
                for p in step.premises:
                    deps |= self.dep[p]
                self.dep[step.id] = frozenset(deps - set(step.discharged))
        return None

    def run(self) -> CheckResult:
        bad = self.references()
        if bad is not None:
            return bad
        if self.script.concluded not in self.by_id:
            return CheckResult.violation(
                None, "conclusion", f"concluded step ({self.script.concluded}) is missing"
            )
        self.compute_locality()

        for step in self.script.steps:
            err = self.shape_error(step)
            if err is not None:
                return CheckResult.violation(step.id, "shape", err)
            hit = self.restriction_error(step)
            if hit is not None:
                return CheckResult.violation(step.id, hit[0], hit[1])

        claimed_g = self.script.claimed_global
        claimed_l = self.script.claimed_local
        if claimed_g & claimed_l:
            return CheckResult.violation(
                self.script.concluded, "conclusion", "global and local claims overlap"
            )
        deps = self.dep[self.script.concluded]
        if claimed_g | claimed_l != deps:
            return CheckResult.violation(
                self.script.concluded,
                "conclusion",
                f"claimed premises {sorted(claimed_g | claimed_l)} differ from "
                f"computed dependencies {sorted(deps)}",
            )
        for a in sorted(claimed_l):
            if not self.is_local(a):
                return CheckResult.violation(
                    self.script.concluded,
                    "conclusion",
                    f"assumption ({a}) is claimed local but is global",
                )
        return CheckResult.valid()


def check_proof(script: ProofScript, *, config: CheckConfig | None = None) -> CheckResult:
    """Validate a proof script.

    The result is valid exactly when every step instantiates its rule
    schema and the restrictions R1 to R6 hold throughout; otherwise it
    pinpoints the first failing step together with the restriction id
    or a shape diagnosis.
    """
    return _Checker(script, config or CheckConfig()).run()


def assumption_status(script: ProofScript, step_id: int) -> str:
    """``local`` or ``global`` for an assumption step, relative to the
    script's concluding step; ValueError if either step is missing."""
    checker = _Checker(script, CheckConfig())
    # Locality needs the references and the premise edges only, not the
    # rule schemas (whose local-lemma steps run the tableau).
    if checker.references() is None:
        checker.compute_locality()
    if step_id not in checker.by_id:
        raise ValueError(f"step ({step_id}) was not checkable")
    if script.concluded not in checker.by_id:
        raise ValueError(f"concluded step ({script.concluded}) is missing")
    if checker.by_id[step_id].rule.name != "assumption":
        raise ValueError(f"step ({step_id}) is not an assumption")
    return "local" if checker.is_local(step_id) else "global"


def existential_vars_of_step(script: ProofScript, step_id: int) -> frozenset[ArrowVar]:
    """Arrow variables of the step's formula that occur in none of the
    assumptions the step depends on."""
    checker = _Checker(script, CheckConfig())
    checker.references()
    if step_id not in checker.dep:
        raise ValueError(f"step ({step_id}) was not checkable")
    return checker.existential(step_id)
