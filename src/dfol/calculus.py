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


LEAF_RULES = {"assumption", "axiom"}
LOCAL_RULES = {
    "impI",
    "impE",
    "andI",
    "andE",
    "orI",
    "orE",
    "botI",
    "allI",
    "allE",
    "exI",
    "exE",
    "eqI",
    "eqE",
    "cut",
    "local-lemma",
}
INTERFACE_RULES = {"BR", "fromII", "toII"}
# rules that may glue different indices through their major premise
CROSS_RULES = {"cut", "orE", "exE"}
# rules that may close assumptions
DISCHARGING_RULES = {"impI", "botI", "orE", "exE", "cut"}


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
        if self.name not in LEAF_RULES | LOCAL_RULES | INTERFACE_RULES:
            raise ValueError(f"unknown rule {self.name!r}")
        if self.side is not None and self.side not in ("left", "right"):
            raise ValueError(f"bad rule side {self.side!r}")
        if self.name == "BR" and (self.br_ref is None or self.br_ref < 1):
            raise ValueError("BR needs a 1-based bridge rule reference")
        if self.name != "BR" and self.br_ref is not None:
            raise ValueError(f"{self.name} takes no bridge rule reference")

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

    def fail(self, step: ProofStep | None, code: str, message: str) -> CheckResult:
        return CheckResult.violation(step.id if step else None, code, message)

    def arrows_of(self, sid: int) -> frozenset[ArrowVar]:
        return frozenset(arrow_vars(self.by_id[sid].formula.formula))

    def existential(self, sid: int) -> frozenset[ArrowVar]:
        anchored: set[ArrowVar] = set()
        for a in self.dep[sid]:
            anchored |= self.arrows_of(a)
        return self.arrows_of(sid) - anchored

    def is_assumption(self, sid: int) -> bool:
        return self.by_id[sid].rule.name == "assumption"

    def complete(self, step: ProofStep) -> bool:
        sig = self.theory.signature(step.index)
        return is_complete_formula(sig, step.formula.formula)

    def premise_edges(self, step: ProofStep) -> list[tuple[int, bool]]:
        """(premise id, preserves locality) pairs for the step."""
        if step.rule.name in INTERFACE_RULES:
            return [(p, False) for p in step.premises]
        if step.rule.name in CROSS_RULES and step.premises:
            major = self.by_id[step.premises[0]]
            cross = major.index != step.index
            return [(step.premises[0], not cross)] + [
                (p, True) for p in step.premises[1:]
            ]
        return [(p, True) for p in step.premises]

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
        prem = [self.by_id[p] for p in step.premises]
        f = step.formula.formula
        i = step.index

        def same_index(*steps: ProofStep) -> bool:
            return all(s.index == i for s in steps)

        if name in LEAF_RULES:
            if step.premises or step.discharged:
                return f"{name} takes no premises"
            if name == "axiom":
                if step.formula not in self.theory.axioms:
                    return "axiom step does not match any theory axiom"
            return None

        if name != "local-lemma" and name in LOCAL_RULES and not prem:
            if name != "eqI":
                return f"{name} needs premises"

        if name == "impI":
            view = _as_implication(f)
            if view is None:
                return "impI must conclude an implication"
            a, b = view
            if len(prem) != 1 or not same_index(prem[0]):
                return "impI takes one premise at its own index"
            if prem[0].formula.formula != b:
                return "impI premise must be the consequent"
            return self._discharge_shape(step, a, i)

        if name == "impE":
            if len(prem) != 2 or not same_index(*prem):
                return "impE takes two premises at its own index"
            for maj, minor in (prem, reversed(prem)):
                view = _as_implication(maj.formula.formula)
                if view and minor.formula.formula == view[0] and f == view[1]:
                    return None
            return "impE premises must be an implication and its antecedent"

        if name == "andI":
            if not isinstance(f, And):
                return "andI must conclude a conjunction"
            if len(prem) != 2 or not same_index(*prem):
                return "andI takes two premises at its own index"
            got = (prem[0].formula.formula, prem[1].formula.formula)
            if got not in ((f.lhs, f.rhs), (f.rhs, f.lhs)):
                return "andI premises must be the two conjuncts"
            return None

        if name == "andE":
            if len(prem) != 1 or not same_index(prem[0]):
                return "andE takes one premise at its own index"
            src = prem[0].formula.formula
            if not isinstance(src, And):
                return "andE premise must be a conjunction"
            sides = {"left": src.lhs, "right": src.rhs}
            if step.rule.side is not None:
                return None if f == sides[step.rule.side] else "andE side mismatch"
            return None if f in sides.values() else "andE conclusion is neither conjunct"

        if name == "orI":
            if not isinstance(f, Or):
                return "orI must conclude a disjunction"
            if len(prem) != 1 or not same_index(prem[0]):
                return "orI takes one premise at its own index"
            src = prem[0].formula.formula
            sides = {"left": f.lhs, "right": f.rhs}
            if step.rule.side is not None:
                return None if src == sides[step.rule.side] else "orI side mismatch"
            return None if src in sides.values() else "orI premise is neither disjunct"

        if name == "orE":
            if len(prem) != 3:
                return "orE takes a major premise and two minors"
            major, m1, m2 = prem
            src = major.formula.formula
            if not isinstance(src, Or):
                return "orE major premise must be a disjunction"
            if not same_index(m1, m2):
                return "orE minors must sit at the conclusion index"
            if m1.formula.formula != f or m2.formula.formula != f:
                return "orE minors must both conclude the conclusion formula"
            for d in step.discharged:
                ds = self.by_id[d]
                if not self.is_assumption(d):
                    return "orE discharges assumptions only"
                if ds.index != major.index or ds.formula.formula not in (src.lhs, src.rhs):
                    return "orE discharges copies of the disjuncts"
            return None

        if name == "botI":
            if not isinstance(f, (Not, Implies)):
                return "botI must conclude a negation"
            view = _as_implication(f)
            if view is None or view[1] != Falsum():
                return "botI must conclude a negation"
            if len(prem) != 1 or not same_index(prem[0]):
                return "botI takes one premise at its own index"
            if prem[0].formula.formula != Falsum():
                return "botI premise must be falsum"
            return self._discharge_shape(step, view[0], i)

        if name == "allI":
            if not isinstance(f, Forall):
                return "allI must conclude a universal"
            if len(prem) != 1 or not same_index(prem[0]):
                return "allI takes one premise at its own index"
            if prem[0].formula.formula != f.body:
                return "allI premise must be the body"
            return None

        if name == "allE":
            if len(prem) != 1 or not same_index(prem[0]):
                return "allE takes one premise at its own index"
            src = prem[0].formula.formula
            if not isinstance(src, Forall):
                return "allE premise must be a universal"
            if _match_hole(src.body, src.var, f):
                return None
            return "allE conclusion is not an instance of the body"

        if name == "exI":
            if not isinstance(f, Exists):
                return "exI must conclude an existential"
            if len(prem) != 1 or not same_index(prem[0]):
                return "exI takes one premise at its own index"
            if _match_hole(f.body, f.var, prem[0].formula.formula):
                return None
            return "exI premise is not an instance of the body"

        if name == "exE":
            if len(prem) != 2:
                return "exE takes a major premise and one minor"
            major, minor = prem
            src = major.formula.formula
            if not isinstance(src, Exists):
                return "exE major premise must be an existential"
            if minor.index != i or minor.formula.formula != f:
                return "exE minor must conclude the conclusion formula"
            for d in step.discharged:
                ds = self.by_id[d]
                if not self.is_assumption(d):
                    return "exE discharges assumptions only"
                if ds.index != major.index or ds.formula.formula != src.body:
                    return "exE discharges the opened body"
            return None

        if name == "eqI":
            if not isinstance(f, Eq) or f.lhs != f.rhs:
                return "eqI must conclude t = t"
            if not same_index(*prem):
                return "eqI premises must sit at its own index"
            t_arrows = term_arrow_vars(f.lhs)
            cited: set[ArrowVar] = set()
            for p in prem:
                cited |= arrow_vars(p.formula.formula)
            if not t_arrows <= cited:
                return "every arrow variable of t needs a premise occurrence"
            return None

        if name == "eqE":
            if len(prem) != 2 or not same_index(*prem):
                return "eqE takes two premises at its own index"
            for eq_step, base in (prem, reversed(prem)):
                eq_f = eq_step.formula.formula
                if not isinstance(eq_f, Eq):
                    continue
                before = base.formula.formula
                for t, u in ((eq_f.lhs, eq_f.rhs), (eq_f.rhs, eq_f.lhs)):
                    if _rewrite_ok(before, f, t, u):
                        return None
            return "eqE conclusion is not an equality rewrite of the premise"

        if name == "cut":
            if len(prem) != 2:
                return "cut takes a major premise and one minor"
            major, minor = prem
            if minor.index != i or minor.formula.formula != f:
                return "cut minor must conclude the conclusion formula"
            for d in step.discharged:
                ds = self.by_id[d]
                if not self.is_assumption(d):
                    return "cut discharges assumptions only"
                if ds.index != major.index or ds.formula.formula != major.formula.formula:
                    return "cut discharges copies of its major premise"
            return None

        if name == "local-lemma":
            if not same_index(*prem):
                return "local-lemma premises must sit at its own index"
            axioms = [
                ax.formula
                for ax in self.theory.local_axioms(i)
                if not arrow_vars(ax.formula)
            ]
            obligations = [p.formula.formula for p in prem] + axioms
            if tableau_valid(
                obligations,
                f,
                gamma_rounds=self.config.lemma_gamma_rounds,
                max_steps=self.config.lemma_max_steps,
            ):
                return None
            return "local-lemma obligation not discharged within the prover budget"

        if name == "BR":
            ref = step.rule.br_ref
            assert ref is not None
            if ref > len(self.theory.rules):
                return f"theory has no bridge rule {ref}"
            rule = self.theory.rules[ref - 1]
            if len(prem) != len(rule.premises):
                return "BR premise count mismatch"
            sigma: dict[str, str] = {}
            for got, want in zip(prem, rule.premises):
                if got.index != want.index:
                    return "BR premise index mismatch"
                if not _match_renaming(want.formula, got.formula.formula, sigma):
                    return "BR premises do not instantiate the rule"
            if i != rule.conclusion.index:
                return "BR conclusion index mismatch"
            if not _match_renaming(rule.conclusion.formula, f, sigma):
                return "BR conclusion does not instantiate the rule"
            return None

        if name in ("fromII", "toII"):
            if len(prem) != 1:
                return f"{name} takes one premise"
            src = prem[0].formula.formula
            j = prem[0].index
            if j == i:
                return f"{name} must cross indices"
            if not isinstance(src, Eq) or not isinstance(f, Eq):
                return f"{name} connects two equalities"
            want_dir = ">" if name == "fromII" else "<"
            out_dir = "<" if name == "fromII" else ">"

            def split(eq: Eq, dir_: str, foreign: str):
                for a, b in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                    if (
                        isinstance(a, Var)
                        and isinstance(b, ArrowVar)
                        and b.direction == dir_
                        and b.foreign == foreign
                    ):
                        return (a.name, b.base, b.label)
                return None

            got = split(src, want_dir, i)
            if got is None:
                return f"{name} premise must equate a variable with its {want_dir} counterpart"
            x, y, label = got
            want = split(f, out_dir, j)
            if want is None:
                return f"{name} conclusion must equate a variable with its {out_dir} counterpart"
            # the roles swap: premise x = arrow-of-y turns into
            # arrow-of-x = y at the other index
            if want != (y, x, label):
                return f"{name} conclusion must swap the equated pair"
            return None

        return f"unsupported rule {name}"

    def _discharge_shape(self, step: ProofStep, hypothesis: Formula, index: str) -> str | None:
        for d in step.discharged:
            ds = self.by_id[d]
            if not self.is_assumption(d):
                return f"{step.rule.name} discharges assumptions only"
            if ds.index != index or ds.formula.formula != hypothesis:
                return f"{step.rule.name} discharges copies of its hypothesis"
        return None

    # -- restrictions ---------------------------------------------------------

    def restriction_error(self, step: ProofStep) -> tuple[str, str] | None:
        name = step.rule.name
        prem = [self.by_id[p] for p in step.premises]

        # R1: only cut, orE, and exE may consume existential variables
        if name not in CROSS_RULES:
            for p in prem:
                ex = self.existential(p.id)
                if ex:
                    return (
                        "R1",
                        f"premise ({p.id}) carries existential "
                        f"{', '.join(sorted(map(render_term, ex)))}",
                    )

        # R2: only interface rules introduce new existential variables
        if name in ("fromII", "toII"):
            f = step.formula.formula
            assert isinstance(f, Eq)
            arrow = f.lhs if isinstance(f.lhs, ArrowVar) else f.rhs
            assert isinstance(arrow, ArrowVar)
            if arrow not in self.existential(step.id):
                return (
                    "R2",
                    f"{render_term(arrow)} must be existential in the conclusion",
                )
        elif name != "BR":
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
        if name in CROSS_RULES and prem:
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
                if af.index != step.index and any(
                    av.base == x and av.foreign == step.index
                    for av in arrow_vars(af.formula)
                ):
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
            else:
                arrows_out = [
                    av
                    for av in arrow_vars(step.formula.formula)
                    if av.base == x and av.foreign == j
                ]
                if arrows_out:
                    return ("R6", f"an arrow variable of witness {x} occurs in the conclusion")
                for a in open_deps:
                    af = self.by_id[a].formula
                    if any(
                        av.base == x and av.foreign == j
                        for av in arrow_vars(af.formula)
                    ):
                        return (
                            "R6",
                            f"an arrow variable of witness {x} occurs in assumption ({a})",
                        )

        return None

    # -- driver ---------------------------------------------------------------

    def run(self) -> CheckResult:
        last = 0
        for step in self.script.steps:
            if step.id <= last:
                return self.fail(step, "ref", "step ids must increase")
            last = step.id
            for p in step.premises + step.discharged:
                if p not in self.by_id:
                    return self.fail(step, "ref", f"reference to missing step ({p})")
            for d in step.discharged:
                if not self.is_assumption(d):
                    return self.fail(step, "ref", f"({d}) is not an assumption")
            self.by_id[step.id] = step
            if step.rule.name == "assumption":
                self.dep[step.id] = frozenset({step.id})
            else:
                deps: set[int] = set()
                for p in step.premises:
                    deps |= self.dep[p]
                self.dep[step.id] = frozenset(deps - set(step.discharged))

        if self.script.concluded not in self.by_id:
            return CheckResult.violation(
                None, "conclusion", f"concluded step ({self.script.concluded}) is missing"
            )
        self.compute_locality()

        for step in self.script.steps:
            err = self.shape_error(step)
            if err is not None:
                return self.fail(step, "shape", err)
            hit = self.restriction_error(step)
            if hit is not None:
                return self.fail(step, hit[0], hit[1])

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
    script's concluding step."""
    checker = _Checker(script, CheckConfig())
    checker.run()
    step = script.step(step_id)
    if step.rule.name != "assumption":
        raise ValueError(f"step ({step_id}) is not an assumption")
    return "local" if checker.is_local(step_id) else "global"


def existential_vars_of_step(script: ProofScript, step_id: int) -> frozenset[ArrowVar]:
    """Arrow variables of the step's formula that occur in none of the
    assumptions the step depends on."""
    checker = _Checker(script, CheckConfig())
    checker.run()
    if step_id not in checker.dep:
        raise ValueError(f"step ({step_id}) was not checkable")
    return checker.existential(step_id)
