"""Turn generated operation specs into timed calls and output checks.

Only the public ``dfol`` API is used.  Everything a user would load once
(standing theories, queries, formulas and models) is parsed here, inside
the set-up clock; each operation's ``call`` then runs only the work the
workload measures, and its ``check`` compares the output with the
expectation the generator built.
"""

from __future__ import annotations

from functools import partial

from dfol import (
    BridgeRule,
    RelationProperty,
    SearchBound,
    check_proof,
    check_theory,
    encode_text,
    entails_bridge_rule,
    enumerate_models,
    equilibrium_to_json,
    fixpoint_steps,
    load_model,
    load_proof_script,
    logical_consequence,
    minimal_model,
    parse_bridge_rule_text,
    parse_formula,
    parse_labeled_formula,
    parse_proof_script,
    parse_prop_system,
    parse_theory,
    relation_has_property,
    render_theory,
    satisfies_bridge_rule,
    satisfies_local,
    tableau_valid,
    validate_model,
)
from generators import FIXTURES
from harness import Op
from spans import Tracer

# Per-operation deadlines, several times the slowest operation that is
# expected to finish (inv entailment ~0.3 s; the 32-context chain ~0.1 s).
DEADLINE_S = {"entail": 2.0, "toolchain": 2.0}


def _verdict_tag(sp, v) -> None:
    sp.tag = "holds" if v.holds else "counterexample"


def _verdict_problem(T, v, query: BridgeRule, bound: SearchBound, holds: bool) -> str | None:
    if v.bound != bound:
        return f"verdict reports bound {v.bound}, asked for {bound}"
    if v.holds != holds:
        return f"verdict {'holds' if v.holds else 'counterexample'}, expected {'holds' if holds else 'counterexample'}"
    if v.holds:
        return None
    problems = validate_model(T, v.model)
    if problems:
        return f"counterexample is malformed: {problems[0]}"
    if not check_theory(T, v.model).ok:
        return "counterexample is not a model of the theory"
    if satisfies_bridge_rule(v.model, query)[0]:
        return "counterexample satisfies the query"
    return None


class Context:
    """Standing inputs of one workload, parsed during set-up."""

    def __init__(self, texts: dict[str, str], tracer: Tracer):
        self.tr = tracer
        self.theories = {key: tracer.call(parse_theory, text) for key, text in texts.items()}
        self.models: dict[int, object] = {}

    def model(self, data: dict):
        """Load each standing model once, keyed by identity of its dict."""
        key = id(data)
        if key not in self.models:
            self.models[key] = self.tr.call(load_model, data)
        return self.models[key]

    def labeled(self, T, text: str):
        return self.tr.call(parse_labeled_formula, T, text)


# ---------------------------------------------------------------------------
# entail
# ---------------------------------------------------------------------------


def _consequence(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    premises = tuple(ctx.labeled(T, p) for p in spec["premises"])
    goal = ctx.labeled(T, spec["goal"])
    bound = SearchBound(*spec["bound"])
    call = partial(ctx.tr.call, logical_consequence, T, premises, goal, bound, tag=_verdict_tag)
    return call, partial(_verdict_problem, T, query=BridgeRule(premises, goal), bound=bound, holds=spec["holds"])


def _entails(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    candidate = ctx.tr.call(parse_bridge_rule_text, T, spec["candidate"])
    bound = SearchBound(*spec["bound"])
    call = partial(ctx.tr.call, entails_bridge_rule, T, candidate, bound, tag=_verdict_tag)
    return call, partial(_verdict_problem, T, query=candidate, bound=bound, holds=spec["holds"])


def _enumerate(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    bound = SearchBound(*spec["bound"])

    def tag(sp, models):
        sp.count("models", len(models))

    def check(models):
        if len(models) != spec["models"]:
            return f"{len(models)} models, expected {spec['models']}"
        for M in models:
            if validate_model(T, M) or not check_theory(T, M).ok:
                return "an enumerated model is not a model of the theory"
        return None

    return partial(ctx.tr.call, enumerate_models, T, bound, consume=list, tag=tag), check


# ---------------------------------------------------------------------------
# model checks
# ---------------------------------------------------------------------------


def _report_tag(sp, report) -> None:
    results = report.axiom_results + report.rule_results
    sp.count("rules", len(results))
    sp.count("violations", sum(not ok for _, ok, _ in results))


def _check(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    tr = ctx.tr

    def call():
        M = tr.call(load_model, spec["model"])
        return tr.call(validate_model, T, M), tr.call(check_theory, T, M, tag=_report_tag)

    def check(out):
        problems, report = out
        if problems:
            return f"model is malformed: {problems[0]}"
        results = report.axiom_results + report.rule_results
        failing = [label for label, (_, ok, _) in zip(spec["labels"], results) if not ok]
        if len(results) != len(spec["labels"]) or failing != spec["failing"]:
            return f"failing {failing}, expected {spec['failing']}"
        return None

    return call, check


def _local(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    m = ctx.model(spec["model"]).models("1")[0]
    phi = ctx.tr.call(parse_formula, T, "1", spec["formula"])

    def check(value):
        return None if value is spec["value"] else f"{value}, expected {spec['value']}"

    return partial(ctx.tr.call, satisfies_local, m, phi, {}), check


def _relations(ctx: Context, spec: dict):
    M = ctx.model(spec["model"])
    props = {kind: RelationProperty(kind, ("1", "2")) for kind in spec["expect"]}

    def call():
        return {kind: ctx.tr.call(relation_has_property, M, p) for kind, p in props.items()}

    def check(found):
        return None if found == spec["expect"] else f"{found}, expected {spec['expect']}"

    return call, check


# ---------------------------------------------------------------------------
# toolchain
# ---------------------------------------------------------------------------


def _parse(ctx: Context, spec: dict):
    tr = ctx.tr

    def call():
        T = tr.call(parse_theory, spec["text"])
        return T, tr.call(render_theory, T)

    def check(out):
        T, text = out
        again = parse_theory(text)
        counts = (len(T.axioms), len(T.rules), len(again.axioms), len(again.rules))
        if counts != (spec["axioms"], spec["rules"]) * 2:
            return f"(axioms, rules) before and after re-parsing {counts}, expected {(spec['axioms'], spec['rules'])}"
        if render_theory(again) != text:
            return "rendering is not stable under re-parsing"
        return None

    return call, check


def _proof_tag(sp, result) -> None:
    sp.count("violations", not result.ok)


def _proof_problem(code, result) -> str | None:
    if result.ok != (code is None) or result.code != code:
        return f"check_proof gave {result.code or 'valid'}, expected {code or 'valid'}"
    return None


def _proof_file(ctx: Context, spec: dict):
    path = FIXTURES / spec["path"]
    tr = ctx.tr

    def call():
        return tr.call(check_proof, tr.call(load_proof_script, path), tag=_proof_tag)

    return call, partial(_proof_problem, spec["code"])


def _proof_text(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    tr = ctx.tr

    def call():
        return tr.call(check_proof, tr.call(parse_proof_script, spec["text"], theory=T), tag=_proof_tag)

    return call, partial(_proof_problem, spec["code"])


def _tableau(ctx: Context, spec: dict):
    T = ctx.theories[spec["theory"]]
    premises = [ctx.tr.call(parse_formula, T, "1", p) for p in spec["premises"]]
    goal = ctx.tr.call(parse_formula, T, "1", spec["goal"])

    def tag(sp, proved):
        sp.count("proved" if proved else "open")

    def check(proved):
        return None if proved is spec["valid"] else f"tableau_valid gave {proved}, expected {spec['valid']}"

    return partial(ctx.tr.call, tableau_valid, premises, goal, tag=tag), check


def _mcs(ctx: Context, spec: dict):
    tr = ctx.tr

    def steps_tag(sp, steps):
        sp.count("steps", len(steps))

    def call():
        system = tr.call(parse_prop_system, spec["text"])
        steps = tr.call(fixpoint_steps, system, consume=list, tag=steps_tag)
        return steps, tr.call(minimal_model, system)

    def check(out):
        steps, model = out
        if len(steps) != spec["steps"]:
            return f"{len(steps)} fixpoint steps, expected {spec['steps']}"
        found = equilibrium_to_json(model)
        if found != spec["equilibrium"]:
            return f"equilibrium {found}, expected {spec['equilibrium']}"
        return None

    return call, check


def _encode(ctx: Context, spec: dict):
    dialect = spec["dialect"]

    def tag(sp, encoded):
        sp.tag = dialect
        sp.count("rules", len(encoded.theory.rules))

    def check(encoded):
        if encoded.dialect != dialect:
            return f"encoded as {encoded.dialect}, expected {dialect}"
        n = len(parse_theory(render_theory(encoded.theory)).rules)
        return None if n == spec["rules"] else f"{n} rules after re-parsing, expected {spec['rules']}"

    return partial(ctx.tr.call, encode_text, dialect, spec["text"], tag=tag), check


FAMILIES = {
    "consequence": _consequence,
    "entails": _entails,
    "enumerate": _enumerate,
    "check": _check,
    "local": _local,
    "relations": _relations,
    "parse": _parse,
    "proof_file": _proof_file,
    "proof_text": _proof_text,
    "tableau": _tableau,
    "mcs": _mcs,
    "encode": _encode,
}


def make_ops(ctx: Context, specs: list[dict], first_id: int = 0) -> list[Op]:
    ops = []
    for n, spec in enumerate(specs, first_id):
        call, check = FAMILIES[spec["family"]](ctx, spec)
        ops.append(Op(n, spec["name"], spec["family"], call, check))
    return ops
