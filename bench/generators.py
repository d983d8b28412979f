"""Seeded input generators for the two benchmark workloads.

Every generator is pure standard library and never imports dfol: inputs
are made before the set-up clock starts, and every expectation comes from
how the input was built, not from the code under test.  A seed changes
symbol names, slot placements, colourings, mutation targets and the order
of operations; it never changes which operation kinds a round holds or how
large they are, so rounds of different seeds cost about the same.

An operation is a plain dict with a ``family`` key naming how the
workload runs and checks it; the remaining keys are that family's inputs
and expectations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Bridge rules each relation-property tag expands into (the paper's
# correspondence between properties of domain relations and bridge rules).
PROPERTY_RULES = {"fun": 1, "tot": 1, "sur": 1, "inj": 1, "inv": 2, "congr": 1, "com": 2, "euc": 4}

# Model counts of enumerate_models, pinned as reference values: symbol
# renaming cannot change them, and the roadmap requires refactors of the
# enumerator to keep them.
CUTGLUE_MODELS = {(1, 2): 260, (1, 3): 580}
TWO_UNARY_MODELS = {(3, 2): 519}

# Renamed variants of each tag's own bridge rule, in the variables u, w.
PROPERTY_CANDIDATES = {
    "fun": "1: {u}^>2 = {w}^>2 ==> 2: {u} = {w}",
    "tot": "1: {u} = {u} ==> 2: exists {w}. {w} = {u}^<1",
    "sur": "2: {u} = {u} ==> 1: exists {w}. {w} = {u}^>2",
    "inj": "1: ~{u}^>2 = {w}^>2 ==> 2: ~{u} = {w}",
    "inv": "1: {u} = {w}^>2 ==> 2: {w} = {u}^>1",
}


def _op(name: str, family: str, **fields) -> dict:
    return {"name": name, "family": family, **fields}


def names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct identifiers such as ``a417``, in sorted order: search
    order follows symbol order, so keeping it fixed keeps the cost of a
    search the same for every seed."""
    return [f"{prefix}{k}" for k in sorted(rng.sample(range(100, 1000), n))]


def build(workload: str, seed: int) -> tuple[dict, list[dict], list[dict]]:
    """(standing texts, one round of operations, known-defect probes).

    Each generator lists a family's smallest operation first; that one is
    marked ``warm`` for the set-up's warm-up pass before the round is
    shuffled, so the warm-up costs the same for every seed."""
    rng = random.Random(f"{workload}:{seed}")
    texts, ops, probes = GENERATORS[workload](rng)
    families = set()
    for op in ops:
        op["warm"] = op["family"] not in families
        families.add(op["family"])
    rng.shuffle(ops)
    return texts, ops, probes


# ---------------------------------------------------------------------------
# entail: bounded consequence search
# ---------------------------------------------------------------------------


def chain_text(preds: list[str]) -> str:
    """Contexts 1..k, one letter each, rule i: a_i ==> i+1: a_(i+1)."""
    k = len(preds)
    lines = ["index " + ", ".join(str(i) for i in range(1, k + 1))]
    lines += [f"signature {i} {{ pred {p}/0; }}" for i, p in enumerate(preds, 1)]
    lines += [f"bridge {i}: {preds[i - 1]} ==> {i + 1}: {preds[i]}" for i in range(1, k)]
    return "\n".join(lines) + "\n"


def cutglue_text(p: str, q: str, s: str, t: str) -> str:
    return (
        "index 1, 2\n"
        f"signature 1 {{ pred {p}/1, {q}/1; }}\n"
        f"signature 2 {{ pred {s}/1, {t}/1; }}\n"
        f"bridge 1: {p}(x) ==> 2: {s}(x^<1)\n"
        f"bridge 1: {q}(x) ==> 2: {t}(x^<1)\n"
    )


def magicbox_text(inbox: str) -> str:
    text = (FIXTURES / "magicbox.dfol").read_text()
    return text.replace("inbox", inbox)


def _consequence(name, theory, premises, goal, bound, holds):
    return {
        "name": f"consequence:{name}:{bound[0]},{bound[1]}:{'holds' if holds else 'counterexample'}",
        "family": "consequence",
        "theory": theory,
        "premises": premises,
        "goal": goal,
        "bound": bound,
        "holds": holds,
    }


def _enumerate(theory, bound, count):
    return {
        "name": f"enumerate:{theory}:{bound[0]},{bound[1]}",
        "family": "enumerate",
        "theory": theory,
        "bound": bound,
        "models": count,
    }


def entail(rng: random.Random):
    texts: dict[str, str] = {}
    ops: list[dict] = []

    # Chains: the first letter reaches the last through k - 1 rules; the
    # converse has a countermodel with every letter false but the last.
    for k in (3, 5):
        preds = names(rng, "a", k)
        key = f"chain{k}"
        texts[key] = chain_text(preds)
        for bound in ((1, 2), (2, 2)):
            first, last = f"1: {preds[0]}", f"{k}: {preds[-1]}"
            ops.append(_consequence(f"{key}:first->last", key, [first], last, bound, True))
            ops.append(_consequence(f"{key}:last->first", key, [last], first, bound, False))

    # Cut/glue: the premise of rule 1 gives its conclusion (holds); the
    # premise of rule 2 says nothing about the first predicate at 2.
    p, q, s, t = names(rng, "r", 4)
    (v,) = names(rng, "v", 1)
    texts["cutglue"] = cutglue_text(p, q, s, t)
    for bound in ((1, 2), (2, 1)):
        ops.append(_consequence("cutglue:p->s", "cutglue", [f"1: {p}({v})"], f"2: {s}({v}^<1)", bound, True))
    for bound in ((1, 2), (2, 2)):
        ops.append(_consequence("cutglue:q->s", "cutglue", [f"1: {q}({v})"], f"2: {s}({v}^<1)", bound, False))
    for bound, count in CUTGLUE_MODELS.items():
        ops.append(_enumerate("cutglue", bound, count))

    # Relation properties: each tag entails a renamed copy of its own rule
    # and none of the other tags' rules (the five are independent).  The
    # pairing is fixed because the cost of a refutation depends on it.
    kinds = list(PROPERTY_CANDIDATES)
    u, w = names(rng, "u", 2)
    for n, kind in enumerate(kinds):
        texts[f"prop_{kind}"] = f"index 1, 2\nproperty {kind} 1 2\n"
        other = kinds[(n + 1) % len(kinds)]
        for cand, holds in ((kind, True), (other, False)):
            ops.append(
                {
                    "name": f"entails:prop_{kind}:{cand}:{'holds' if holds else 'counterexample'}",
                    "family": "entails",
                    "theory": f"prop_{kind}",
                    "candidate": PROPERTY_CANDIDATES[cand].format(u=u, w=w),
                    "bound": (2, 2),
                    "holds": holds,
                }
            )

    # The paper's magic box: whatever viewer 1 sees, viewer 2 sees too.
    (inbox,) = names(rng, "inbox", 1)
    texts["magicbox"] = magicbox_text(inbox)
    seen = f"exists x. exists y. {inbox}(x,y)"
    ops.append(_consequence("magicbox", "magicbox", [f"1: {seen}"], f"2: {seen}", (1, 1), True))

    # Two unary predicates at one index: the model space behind the
    # roadmap's `_index_parts` rows, reached through the public enumerator.
    a, b = names(rng, "c", 2)
    texts["unary2"] = f"index 1\nsignature 1 {{ pred {a}/1, {b}/1; }}\n"
    for bound, count in TWO_UNARY_MODELS.items():
        ops.append(_enumerate("unary2", bound, count))

    # Known defect: at domain size 2 the same query does not finish.
    probes = [
        dict(
            _consequence("magicbox", "magicbox", [f"1: {seen}"], f"2: {seen}", (2, 1), True),
            defect="magic-box query at bound (2,1) misses the deadline (exhaustive model search)",
        )
    ]
    return texts, ops, probes


# ---------------------------------------------------------------------------
# model checks: magic-box-shaped theories against large finite models
# ---------------------------------------------------------------------------

LOCAL_MODELS = 3
BOX_SIZES = {5: 2, 10: 3, 20: 4}  # domain size -> slots per viewer


def box_theory(n: int, inbox: str, black: str, white: str) -> tuple[str, list[str], list[str]]:
    """Two viewers with n slots each.  Returns the text and the labels of
    its axioms and rules, in theory order."""
    slots = [f"S{k}" for k in range(1, n + 1)]
    sig = f"{{ complete const {', '.join(slots)}; complete pred {inbox}/2; pred {black}/1, {white}/1; }}"
    lines = ["index 1, 2", f"signature 1 {sig}", f"signature 2 {sig}"]
    axioms, rules = [], []
    slot_test = " | ".join(f"y = {s}" for s in slots)
    for i in ("1", "2"):
        lines.append(f"axiom {i}: forall x. forall y. ({inbox}(x,y) -> ({slot_test}))")
        axioms.append(f"slots@{i}")
    for i, j in (("1", "2"), ("2", "1")):
        for k, s in enumerate(slots, 1):
            lines.append(f"bridge {i}: {inbox}(x,{s}) ==> {j}: exists y. {inbox}(x^<{i},y)")
            rules.append(f"visible@{i}{j}.{k}")
    for colour, pred in (("black", black), ("white", white)):
        for i, j in (("1", "2"), ("2", "1")):
            lines.append(f"bridge {i}: {pred}(x^>{j}) ==> {j}: {pred}(x)")
            rules.append(f"{colour}@{i}{j}")
    lines.append("bridge 1: x = y^>2 ==> 2: y = x^>1")
    rules.append("converse@12")
    lines.append("bridge 2: x = y^>1 ==> 1: y = x^>2")
    rules.append("converse@21")
    return "\n".join(lines) + "\n", axioms, rules


def box_world(rng: random.Random, size: int, inbox: str, black: str, white: str) -> dict:
    """A theory, a model of it, and one-rule mutants of that model.

    Both viewers share the ball names; the boxed balls are the same at
    both indices and the domain relations are the identity on them, so
    visibility and the converse rules hold.  A boxed ball is black in
    every local model, white in every one, or mixed, with the same status
    at both indices, so the colour rules hold.
    """
    n = BOX_SIZES[size]
    text, axioms, rules = box_theory(n, inbox, black, white)
    slots = [f"s{k}" for k in range(1, n + 1)]
    balls = [f"b{k}" for k in range(1, size - n + 1)]
    domain = slots + balls
    boxed = rng.sample(balls, max(3, (len(balls) * 3) // 5))
    status = dict(zip(boxed, ["black", "white", "mixed"]))
    for ball in boxed[3:]:
        status[ball] = rng.choice(["black", "white", "mixed"])
    place = {i: {ball: rng.choice(slots) for ball in boxed} for i in ("1", "2")}

    def colours(ball: str, lm: int) -> tuple[bool, bool]:
        kind = status.get(ball) or rng.choice(["black", "white", "mixed"])
        if kind == "black":
            return True, False
        if kind == "white":
            return False, True
        return [(True, False), (False, True), (rng.random() < 0.5, rng.random() < 0.5)][lm]

    models = {}
    for i in ("1", "2"):
        local = []
        for lm in range(LOCAL_MODELS):
            paint = {ball: colours(ball, lm) for ball in balls}
            local.append(
                {
                    "const": {f"S{k}": s for k, s in enumerate(slots, 1)},
                    "func": {},
                    "pred": {
                        inbox: [[ball, place[i][ball]] for ball in boxed],
                        black: [[ball] for ball in balls if paint[ball][0]],
                        white: [[ball] for ball in balls if paint[ball][1]],
                    },
                }
            )
        models[i] = local
    identity = [[ball, ball] for ball in boxed]
    valid = {
        "domains": {"1": domain, "2": domain},
        "models": models,
        "relations": {"1->2": identity, "2->1": identity},
    }

    def copy():
        return {
            "domains": valid["domains"],
            "models": {
                i: [{**lm, "pred": {p: list(ext) for p, ext in lm["pred"].items()}} for lm in ms]
                for i, ms in valid["models"].items()
            },
            "relations": {k: list(v) for k, v in valid["relations"].items()},
        }

    mutants = []
    # A ball put into another ball breaks only the slot axiom there.
    i = rng.choice(["1", "2"])
    m = copy()
    x, y = rng.sample(balls, 2)
    for lm in m["models"][i]:
        lm["pred"][inbox].append([x, y])
    mutants.append((m, f"slots@{i}"))
    # A mixed ball painted in every local model at i: the colour rule from
    # i fires there but its counterpart at j stays mixed.
    i, j = rng.choice([("1", "2"), ("2", "1")])
    colour, pred = rng.choice([("black", black), ("white", white)])
    ball = rng.choice([b for b in boxed if status[b] == "mixed"])
    m = copy()
    for lm in m["models"][i]:
        if [ball] not in lm["pred"][pred]:
            lm["pred"][pred].append([ball])
    mutants.append((m, f"{colour}@{i}{j}"))
    # A ball taken out of the box at j is still seen in its slot at i.
    i, j = rng.choice([("1", "2"), ("2", "1")])
    ball = rng.choice(boxed)
    m = copy()
    for lm in m["models"][j]:
        lm["pred"][inbox] = [e for e in lm["pred"][inbox] if e[0] != ball]
    mutants.append((m, f"visible@{i}{j}.{slots.index(place[i][ball]) + 1}"))
    # A slot pair in one relation only has no converse in the other.
    i, j = rng.choice([("1", "2"), ("2", "1")])
    m = copy()
    m["relations"][f"{i}->{j}"].append([slots[0], slots[0]])
    mutants.append((m, f"converse@{i}{j}"))

    return {
        "text": text,
        "axioms": axioms,
        "rules": rules,
        "valid": valid,
        "mutants": mutants,
    }


def model_checks(rng: random.Random) -> tuple[dict, list[dict]]:
    texts: dict[str, str] = {}
    ops: list[dict] = []
    inbox, black, white = names(rng, "in", 1) + names(rng, "black", 1) + names(rng, "white", 1)
    # Each ball sits in one slot (true, a full sweep) and no ball sits in
    # two slots (false, also a full sweep): three quantifiers each.
    one_slot = f"forall x. forall y. forall z. (({inbox}(x,y) & {inbox}(x,z)) -> y = z)"
    two_slots = f"exists x. exists y. exists z. ({inbox}(x,y) & {inbox}(x,z) & ~(y = z))"
    for size in BOX_SIZES:
        world = box_world(rng, size, inbox, black, white)
        key = f"box{size}"
        texts[key] = world["text"]
        labels = world["axioms"] + world["rules"]
        for model, broken in [(world["valid"], None)] + world["mutants"]:
            ops.append(
                {
                    "name": f"check:{key}:{broken or 'model'}",
                    "family": "check",
                    "theory": key,
                    "model": model,
                    "labels": labels,
                    "failing": [broken] if broken else [],
                }
            )
        for formula, value in ((one_slot, True), (two_slots, False)):
            ops.append(_op(f"local:{key}:{value}", "local", theory=key, model=world["valid"], formula=formula, value=value))
        # The relations are the identity on boxed balls (a partial
        # bijection); the mutant adds a slot pair to one direction only.
        base = {"fun": True, "tot": False, "sur": False, "inj": True}
        for model, inv in ((world["valid"], True), (world["mutants"][-1][0], False)):
            ops.append(_op(f"relations:{key}:inv={inv}", "relations", model=model, expect={**base, "inv": inv}))
    # The roadmap's baseline row: the magic-box fixture model.
    texts["magicbox"] = (FIXTURES / "magicbox.dfol").read_text()
    rows = [line for line in texts["magicbox"].splitlines() if line.startswith(("axiom", "bridge"))]
    ops.append(
        {
            "name": "check:magicbox.json",
            "family": "check",
            "theory": "magicbox",
            "model": json.loads((FIXTURES / "magicbox.json").read_text()),
            "labels": [f"line {n}" for n in range(len(rows))],
            "failing": [],
        }
    )
    return texts, ops


# ---------------------------------------------------------------------------
# toolchain: text-in pipelines and model checks
# ---------------------------------------------------------------------------

PROOF_FIXTURES = {
    "mbox.proof": None,
    "cutglue.proof": None,
    "cutglue_shared.proof": "R4",
    "mbox_mutant_r1.proof": "R1",
    "mbox_mutant_r3.proof": "R3",
    "mbox_mutant_r4.proof": "R4",
}


def glue_proof(n: int, preds: list[str], concl: list[str], vars_: list[str]) -> tuple[str, str]:
    """n bridge rules 1: P_k(x) ==> 2: S_k(x^<1) and a proof that conjoins
    their conclusions under nested cuts.  With pairwise distinct variables
    the proof is valid; with one shared variable the outer cuts employ a
    second hypothesis about the major's existential variable (R4)."""
    theory = (
        "index 1, 2\n"
        f"signature 1 {{ pred {', '.join(p + '/1' for p in preds)}; }}\n"
        f"signature 2 {{ pred {', '.join(s + '/1' for s in concl)}; }}\n"
        + "".join(f"bridge 1: {p}(x) ==> 2: {s}(x^<1)\n" for p, s in zip(preds, concl))
    )
    facts = [f"{s}({v}^<1)" for s, v in zip(concl, vars_)]
    lines = []
    for k in range(n):
        lines.append(f"({k + 1}) 1: {preds[k]}({vars_[k]}) ; rule=assumption")
    for k in range(n):
        lines.append(f"({n + k + 1}) 2: {facts[k]} ; rule=BR:{k + 1} ; from={k + 1}")
    for k in range(n):
        lines.append(f"({2 * n + k + 1}) 2: {facts[k]} ; rule=assumption")
    conj, ref, sid = facts[0], 2 * n + 1, 3 * n
    for k in range(1, n):
        sid += 1
        conj = f"({conj}) & {facts[k]}" if k > 1 else f"{conj} & {facts[k]}"
        lines.append(f"({sid}) 2: {conj} ; rule=andI ; from={ref},{2 * n + k + 1}")
        ref = sid
    for k in range(n, 0, -1):
        sid += 1
        lines.append(f"({sid}) 2: {conj} ; rule=cut ; from={n + k},{ref} ; discharge={2 * n + k}")
        ref = sid
    deps = ",".join(str(k) for k in range(1, n + 1))
    lines.append(f"conclude ({ref}) global={deps} local=")
    return theory, "\n".join(lines) + "\n"


def mcs_chain(k: int, ctx: str, p: str, q: str) -> tuple[str, dict]:
    """A fact at the first context, p passed along the chain, and
    q_(i+1) <- not(p_i).  The shrinking fixpoint forces every q at once
    (p is not yet forced anywhere but the first context) and p one context
    per step, so it takes k + 1 candidates and ends with {p} at the first
    context and {p, q} elsewhere."""
    cs = [f"{ctx}{i}" for i in range(1, k + 1)]
    lines = [f"context {c} {{ letters {p}, {q}; }}" for c in cs]
    lines.append(f"rule {cs[0]}:{p}.")
    lines += [f"rule {cs[i + 1]}:{p} <- {cs[i]}:{p}." for i in range(k - 1)]
    lines += [f"rule {cs[i + 1]}:{q} <- not({cs[i]}:{p})." for i in range(k - 1)]
    contexts = {c: [sorted([p, q])] for c in cs}
    contexts[cs[0]] = [[p]]
    return "\n".join(lines) + "\n", {"contexts": contexts, "mc": [[f"not({cs[0]}:{q})"]]}


def _sig_preds(preds: list[str]) -> str:
    return ", ".join(f"{p}/1" for p in preds)


def encoder_input(rng: random.Random, dialect: str, n: int, negate: bool = False) -> tuple[str, int]:
    """(dialect text, expected number of bridge rules after re-parsing)."""
    if dialect == "ddl":
        cs, ds = names(rng, "C", n), names(rng, "D", n)
        lines = [
            f"ontology 1 {{ concepts {', '.join(cs)}; }}",
            f"ontology 2 {{ concepts {', '.join(ds)}; }}",
            "ontology 3 { concepts E; }",
        ]
        for k, (c, d) in enumerate(zip(cs, ds)):
            lines.append(f"mapping 1: {c} {'into' if k % 2 else 'onto'} 2: {d}")
        lines.append("compose 1 2 3")
        return "\n".join(lines) + "\n", n + PROPERTY_RULES["com"]
    if dialect == "econn":
        cs, ds = names(rng, "A", n), names(rng, "B", n)
        (link,) = names(rng, "L", 1)
        lines = [
            f"ontology 1 {{ concepts {', '.join(cs)}; }}",
            f"ontology 2 {{ concepts {', '.join(ds)}; }}",
            f"link {link} from 1 to 2",
        ]
        for k, (c, d) in enumerate(zip(cs, ds)):
            lines.append(f"axiom 1: {c} subclassof {'all' if k % 2 else 'exists'} {link}. {d}")
        return "\n".join(lines) + "\n", n
    if dialect == "pdl":
        cs = names(rng, "A", n)
        lines = [f"package 1 {{ concepts {', '.join(cs)}; }}"]
        lines += [f"package {k + 2} {{ concepts B{k}; }}" for k in range(n)]
        lines += [f"import 1: {c} into {k + 2}" for k, c in enumerate(cs)]
        # an import rule, its converse, and `inj` on the pair
        return "\n".join(lines) + "\n", n * (2 + PROPERTY_RULES["inj"])
    preds = names(rng, "P", n)
    if dialect == "qml":
        lines = [f"signature {{ const a; pred {_sig_preds(preds)}; }}"]
        for p in preds:
            lines.append(f"formula ~box {p}(a) | {p}(a)" if negate else f"formula box {p}(a) -> {p}(a)")
        # unboxing and necessitation per box, distribution per ordered pair
        # of boxes, and `tot 1 0` for the default increasing domains
        return "\n".join(lines) + "\n", 2 * n + n * (n - 1) + PROPERTY_RULES["tot"]
    if dialect == "qlc":
        lines = ["contexts k1, k2", f"signature {{ const a; pred {_sig_preds(preds)}; }}"]
        for p in preds:
            lines.append(f"formula k1: ~ist(k2, {p}(a))" if negate else f"formula k1: ist(k2, {p}(a))")
        return "\n".join(lines) + "\n", 2 * n + QLC_FIXED_RULES
    raise ValueError(f"unknown dialect {dialect!r}")


# qlc over contexts k1, k2 with constant a: rigid-designator rules for a, k1
# and k2 in both directions, plus fun, tot, inj both ways and inv.
QLC_FIXED_RULES = 2 * 3 + 2 * 3 * 1 + PROPERTY_RULES["inv"]


def toolchain(rng: random.Random):
    texts: dict[str, str] = {}
    ops: list[dict] = []

    # Theories parsed and rendered in the loop.
    inbox, black, white = names(rng, "in", 1) + names(rng, "black", 1) + names(rng, "white", 1)
    for n in (2, 4):
        text, axioms, rules = box_theory(n, inbox, black, white)
        ops.append(_op(f"parse:box{n}", "parse", text=text, axioms=len(axioms), rules=len(rules)))
    text = magicbox_text(names(rng, "inbox", 1)[0])
    lines = text.splitlines()
    axioms = sum(line.startswith("axiom") for line in lines)
    rules = sum(line.startswith("bridge") for line in lines)
    ops.append(_op("parse:magicbox.dfol", "parse", text=text, axioms=axioms, rules=rules))
    ops.append(_op("parse:chain6", "parse", text=chain_text(names(rng, "a", 6)), axioms=0, rules=5))
    props = [("inv", "1 2"), ("com", "1 2 3"), ("fun", "2 3"), ("euc", "3 1 2")]
    text = "index 1, 2, 3\n" + "".join(f"property {k} {ix}\n" for k, ix in props)
    rules = sum(PROPERTY_RULES[k] for k, _ in props)
    ops.append(_op("parse:properties", "parse", text=text, axioms=0, rules=rules))

    # Proofs: the six fixtures, and generated n-fold glue proofs.
    for name, code in PROOF_FIXTURES.items():
        ops.append(_op(f"proof:{name}", "proof_file", path=name, code=code))
    for n, shared in ((3, False), (5, False), (3, True)):
        vars_ = names(rng, "v", 1) * n if shared else names(rng, "v", n)
        theory, proof = glue_proof(n, names(rng, "p", n), names(rng, "s", n), vars_)
        key = f"glue{n}{'s' if shared else ''}"
        texts[key] = theory
        ops.append(_op(f"proof:{key}", "proof_text", theory=key, text=proof, code="R4" if shared else None))

    # Tableau obligations: P_1(a) and P_i -> P_(i+1) give P_n(a); the
    # converse direction has a countermodel, so no tableau closes.
    for n in (2, 4, 6):
        preds = names(rng, "P", n)
        key = f"preds{n}"
        texts[key] = f"index 1\nsignature 1 {{ const a; pred {_sig_preds(preds)}; }}\n"
        steps = [f"forall x. ({preds[i]}(x) -> {preds[i + 1]}(x))" for i in range(n - 1)]
        first, last = f"{preds[0]}(a)", f"{preds[-1]}(a)"
        ops.append(_op(f"tableau:{key}:proved", "tableau", theory=key, premises=steps + [first], goal=last, valid=True))
        ops.append(_op(f"tableau:{key}:open", "tableau", theory=key, premises=steps + [last], goal=first, valid=False))

    # Multi-context chains; the long ones are the latency tail.  Chains of
    # 48 and 64 contexts (0.6 s and 1.2 s) would take most of a round.
    p, q = names(rng, "l", 2)
    (ctx,) = names(rng, "c", 1)
    for k in (4, 8, 16, 24, 32):
        text, equilibrium = mcs_chain(k, ctx + "x", p, q)
        ops.append(_op(f"mcs:chain{k}", "mcs", text=text, steps=k + 1, equilibrium=equilibrium))

    # Encoders, two input sizes per dialect.
    for dialect, sizes in (("ddl", (10, 40)), ("econn", (10, 40)), ("pdl", (5, 20)), ("qml", (3, 6)), ("qlc", (3, 10))):
        for n in sizes:
            text, rules = encoder_input(rng, dialect, n)
            ops.append(_op(f"encode:{dialect}:{n}", "encode", dialect=dialect, text=text, rules=rules))

    # Known defect: qml and qlc inputs containing `~` or `true`.
    probes = []
    for dialect in ("qml", "qlc"):
        text, rules = encoder_input(rng, dialect, 3, negate=True)
        defect = f"{dialect} input with ~ raises AttributeError"
        probes.append(_op(f"encode:{dialect}:3:negated", "encode", dialect=dialect, text=text, rules=rules, defect=defect))
    text = "contexts k1, k2\nsignature { const a; }\nformula k1: ist(k2, true)\n"
    defect = "qlc input with true raises AttributeError"
    probes.append(_op("encode:qlc:1:true", "encode", dialect="qlc", text=text, rules=2 + QLC_FIXED_RULES, defect=defect))

    # Model checks share this workload: like the pipelines above they load
    # text or JSON and never search, so `consequence` stays out of it.
    model_texts, model_ops = model_checks(rng)
    texts.update(model_texts)
    return texts, ops + model_ops, probes


GENERATORS = {"entail": entail, "toolchain": toolchain}
