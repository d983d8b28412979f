"""Domain-relation properties, their characterizing bridge rules, and direct
set-theoretic checks.

Each property tag (`property fun 1 2` in theory files) expands to bridge
rules whose satisfaction, over models with nonempty local-model sets,
coincides with the set-theoretic property of the underlying relations.
With an empty model set the premise (or conclusion) side of a rule becomes
vacuous and the equivalence degenerates; see tests for the two directions.

The catalogue of those rules is DFOL text over the placeholder indices
`i`, `j`, `k` (`_TEMPLATES`), parsed once at import; a tag's rules are the
parsed templates with the placeholders renamed to the tag's indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .syntax import (
    ArrowVar,
    BridgeRule,
    Eq,
    Falsum,
    LabeledFormula,
    RelationProperty,
    Signature,
    Theory,
    children,
    parse_bridge_rule_text,
    rebuild,
)

if TYPE_CHECKING:  # pragma: no cover
    from .semantics import DfolModel

__all__ = [
    "bridge_rules_for_property",
    "relation_has_property",
    "relation_preserves_order",
    "inconsistency_propagation_rule",
]


_PLACEHOLDERS = ("i", "j", "k")

# Each kind's rules, numbered from 1 in this order in their origins
# `kind(indices)/n`; a kind of arity n uses the first n placeholders.
_TEMPLATES = {
    "fun": ("i: x^>j = y^>j ==> j: x = y",),
    "tot": ("i: x = x ==> j: exists y. y = x^<i",),
    "sur": ("j: x = x ==> i: exists y. y = x^>j",),
    "inj": ("i: ~x^>j = y^>j ==> j: ~x = y",),
    "inv": ("i: x = y^>j ==> j: y = x^>i", "j: x = y^>i ==> i: y = x^>j"),
    # degenerate: the premises force x and y to coincide; kept verbatim so
    # that the catalogue is complete
    "congr": ("i: x = v^>j, i: y = v^>j, i: x = w^>j ==> j: y^<i = w",),
    "com": ("j: x^<i = z^>k ==> k: x^<i = z", "i: x = z^>k ==> j: x^<i = z^>k"),
    "euc": (
        "j: y = z^>k ==> i: y^>j = z^>k",
        "i: y^>j = z^>k ==> j: y = z^>k",
        "j: y = z^<k ==> i: y^>j = z^>k",
        "i: y^>j = z^>k ==> j: y = z^<k",
    ),
}

_HOLES = Theory(_PLACEHOLDERS, {h: Signature() for h in _PLACEHOLDERS})
_RULES = {
    kind: tuple(parse_bridge_rule_text(_HOLES, text) for text in texts)
    for kind, texts in _TEMPLATES.items()
}


def _instance(rule: BridgeRule, names: dict[str, str], origin: str) -> BridgeRule:
    """rule with each index and each arrow variable's foreign index renamed
    by names; the templates hold only equations of plain and arrow
    variables under `~` and `exists`."""

    def term(t):
        return ArrowVar(t.base, t.direction, names[t.foreign]) if type(t) is ArrowVar else t

    def walk(f):
        if type(f) is Eq:
            return Eq(term(f.lhs), term(f.rhs))
        return rebuild(f, [walk(g) for g in children(f)])

    def labeled(lf: LabeledFormula) -> LabeledFormula:
        return LabeledFormula(names[lf.index], walk(lf.formula))

    return BridgeRule(tuple(map(labeled, rule.premises)), labeled(rule.conclusion), origin)


def bridge_rules_for_property(p: RelationProperty) -> list[BridgeRule]:
    """Bridge rules characterizing p over nonempty local-model sets: its
    kind's rows of `_TEMPLATES`, DFOL text over `i`, `j`, `k` parsed once at
    import, renamed to p's indices, with origins `kind(indices)/1`, `/2`, ...

    fun/tot/sur/inj need one rule, inv and com two, euc four.
    """
    names = dict(zip(_PLACEHOLDERS, p.indices))
    tag = f"{p.kind}({','.join(p.indices)})"
    return [_instance(rule, names, f"{tag}/{n}") for n, rule in enumerate(_RULES[p.kind], 1)]


def inconsistency_propagation_rule(j: str, i: str) -> BridgeRule:
    """`j: false ==> i: false` — inconsistency propagation from j to i."""
    return BridgeRule((LabeledFormula(j, Falsum()),), LabeledFormula(i, Falsum()), origin=f"incp({j},{i})")


# ---------------------------------------------------------------------------
# Direct set-theoretic checks
# ---------------------------------------------------------------------------


def _compose(r1: frozenset[tuple[str, str]], r2: frozenset[tuple[str, str]]) -> set[tuple[str, str]]:
    by_src: dict[str, list[str]] = {}
    for e, f in r2:
        by_src.setdefault(e, []).append(f)
    return {(d, f) for d, e in r1 for f in by_src.get(e, [])}


def relation_has_property(M: "DfolModel", p: RelationProperty) -> bool:
    """Check p directly on M's domain relations (no bridge rules involved)."""
    kind = p.kind
    if kind in ("fun", "tot", "sur", "inj", "inv", "congr"):
        i, j = p.indices
        r_ij = M.rel(i, j)
        if kind == "fun":
            image: dict[str, str] = {}
            for d, e in r_ij:
                if image.setdefault(d, e) != e:
                    return False
            return True
        if kind == "tot":
            sources = {d for d, _ in r_ij}
            return all(d in sources for d in M.domains[i])
        if kind == "sur":
            targets = {e for _, e in r_ij}
            return all(e in targets for e in M.domains[j])
        if kind == "inj":
            images: dict[str, set[str]] = {}
            for d, e in r_ij:
                images.setdefault(d, set()).add(e)
            ds = sorted(images)
            return all(
                not (images[d1] & images[d2])
                for a, d1 in enumerate(ds)
                for d2 in ds[a + 1 :]
            )
        if kind == "inv":
            r_ji = M.rel(j, i)
            return r_ij == frozenset((e, d) for d, e in r_ji)
        if kind == "congr":
            for x, v in r_ij:
                for y, v2 in r_ij:
                    if v2 != v:
                        continue
                    for x2, w in r_ij:
                        if x2 == x and (y, w) not in r_ij:
                            return False
            return True
    if kind == "com":
        i, j, k = p.indices
        return _compose(M.rel(i, j), M.rel(j, k)) == set(M.rel(i, k))
    if kind == "euc":
        i, j, k = p.indices
        joined = {
            (e, f)
            for d, e in M.rel(i, j)
            for d2, f in M.rel(i, k)
            if d2 == d
        }
        return set(M.rel(j, k)) == joined and set(M.rel(k, j)) == {
            (f, e) for e, f in joined
        }
    raise ValueError(f"unknown relation property {kind!r}")


def relation_preserves_order(
    M: "DfolModel",
    i: str,
    j: str,
    order_i: set[tuple[str, str]],
    order_j: set[tuple[str, str]],
) -> bool:
    """Ordering preservation: d ≤_i d' and (d,e),(d',e') ∈ r_ij imply e ≤_j e'.

    Orders are given explicitly as sets of (lesser, greater) pairs; the
    caller supplies whatever closure it intends.  No bridge-rule form exists
    for this property, so only the direct check is offered.
    """
    r_ij = M.rel(i, j)
    for d, e in r_ij:
        for d2, e2 in r_ij:
            if (d, d2) in order_i and (e, e2) not in order_j:
                return False
    return True
