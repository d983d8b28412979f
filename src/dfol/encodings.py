"""Translations of five contextual formalisms into bridge-rule theories.

Each encoder reads a small dialect file and builds a standard `Theory`:
signatures, axioms, bridge rules and relation-property tags, the tags
expanded by the helper `parse_theory` uses.  The result carries it, its
text (a comment header with the dialect, every fresh symbol and each input
formula's source line, then `render_theory`), and a name map listing every
freshly invented symbol.  Fresh names are content-addressed (an 8-hex
digest of the named formula), so the same input always produces the same
output and distinct inputs produce distinct theories.

In the description-logic dialects (ddl, econn, pdl) a concept parses
straight into its standard first-order translation, a formula in the one
free variable x: `C and not D` is `C(x) & ~D(x)`.  A rule that reads it
at another term substitutes that term for x.

The dialect parsers reject at the user's line and column what the core
parser would: a function or predicate name as a term, a numeric concept
or role, a name of two kinds in one block.  The encoders raise
`EncodeError` for a name shared by two symbols of one generated signature
(a qlc context named like a predicate) and for a generated variable named
like a symbol of its index, which the text would read back as that symbol.

Supported dialects
------------------

``ddl`` -- distributed description logics.  Ontology blocks declare
concepts, roles, individuals and subclass axioms; directed semantic
mappings between ontologies become bridge rules over the inter-domain
relations, and `compose i j k` adds a `com` relation property so mappings
chain across an intermediate ontology::

    ontology 1 { concepts AcademicPaper; }
    ontology 2 { concepts AcademicPaper, Document;
                 axiom AcademicPaper subclassof Document; }
    ontology 3 { concepts Document; }
    mapping 1: AcademicPaper into 2: AcademicPaper
    compose 1 2 3

An `into` mapping of concepts C, D gives `i: C(x^>j) ==> j: D(x)`; `onto`
gives the converse `j: D(x) ==> i: C(x^>j)`.  Role mappings pair both
argument positions with to-variables; individual mappings relate the
equations `x = a` across the arrow.

``econn`` -- link-connected ontologies.  Links are named inter-ontology
relations; subclass axioms whose right side is a link restriction become
bridge rules over the labelled domain relations::

    ontology 1 { concepts Person; }
    ontology 2 { concepts House; }
    link Own from 1 to 2
    axiom 1: Person subclassof exists Own. House

`exists E` gives `i: C(x) ==> j: D(x^<i@E)`; `all E` gives
`i: C(x^>j@E) ==> j: D(x)`; `atleast n E` sweeps n premise copies of C
and concludes n pairwise-distinct labelled successors; `atmost n E`
sweeps n+1 successors of one element and concludes that two coincide.

``pdl`` -- package-based description logics.  Every name has the unique
home package that declares it; `import i: t into j` makes t usable in j:
concept and role imports emit the importing rule and its converse,
individual imports emit `i: x = a ==> j: x^>i = a`, and every import
attaches an `inj` property on the pair (chained imports also attach
`com` on each triple).

``qml`` -- quantified modal logic.  A formula of modal depth d is placed
at index d over indices 0..d, reading index i as "worlds reachable in
d - i steps".  Each boxed subformula becomes a fresh predicate `Box_h`
at its index, with an unboxing rule `i: Box_h(x^>i-1...) ==> i-1: body`
and necessitation `i-1: body(x^<i...) ==> i: Box_h(x...)` per atom, plus
the distribution form per ordered pair of distinct box atoms at one
index (longer distribution chains are derivable from these).  Domain
regimes are relation properties: increasing domains make each relation
toward lower indices total, decreasing domains the converse, constant
domains both.  `semantics kripke` defaults to increasing domains;
`semantics counterpart` defaults to no domain constraint and adds `com`
on every descending index triple.  After `box`, a parenthesised equation
list binds body variables to terms (`box(x = a) P(x)` is the de-re
reading, a one-place box predicate applied to a; `box P(a)` is de dicto,
a zero-place box predicate); the list is read as bindings only when a
formula follows it.

``qlc`` -- quantified logic of contexts.  Context names double as
constants; `ist(k, phi)` turns into the complete atom `ist(k, w)` where
w is a fresh term naming phi.  Input formulas must be prenex with
existentials already Skolemized away.  Per named formula the encoder
emits the entering rule `h: ist(k, f(x^>k...)) ==> k: phi(x...)` and the
exiting rule `k: phi(x^>h...) ==> h: ist(k, f(x...))` for every other
context h, rigid-designator rules `k: x = t ==> h: x^<k = t` per
declared constant, and `fun`, `tot`, `inj`, `inv` properties making all
context domains isomorphic.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby, permutations

from .syntax import (
    And,
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
    Or,
    RelationProperty,
    Signature,
    SyntaxError_,
    Term,
    Theory,
    TokenStream,
    Var,
    _expand_properties,
    _FormulaParser,
    _name_token,
    _parse_signature_block,
    _whole_formula,
    atom_terms,
    children,
    formula_symbols,
    free_plain_vars,
    rebuild,
    render_formula,
    render_theory,
    substitute,
    subterms,
    tokenize,
)


class EncodeError(Exception):
    """Input is well-formed but outside the encodable fragment."""


@dataclass(frozen=True)
class EncodedTheory:
    """Output of one encoder run: the theory and its file text."""

    dialect: str
    text: str
    theory: Theory
    names: tuple[tuple[str, str], ...] = ()  # fresh symbol -> what it names

    def name_map(self) -> dict[str, str]:
        return dict(self.names)


def _hash8(text: str) -> str:
    return hashlib.md5(text.encode("utf8")).hexdigest()[:8]


def _encoded(
    dialect: str, theory: Theory, names: tuple[tuple[str, str], ...] = (), sources: Sequence[str] = ()
) -> EncodedTheory:
    """The result for a built theory; its text is a comment header (the
    dialect, the fresh names, each input formula's source line) and then
    the rendered theory."""
    _check_variables(theory)
    header = [f"# encoded {dialect} input"]
    header += [f"# {fresh} = {meaning}" for fresh, meaning in names]
    header += [f"# {src}" for src in sources]
    return EncodedTheory(dialect, "\n".join(header) + "\n" + render_theory(theory), theory, names)


def _check_variables(theory: Theory) -> None:
    """A variable of a written formula named like a symbol of its index
    would read back as that symbol; property-tag rules are not written."""
    symbols = {i: theory.signatures[i].symbol_names() for i in theory.indices}
    written = [lf for r in theory.rules if r.origin is None for lf in (*r.premises, r.conclusion)]
    for lf in (*theory.axioms, *written):
        stack = [lf.formula]
        while stack:
            g = stack.pop()
            stack.extend(children(g))
            for t in subterms(atom_terms(g)):
                name = t.name if type(t) is Var else t.base if type(t) is ArrowVar else None
                if name in symbols[lf.index]:
                    raise EncodeError(f"variable {name} is named like a symbol of index {lf.index}")


def _signature(
    index: str,
    consts: Iterable[str],
    funcs: Iterable[tuple[str, int]],
    preds: Iterable[tuple[str, int]],
    complete: frozenset[tuple[str, str]] = frozenset(),
) -> Signature:
    """A generated signature.  Repeats of one symbol collapse into one
    entry; a name shared by two different symbols is an EncodeError."""
    consts, funcs, preds = (tuple(dict.fromkeys(s)) for s in (consts, funcs, preds))
    names = [*consts, *(f for f, _ in funcs), *(p for p, _ in preds)]
    if len(names) != len(set(names)):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise EncodeError(f"{', '.join(dup)} names two different symbols at index {index}")
    return Signature(consts, funcs, preds, complete)


def _bridge(premises: Iterable[tuple[str, Formula]], conclusion: tuple[str, Formula]) -> BridgeRule:
    return BridgeRule(tuple(LabeledFormula(i, f) for i, f in premises), LabeledFormula(*conclusion))


# ---------------------------------------------------------------------------
# Concept expressions (shared by the description-logic dialects), parsed
# into their formulas at x.  `and`/`or` chains and `not`s are read in loops
# and nest deeper than a recursive walk can follow; hashing, equality,
# substitution and rendering of the formulas walk with explicit stacks.
# ---------------------------------------------------------------------------


def _parse_concept(ts: TokenStream) -> Formula:
    """A concept; parentheses nested deeper than the interpreter's
    recursion limit allows are a SyntaxError_ at the token where the parse
    gave out (see syntax._whole_formula)."""
    try:
        return _parse_concept_or(ts)
    except RecursionError:
        raise ts.error("concept nested too deeply") from None


def _parse_concept_or(ts: TokenStream) -> Formula:
    c = _parse_concept_and(ts)
    while ts.accept("ident", "or"):
        c = Or(c, _parse_concept_and(ts))
    return c


def _parse_concept_and(ts: TokenStream) -> Formula:
    c = _parse_concept_unary(ts)
    while ts.accept("ident", "and"):
        c = And(c, _parse_concept_unary(ts))
    return c


def _parse_concept_unary(ts: TokenStream) -> Formula:
    nots = 0
    while ts.accept("ident", "not"):
        nots += 1
    if ts.accept("("):
        c = _parse_concept_or(ts)
        ts.expect(")")
    else:
        c = Atom(_name_token(ts, "a concept name").text, (Var("x"),))
    for _ in range(nots):
        c = Not(c)
    return c


# ---------------------------------------------------------------------------
# Ontology / package blocks (shared block grammar)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OntologyBlock:
    """One `ontology i { ... }` or `package i { ... }` declaration."""

    name: str
    concepts: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()
    axioms: tuple[tuple[Formula, Formula], ...] = ()  # concepts at x

    def kind_of(self, name: str) -> str | None:
        if name in self.concepts:
            return "concept"
        if name in self.roles:
            return "role"
        if name in self.individuals:
            return "individual"
        return None


def _parse_name_list(ts: TokenStream, kind: str, kinds: dict[str, str]) -> tuple[str, ...]:
    """`a, b;` declaring names of one kind in a block whose names so far
    map to their kinds; a numeric concept or role name (the theory's
    predicates are identifiers) and a name of two kinds are errors."""

    def name() -> str:
        tok = _name_token(ts, f"an {kind} name" if kind == "individual" else f"a {kind} name")
        if tok.kind == "number" and kind != "individual":
            raise SyntaxError_(f"{kind} name {tok.text} must be an identifier", tok.line, tok.col)
        if kinds.setdefault(tok.text, kind) != kind:
            message = f"{tok.text} declared both as {kinds[tok.text]} and as {kind}"
            raise SyntaxError_(message, tok.line, tok.col)
        return tok.text

    names = ts.separated(name)
    ts.expect(";")
    return tuple(names)


def _parse_block(ts: TokenStream, *, allow_roles: bool = True) -> OntologyBlock:
    name = _name_token(ts, "an ontology name").text
    ts.expect("{")
    concepts: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()
    axioms: list[tuple[Formula, Formula]] = []
    kinds: dict[str, str] = {}
    while not ts.accept("}"):
        if ts.accept("ident", "concepts"):
            concepts += _parse_name_list(ts, "concept", kinds)
        elif allow_roles and ts.accept("ident", "roles"):
            roles += _parse_name_list(ts, "role", kinds)
        elif allow_roles and ts.accept("ident", "individuals"):
            individuals += _parse_name_list(ts, "individual", kinds)
        elif ts.accept("ident", "axiom"):
            lhs = _parse_concept(ts)
            ts.expect("ident", "subclassof")
            rhs = _parse_concept(ts)
            ts.expect(";")
            axioms.append((lhs, rhs))
        else:
            raise ts.error("expected concepts, roles, individuals, axiom, or }")
    return OntologyBlock(name, concepts, roles, individuals, tuple(axioms))


def _check_concept(c: Formula, block: OntologyBlock) -> None:
    for _, n in sorted(formula_symbols(c)):
        if n not in block.concepts:
            raise EncodeError(f"unknown concept {n!r} in ontology {block.name}")


def _blocks_theory(blocks: Sequence[OntologyBlock], consts=None, preds=None) -> Theory:
    """Indices, signatures and subclass axioms of ontology or package
    blocks; `consts` and `preds` map a block name to symbols it gains."""
    consts, preds = consts or {}, preds or {}
    theory = Theory(tuple(b.name for b in blocks))
    for b in blocks:
        arities = (*((c, 1) for c in b.concepts), *((r, 2) for r in b.roles), *preds.get(b.name, ()))
        individuals = (*b.individuals, *consts.get(b.name, ()))
        theory.signatures[b.name] = _signature(b.name, individuals, (), arities)
        for lhs, rhs in b.axioms:
            _check_concept(lhs, b)
            _check_concept(rhs, b)
            theory.axioms += (LabeledFormula(b.name, Forall("x", Implies(lhs, rhs))),)
    return theory


# ---------------------------------------------------------------------------
# ddl: ontologies with directed semantic mappings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DdlMapping:
    """`mapping i: C into j: D` (or `onto`); entity is concept/role/individual."""

    direction: str  # "into" or "onto"
    entity: str
    src_index: str
    src: Formula | str  # a concept at x, or a role or individual name
    dst_index: str
    dst: Formula | str


@dataclass(frozen=True)
class DdlSpec:
    ontologies: tuple[OntologyBlock, ...]
    mappings: tuple[DdlMapping, ...]
    compositions: tuple[tuple[str, str, str], ...]

    def ontology(self, name: str) -> OntologyBlock:
        for block in self.ontologies:
            if block.name == name:
                return block
        raise EncodeError(f"unknown ontology {name!r}")


def parse_ddl(text: str) -> DdlSpec:
    ts = TokenStream(tokenize(text))
    blocks: list[OntologyBlock] = []
    mappings: list[DdlMapping] = []
    compositions: list[tuple[str, str, str]] = []
    while not ts.at("eof"):
        if ts.accept("ident", "ontology"):
            block = _parse_block(ts)
            if any(b.name == block.name for b in blocks):
                raise ts.error(f"duplicate ontology {block.name!r}")
            blocks.append(block)
        elif ts.accept("ident", "mapping"):
            src_index = _name_token(ts, "an ontology name").text
            ts.expect(":")
            src = _parse_concept(ts)
            if ts.peek().text not in ("into", "onto"):
                raise ts.error("expected into or onto")
            direction = ts.next().text
            dst_index = _name_token(ts, "an ontology name").text
            ts.expect(":")
            dst = _parse_concept(ts)
            mappings.append(DdlMapping(direction, "", src_index, src, dst_index, dst))
        elif ts.at("ident", "compose"):
            tok = ts.next()
            triple = tuple(_name_token(ts, "an ontology name").text for _ in range(3))
            if len(set(triple)) < 3:
                raise SyntaxError_("compose needs three distinct ontologies", tok.line, tok.col)
            compositions.append(triple)
        else:
            raise ts.error("expected ontology, mapping, or compose")
    spec = DdlSpec(tuple(blocks), tuple(mappings), tuple(compositions))
    for triple in compositions:
        for name in triple:
            spec.ontology(name)
    return DdlSpec(spec.ontologies, tuple(_resolve_mapping(spec, m) for m in spec.mappings), spec.compositions)


def _resolve_mapping(spec: DdlSpec, m: DdlMapping) -> DdlMapping:
    """Decide whether a mapping relates concepts, roles, or individuals."""
    src_block = spec.ontology(m.src_index)
    dst_block = spec.ontology(m.dst_index)
    if m.src_index == m.dst_index:
        raise EncodeError(f"mapping must relate distinct ontologies, got {m.src_index}")
    kinds = []
    for side, block in ((m.src, src_block), (m.dst, dst_block)):
        if type(side) is Atom and block.kind_of(side.pred) in ("role", "individual"):
            kinds.append(block.kind_of(side.pred))
        else:
            _check_concept(side, block)
            kinds.append("concept")
    if kinds[0] != kinds[1]:
        raise EncodeError(f"mapping mixes a {kinds[0]} with a {kinds[1]}")
    entity = kinds[0]
    if entity == "concept":
        return DdlMapping(m.direction, entity, m.src_index, m.src, m.dst_index, m.dst)
    assert type(m.src) is Atom and type(m.dst) is Atom
    return DdlMapping(m.direction, entity, m.src_index, m.src.pred, m.dst_index, m.dst.pred)


def ddl_mapping_rule(m: DdlMapping) -> BridgeRule:
    """One bridge rule per mapping; `onto` swaps premise and conclusion."""
    i, j = m.src_index, m.dst_index
    if m.entity == "concept":
        src_f, dst_f = substitute(m.src, "x", ArrowVar("x", ">", j)), m.dst
    elif m.entity == "role":
        src_f = Atom(str(m.src), (ArrowVar("x", ">", j), ArrowVar("y", ">", j)))
        dst_f = Atom(str(m.dst), (Var("x"), Var("y")))
    else:
        src_f = Eq(ArrowVar("x", ">", j), Const(str(m.src)))
        dst_f = Eq(Var("x"), Const(str(m.dst)))
    if m.direction == "into":
        return _bridge([(i, src_f)], (j, dst_f))
    return _bridge([(j, dst_f)], (i, src_f))


def encode_ddl(spec: DdlSpec) -> EncodedTheory:
    rules = [ddl_mapping_rule(m) for m in spec.mappings]
    properties = [RelationProperty("com", c) for c in spec.compositions]
    return _encoded("ddl", _expand_properties(_blocks_theory(spec.ontologies), rules, properties))


# ---------------------------------------------------------------------------
# econn: ontologies connected by named links
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EconnLink:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class EconnAxiom:
    """`axiom i: C subclassof <restriction> E. D` with D in E's target."""

    index: str
    lhs: Formula  # a concept at x
    restriction: str  # "exists", "all", "atleast", "atmost"
    bound: int  # 0 for exists/all
    link: str
    rhs: Formula


@dataclass(frozen=True)
class EconnSpec:
    ontologies: tuple[OntologyBlock, ...]
    links: tuple[EconnLink, ...]
    axioms: tuple[EconnAxiom, ...]

    def link(self, name: str) -> EconnLink:
        for link in self.links:
            if link.name == name:
                return link
        raise EncodeError(f"unknown link {name!r}")


def parse_econn(text: str) -> EconnSpec:
    ts = TokenStream(tokenize(text))
    blocks: list[OntologyBlock] = []
    links: list[EconnLink] = []
    axioms: list[EconnAxiom] = []
    local: list[tuple[str, Formula, Formula]] = []
    while not ts.at("eof"):
        if ts.accept("ident", "ontology"):
            block = _parse_block(ts, allow_roles=False)
            if any(b.name == block.name for b in blocks):
                raise ts.error(f"duplicate ontology {block.name!r}")
            blocks.append(block)
        elif ts.accept("ident", "link"):
            name = _name_token(ts, "a link name").text
            ts.expect("ident", "from")
            src = _name_token(ts, "an ontology name").text
            ts.expect("ident", "to")
            dst = _name_token(ts, "an ontology name").text
            if any(l.name == name for l in links):
                raise ts.error(f"duplicate link {name!r}")
            links.append(EconnLink(name, src, dst))
        elif ts.accept("ident", "axiom"):
            index = _name_token(ts, "an ontology name").text
            ts.expect(":")
            lhs = _parse_concept(ts)
            ts.expect("ident", "subclassof")
            tok = ts.peek()
            if tok.kind == "ident" and tok.text in ("exists", "all", "atleast", "atmost"):
                restriction = ts.next().text
                bound = 0
                if restriction in ("atleast", "atmost"):
                    bound = int(ts.expect("number").text)
                    if bound < 1:
                        raise ts.error("cardinality bound must be at least 1")
                link = _name_token(ts, "a link name").text
                ts.expect(".")
                rhs = _parse_concept(ts)
                axioms.append(EconnAxiom(index, lhs, restriction, bound, link, rhs))
            else:
                local.append((index, lhs, _parse_concept(ts)))
        else:
            raise ts.error("expected ontology, link, or axiom")
    merged = list(blocks)
    position = {b.name: pos for pos, b in enumerate(merged)}
    for link in links:
        if link.src not in position or link.dst not in position:
            raise EncodeError(f"link {link.name} connects undeclared ontologies")
        if link.src == link.dst:
            raise EncodeError(f"link {link.name} must connect distinct ontologies")
    for index, lhs, rhs in local:
        if index not in position:
            raise EncodeError(f"unknown ontology {index!r}")
        b = merged[position[index]]
        merged[position[index]] = OntologyBlock(
            b.name, b.concepts, b.roles, b.individuals, b.axioms + ((lhs, rhs),)
        )
    spec = EconnSpec(tuple(merged), tuple(links), tuple(axioms))
    for ax in axioms:
        link = spec.link(ax.link)
        if ax.index not in position:
            raise EncodeError(f"unknown ontology {ax.index!r}")
        if ax.index != link.src:
            raise EncodeError(f"axiom at {ax.index} uses link {link.name} from {link.src}")
        _check_concept(ax.lhs, merged[position[ax.index]])
        _check_concept(ax.rhs, merged[position[link.dst]])
    return spec


def econn_axiom_rule(spec: EconnSpec, ax: EconnAxiom) -> BridgeRule:
    """Bridge rule over the labelled relation r_ij@E for one link axiom."""
    link = spec.link(ax.link)
    i, j, label = link.src, link.dst, link.name
    if ax.restriction == "exists":
        conc = substitute(ax.rhs, "x", ArrowVar("x", "<", i, label))
        return _bridge([(i, ax.lhs)], (j, conc))
    if ax.restriction == "all":
        prem = substitute(ax.lhs, "x", ArrowVar("x", ">", j, label))
        return _bridge([(i, prem)], (j, ax.rhs))
    if ax.restriction == "atleast":
        # n premise copies; any n elements with >= n successors each admit
        # pairwise-distinct representatives, so the sweep stays sound.
        names = [f"x{k}" for k in range(1, ax.bound + 1)]
        premises = [(i, substitute(ax.lhs, "x", Var(v))) for v in names]
        arrows = [ArrowVar(v, "<", i, label) for v in names]
        conjuncts: list[Formula] = [substitute(ax.rhs, "x", a) for a in arrows]
        for p in range(len(arrows)):
            for q in range(p + 1, len(arrows)):
                conjuncts.append(Not(Eq(arrows[p], arrows[q])))
        conc = conjuncts[0]
        for extra in conjuncts[1:]:
            conc = And(conc, extra)
        return _bridge(premises, (j, conc))
    # atmost: sweep n+1 successors of one element; two must coincide.
    names = [f"x{k}" for k in range(1, ax.bound + 2)]
    premises = [(i, ax.lhs)]
    premises += [(i, Eq(Var("x"), ArrowVar(v, ">", j, label))) for v in names]
    disjuncts: list[Formula] = []
    for k, v in enumerate(names):
        others = [Eq(Var(w), Var(v)) for idx, w in enumerate(names) if idx != k]
        merged = others[0]
        for extra in others[1:]:
            merged = Or(merged, extra)
        disjuncts.append(Implies(substitute(ax.rhs, "x", Var(v)), merged))
    conc = disjuncts[0]
    for extra in disjuncts[1:]:
        conc = Or(conc, extra)
    return _bridge(premises, (j, conc))


def encode_econn(spec: EconnSpec) -> EncodedTheory:
    rules = [econn_axiom_rule(spec, ax) for ax in spec.axioms]
    return _encoded("econn", _expand_properties(_blocks_theory(spec.ontologies), rules, ()))


# ---------------------------------------------------------------------------
# pdl: packages importing foreign terms from their home package
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdlImport:
    src: str
    term: str
    kind: str  # "concept" | "role" | "individual"
    dst: str


@dataclass(frozen=True)
class PdlSpec:
    packages: tuple[OntologyBlock, ...]
    imports: tuple[PdlImport, ...]


def parse_pdl(text: str) -> PdlSpec:
    ts = TokenStream(tokenize(text))
    blocks: list[OntologyBlock] = []
    imports: list[PdlImport] = []
    while not ts.at("eof"):
        if ts.accept("ident", "package"):
            block = _parse_block(ts)
            if any(b.name == block.name for b in blocks):
                raise ts.error(f"duplicate package {block.name!r}")
            blocks.append(block)
        elif ts.accept("ident", "import"):
            src = _name_token(ts, "a package name").text
            ts.expect(":")
            term = _name_token(ts, "a term name").text
            ts.expect("ident", "into")
            dst = _name_token(ts, "a package name").text
            imports.append(PdlImport(src, term, "", dst))
        else:
            raise ts.error("expected package or import")
    # Every term has a unique home package; imports must name it.
    home: dict[str, str] = {}
    kinds: dict[str, str] = {}
    for block in blocks:
        for name in block.concepts + block.roles + block.individuals:
            if name in home:
                raise EncodeError(f"{name!r} declared in packages {home[name]} and {block.name}")
            home[name] = block.name
            kinds[name] = block.kind_of(name) or ""
    names = {b.name for b in blocks}
    resolved = []
    for imp in imports:
        if imp.src not in names or imp.dst not in names:
            raise EncodeError(f"import between undeclared packages {imp.src!r}, {imp.dst!r}")
        if imp.src == imp.dst:
            raise EncodeError(f"import of {imp.term!r} into its own package")
        if home.get(imp.term) != imp.src:
            raise EncodeError(f"{imp.term!r} has home package {home.get(imp.term)}, not {imp.src}")
        resolved.append(PdlImport(imp.src, imp.term, kinds[imp.term], imp.dst))
    return PdlSpec(tuple(blocks), tuple(resolved))


def pdl_import_rules(imp: PdlImport) -> list[BridgeRule]:
    """Importing rule plus its converse (individuals import one way)."""
    i, j, t = imp.src, imp.dst, imp.term
    if imp.kind == "individual":
        return [_bridge([(i, Eq(Var("x"), Const(t)))], (j, Eq(ArrowVar("x", ">", i), Const(t))))]
    if imp.kind == "concept":
        there = Atom(t, (ArrowVar("x", ">", j),))
        here = Atom(t, (Var("x"),))
    else:
        there = Atom(t, (ArrowVar("x", ">", j), ArrowVar("y", ">", j)))
        here = Atom(t, (Var("x"), Var("y")))
    return [_bridge([(i, there)], (j, here)), _bridge([(j, here)], (i, there))]


def encode_pdl(spec: PdlSpec) -> EncodedTheory:
    # imported symbols join the target's signature, the language of the rules' target side
    consts: dict[str, list[str]] = {}
    preds: dict[str, list[tuple[str, int]]] = {}
    for imp in spec.imports:
        if imp.kind == "individual":
            consts.setdefault(imp.dst, []).append(imp.term)
        else:
            preds.setdefault(imp.dst, []).append((imp.term, 1 if imp.kind == "concept" else 2))
    rules = [rule for imp in spec.imports for rule in pdl_import_rules(imp)]
    pairs = list(dict.fromkeys((imp.src, imp.dst) for imp in spec.imports))
    properties = [RelationProperty("inj", pair) for pair in pairs]
    properties += [
        RelationProperty("com", (i, j, k)) for i, j in pairs for j2, k in pairs if j2 == j and k != i
    ]
    theory = _blocks_theory(spec.packages, consts, preds)
    return _encoded("pdl", _expand_properties(theory, rules, properties))


# ---------------------------------------------------------------------------
# qml: one index per modal nesting level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxF:
    """`box phi`, optionally with de-re bindings `box(x = t) phi`."""

    body: Formula
    bindings: tuple[tuple[str, Term], ...] = ()


@dataclass(frozen=True)
class QmlSpec:
    semantics: str  # "kripke" | "counterpart"
    domains: str  # "increasing" | "decreasing" | "constant" | "unconstrained"
    signature: Signature
    formulas: tuple[Formula, ...]  # Formula trees that may contain BoxF nodes
    sources: tuple[str, ...]


class _QmlParser(_FormulaParser):
    """The core formula parser over a bare signature, with `box`, de-re
    bindings and `true`.  `&` and `|` chains nest to the left.  The
    signature has no indices, so an arrow variable is an error."""

    def __init__(self, sig: Signature, ts: TokenStream):
        super().__init__(Theory(signatures={"": sig}), "", ts)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.ts.accept("|"):
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.ts.accept("&"):
            f = And(f, self.negation())
        return f

    def atom(self) -> Formula:
        if self.ts.accept("ident", "box"):
            return self.box()
        if self.ts.accept("ident", "true"):
            return Not(Falsum())
        return super().atom()

    STATEMENT_WORDS = frozenset({"formula", "semantics", "domains", "signature", "contexts"})

    def box(self) -> Formula:
        ts = self.ts
        bindings: tuple[tuple[str, Term], ...] = ()
        if ts.at("("):
            saved = ts.pos
            parsed = self.try_bindings()
            tok = ts.peek()
            starts_formula = tok.kind in ("(", "~") or (
                tok.kind == "ident" and tok.text not in self.STATEMENT_WORDS
            )
            if parsed is None or not starts_formula:
                ts.pos = saved
            else:
                bindings = parsed
        return BoxF(self.negation(), bindings)

    def try_bindings(self) -> tuple[tuple[str, Term], ...] | None:
        ts = self.ts
        ts.expect("(")
        pairs: list[tuple[str, Term]] = []
        try:
            while True:
                name = _name_token(ts, "a variable").text
                ts.expect("=")
                pairs.append((name, self.term()))
                if ts.accept(")"):
                    return tuple(pairs)
                ts.expect(",")
        except SyntaxError_:
            return None


def qml_depth(f) -> int:
    """The deepest nesting of boxes in f, walked with an explicit stack as
    `_check_matrix` walks: a long & chain parses without recursion."""
    depth = 0
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        if isinstance(g, BoxF):
            stack.append((g.body, d + 1))
        else:
            depth = max(depth, d)
            stack.extend((h, d) for h in children(g))
    return depth


def parse_qml(text: str) -> QmlSpec:
    ts = TokenStream(tokenize(text))
    semantics = "kripke"
    domains: str | None = None
    sig = Signature()
    formulas: list[Formula] = []
    sources: list[str] = []
    lines = text.splitlines()
    while not ts.at("eof"):
        if ts.accept("ident", "semantics"):
            tok = ts.next()
            if tok.text not in ("kripke", "counterpart"):
                raise ts.error("expected kripke or counterpart")
            semantics = tok.text
        elif ts.accept("ident", "domains"):
            tok = ts.next()
            if tok.text not in ("increasing", "decreasing", "constant", "unconstrained"):
                raise ts.error("expected increasing, decreasing, constant, or unconstrained")
            domains = tok.text
        elif ts.at("ident", "signature"):
            ts.next()
            sig = _parse_signature_block(ts, sig)
        elif ts.accept("ident", "formula"):
            sources.append(lines[ts.peek().line - 1].strip())
            formulas.append(_whole_formula(_QmlParser(sig, ts)))
        else:
            raise ts.error("expected semantics, domains, signature, or formula")
    if domains is None:
        domains = "increasing" if semantics == "kripke" else "unconstrained"
    return QmlSpec(semantics, domains, sig, tuple(formulas), tuple(sources))


class _BoxRegistry:
    """Fresh box predicates introduced during translation, per index."""

    def __init__(self) -> None:
        self.entries: dict[tuple[int, str], tuple[tuple[str, ...], Formula]] = {}

    def register(self, index: int, body: Formula) -> tuple[str, tuple[str, ...]]:
        params = tuple(sorted(free_plain_vars(body)))
        name = "Box_" + _hash8(render_formula(body) + "|" + ",".join(params))
        self.entries[(index, name)] = (params, body)
        return name, params


def qml_translate(f, index: int, registry: _BoxRegistry) -> Formula:
    """Replace each boxed subformula with a fresh atom one index up.
    A post-order walk with an explicit stack, since & chains nest deeper
    than a recursive walk can follow: each entry is a node, its index, and
    whether its subformulas are translated, their results then being the
    last entries of `done`; boxes register left to right, inner first."""
    done: list[Formula] = []
    stack: list = [(f, index, False)]
    while stack:
        g, i, visited = stack.pop()
        if type(g) is BoxF:
            if not visited:
                if i == 0:
                    raise EncodeError("box nesting exceeds the declared evaluation index")
                stack += [(g, i, True), (g.body, i - 1, False)]
                continue
            name, params = registry.register(i, done.pop())
            bind = dict(g.bindings)
            for v in bind:
                if v not in params:
                    raise EncodeError(f"binding for {v!r} which is not free in the box body")
            done.append(Atom(name, tuple(bind.get(v, Var(v)) for v in params)))
            continue
        kids = children(g)
        if visited or not kids:
            at = len(done) - len(kids)
            done[at:] = [rebuild(g, done[at:])]
        else:
            stack.append((g, i, True))
            stack += [(h, i, False) for h in reversed(kids)]
    return done[0]


def _arrowed(f: Formula, params: tuple[str, ...], direction: str, foreign: str) -> Formula:
    for v in params:
        f = substitute(f, v, ArrowVar(v, direction, foreign))
    return f


def encode_qml(spec: QmlSpec) -> EncodedTheory:
    depth = max((qml_depth(f) for f in spec.formulas), default=0)
    indices = tuple(str(i) for i in range(depth + 1))
    registry = _BoxRegistry()
    axioms = tuple(LabeledFormula(indices[-1], qml_translate(f, depth, registry)) for f in spec.formulas)
    entries = [(i, name, params, body) for (i, name), (params, body) in sorted(registry.entries.items())]
    names = tuple((name, f"box {render_formula(body)} (index {i})") for i, name, _, body in entries)
    sig = spec.signature
    boxes = {i: [(name, len(params)) for j, name, params, _ in entries if str(j) == i] for i in indices}
    signatures = {
        i: _signature(i, sig.consts, sig.funcs, (*sig.preds, *boxes[i]), sig.complete) for i in indices
    }

    rules = []
    for i, name, params, body in entries:
        below = str(i - 1)
        box_up = Atom(name, tuple(ArrowVar(v, ">", below) for v in params))
        rules.append(_bridge([(str(i), box_up)], (below, body)))
        box_plain = Atom(name, tuple(Var(v) for v in params))
        rules.append(_bridge([(below, _arrowed(body, params, "<", str(i)))], (str(i), box_plain)))
    for i, at_i in groupby(entries, key=lambda e: e[0]):
        for (_, name_a, params_a, body_a), (_, name_b, params_b, body_b) in permutations(at_i, 2):
            joint = tuple(sorted(set(params_a) | set(params_b)))
            prem = _arrowed(Implies(body_a, body_b), joint, "<", str(i))
            conc = Implies(
                Atom(name_a, tuple(Var(v) for v in params_a)),
                Atom(name_b, tuple(Var(v) for v in params_b)),
            )
            rules.append(_bridge([(str(i - 1), prem)], (str(i), conc)))

    properties = []
    for hi in range(depth, 0, -1):
        for lo in range(hi - 1, -1, -1):
            if spec.domains in ("increasing", "constant"):
                properties.append(RelationProperty("tot", (str(hi), str(lo))))
            if spec.domains in ("decreasing", "constant"):
                properties.append(RelationProperty("tot", (str(lo), str(hi))))
    if spec.semantics == "counterpart":
        for i in range(depth, 1, -1):
            for j in range(i - 1, 0, -1):
                for k in range(j - 1, -1, -1):
                    properties.append(RelationProperty("com", (str(i), str(j), str(k))))
    theory = _expand_properties(Theory(indices, signatures, axioms), rules, properties)
    return _encoded("qml", theory, names, spec.sources)


# ---------------------------------------------------------------------------
# qlc: contexts with an ist predicate over named formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IstF:
    """`ist(k, phi)`: phi holds in context k."""

    context: str
    body: Formula


@dataclass(frozen=True)
class QlcSpec:
    contexts: tuple[str, ...]
    signature: Signature
    formulas: tuple[tuple[str, Formula], ...]  # (home context, tree with IstF)
    sources: tuple[str, ...]


class _QlcParser(_QmlParser):
    """The modal-dialect parser with `ist(k, phi)` atoms instead of box."""

    def __init__(self, sig: Signature, ts: TokenStream, contexts: tuple[str, ...]):
        super().__init__(sig, ts)
        self.contexts = contexts

    def box(self) -> Formula:
        raise self.ts.error("box is not part of this dialect")

    def atom(self) -> Formula:
        ts = self.ts
        if ts.accept("ident", "ist"):
            ts.expect("(")
            ctx = _name_token(ts, "a context name").text
            if ctx not in self.contexts:
                raise ts.error(f"unknown context {ctx!r}")
            ts.expect(",")
            body = self.formula()
            ts.expect(")")
            return IstF(ctx, body)
        return super().atom()


def parse_qlc(text: str) -> QlcSpec:
    ts = TokenStream(tokenize(text))
    contexts: tuple[str, ...] = ()
    sig = Signature()
    formulas: list[tuple[str, Formula]] = []
    sources: list[str] = []
    lines = text.splitlines()
    while not ts.at("eof"):
        if ts.accept("ident", "contexts"):
            contexts += tuple(ts.separated(lambda: _name_token(ts, "a context name").text))
        elif ts.at("ident", "signature"):
            ts.next()
            sig = _parse_signature_block(ts, sig)
        elif ts.accept("ident", "formula"):
            home = _name_token(ts, "a context name").text
            if home not in contexts:
                raise ts.error(f"unknown context {home!r}")
            ts.expect(":")
            sources.append(lines[ts.peek().line - 1].strip())
            # context names double as constants
            local = _signature(home, (*sig.consts, *contexts), sig.funcs, sig.preds)
            formulas.append((home, _whole_formula(_QlcParser(local, ts, contexts))))
        else:
            raise ts.error("expected contexts, signature, or formula")
    if len(set(contexts)) != len(contexts):
        raise EncodeError("duplicate context name")
    for _, f in formulas:
        _check_prenex(f)
    return QlcSpec(contexts, sig, tuple(formulas), tuple(sources))


def _check_prenex(f: Formula) -> None:
    """Universal prefix over a quantifier-free matrix; no existentials."""
    while isinstance(f, Forall):
        f = f.body
    _check_matrix(f)


def _check_matrix(f) -> None:
    # an explicit stack, in pre-order: a long left-nested & chain parses
    # without recursion and must be checkable without it
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Exists):
            raise EncodeError("existential quantifier: Skolemize the input first")
        if isinstance(g, Forall):
            raise EncodeError("input formula is not in prenex form")
        stack.extend(reversed((g.body,) if isinstance(g, IstF) else children(g)))


class _WffRegistry:
    """Fresh term names for formulas appearing under ist."""

    def __init__(self) -> None:
        self.entries: dict[str, tuple[tuple[str, ...], Formula]] = {}
        self.uses: set[tuple[str, str]] = set()  # (wff name, context)

    def register(self, context: str, body: Formula) -> tuple[str, tuple[str, ...]]:
        params = tuple(sorted(free_plain_vars(body)))
        name = "wff_" + _hash8(render_formula(body) + "|" + ",".join(params))
        self.entries[name] = (params, body)
        self.uses.add((name, context))
        return name, params


def qlc_translate(f, registry: _WffRegistry) -> Formula:
    """Replace each `ist(k, phi)` with the atom `ist(k, w)`, w the fresh
    term naming phi; walked as qml_translate walks."""
    done: list[Formula] = []
    stack: list = [(f, False)]
    while stack:
        g, visited = stack.pop()
        if type(g) is IstF:
            if not visited:
                stack += [(g, True), (g.body, False)]
                continue
            name, params = registry.register(g.context, done.pop())
            wff: Term = Const(name) if not params else App(name, tuple(Var(v) for v in params))
            done.append(Atom("ist", (Const(g.context), wff)))
            continue
        kids = children(g)
        if visited or not kids:
            at = len(done) - len(kids)
            done[at:] = [rebuild(g, done[at:])]
        else:
            stack.append((g, True))
            stack += [(h, False) for h in reversed(kids)]
    return done[0]


def encode_qlc(spec: QlcSpec) -> EncodedTheory:
    if len(spec.contexts) < 2:
        raise EncodeError("need at least two contexts")
    registry = _WffRegistry()
    axioms = tuple(LabeledFormula(home, qlc_translate(f, registry)) for home, f in spec.formulas)

    entries = sorted(registry.entries.items())
    names = tuple((name, f"names the formula {render_formula(body)}") for name, (_, body) in entries)
    sig = spec.signature
    consts = (*sig.consts, *spec.contexts, *(n for n, (p, _) in entries if not p))
    funcs = (*sig.funcs, *((n, len(p)) for n, (p, _) in entries if p))
    preds, complete = (*sig.preds, ("ist", 2)), frozenset({("pred", "ist")})
    signatures = {k: _signature(k, consts, funcs, preds, complete) for k in spec.contexts}

    rules = []
    for name, k in sorted(registry.uses):
        params, body = registry.entries[name]
        for h in spec.contexts:
            if h == k:
                continue
            arrowed_args: Term = (
                Const(name) if not params else App(name, tuple(ArrowVar(v, ">", k) for v in params))
            )
            enter_prem = Atom("ist", (Const(k), arrowed_args))
            rules.append(_bridge([(h, enter_prem)], (k, body)))
            plain: Term = Const(name) if not params else App(name, tuple(Var(v) for v in params))
            exit_conc = Atom("ist", (Const(k), plain))
            rules.append(_bridge([(k, _arrowed(body, params, ">", h))], (h, exit_conc)))

    rigid_terms = dict.fromkeys((*sig.consts, *spec.contexts))
    for k in spec.contexts:
        for h in spec.contexts:
            if h == k:
                continue
            for t in rigid_terms:
                there = Eq(ArrowVar("x", "<", k), Const(t))
                rules.append(_bridge([(k, Eq(Var("x"), Const(t)))], (h, there)))
    pairs = [(k, h) for k in spec.contexts for h in spec.contexts if h != k]
    properties = [RelationProperty(kind, pair) for pair in pairs for kind in ("fun", "tot", "inj")]
    done = set()
    for k, h in pairs:
        if (h, k) not in done:
            done.add((k, h))
            properties.append(RelationProperty("inv", (k, h)))
    theory = _expand_properties(Theory(tuple(spec.contexts), signatures, axioms), rules, properties)
    return _encoded("qlc", theory, names, spec.sources)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def encode_ddl_text(text: str) -> EncodedTheory:
    return encode_ddl(parse_ddl(text))


def encode_econn_text(text: str) -> EncodedTheory:
    return encode_econn(parse_econn(text))


def encode_pdl_text(text: str) -> EncodedTheory:
    return encode_pdl(parse_pdl(text))


def encode_qml_text(text: str) -> EncodedTheory:
    return encode_qml(parse_qml(text))


def encode_qlc_text(text: str) -> EncodedTheory:
    return encode_qlc(parse_qlc(text))


DIALECTS = {
    "ddl": encode_ddl_text,
    "econn": encode_econn_text,
    "pdl": encode_pdl_text,
    "qml": encode_qml_text,
    "qlc": encode_qlc_text,
}


def encode_text(dialect: str, text: str) -> EncodedTheory:
    if dialect not in DIALECTS:
        raise EncodeError(f"unknown dialect {dialect!r}; choose from {sorted(DIALECTS)}")
    return DIALECTS[dialect](text)
