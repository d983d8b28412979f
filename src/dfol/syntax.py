"""Abstract syntax, parsing, and rendering for indexed first-order languages.

Formulas live at named indices and may contain arrow variables: `x^>j` (the
to-variable of x towards index j) and `x^<j` (the from-variable of x from
index j), optionally tagged with a link label as in `x^<j@E`.  Plain x,
x^>j and x^<j are three distinct variables; quantifiers bind plain
variables only.

Concrete syntax summary::

    index 1, 2
    signature 1 { const l, r; func f/1; pred inbox/2; complete pred inbox/2; }
    axiom 1: forall x. (inbox(x,l) -> ~inbox(x,r))
    bridge 1: inbox(x,r) ==> 2: exists y. inbox(x^<1,y)
    property fun 1 2

Connectives are `~ & | ->` with precedence `~` > `&` > `|` > `->` and
right-associative binaries; `false` is falsum; `#` starts a line comment.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import is_not
from typing import NamedTuple, TypeVar

__all__ = [
    "Var",
    "ArrowVar",
    "Const",
    "App",
    "Term",
    "Atom",
    "Eq",
    "Falsum",
    "Not",
    "And",
    "Or",
    "Implies",
    "Forall",
    "Exists",
    "Formula",
    "LabeledFormula",
    "BridgeRule",
    "RelationProperty",
    "Signature",
    "Theory",
    "SyntaxError_",
    "Token",
    "tokenize",
    "TokenStream",
    "parse_theory",
    "parse_formula",
    "parse_labeled_formula",
    "parse_bridge_rule_text",
    "render_term",
    "render_formula",
    "render_labeled",
    "render_bridge_rule",
    "render_theory",
    "free_plain_vars",
    "arrow_vars",
    "term_free_plain_vars",
    "term_arrow_vars",
    "is_closed",
    "substitute",
    "substitute_term",
    "formula_symbols",
    "is_complete_formula",
    "classify_variables",
    "render",
    "is_complete_term",
    "children",
    "rebuild",
    "atom_terms",
    "subterms",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Plain individual variable, e.g. `x`."""

    name: str


@dataclass(frozen=True)
class ArrowVar:
    """Arrow variable `base^>foreign` or `base^<foreign`, optionally `@label`."""

    base: str
    direction: str  # ">" (to-variable) or "<" (from-variable)
    foreign: str
    label: str | None = None

    def __post_init__(self) -> None:
        if self.direction not in (">", "<"):
            raise ValueError(f"bad arrow direction {self.direction!r}")


@dataclass(frozen=True)
class Const:
    """Constant symbol, e.g. `l`."""

    name: str


@dataclass(frozen=True)
class App:
    """Function application `f(t1, ..., tn)` with n >= 1."""

    func: str
    args: tuple["Term", ...]


Term = Var | ArrowVar | Const | App


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """Predicate application `p(t1, ..., tn)`; arity 0 renders bare."""

    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq:
    """Equality `t = u`; equality belongs to every complete sub-language."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Falsum:
    """`false`."""


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall:
    """`forall x. body`; only plain variables may be bound."""

    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Eq | Falsum | Not | And | Or | Implies | Forall | Exists


def _cached_hash(node) -> int:
    """The hash a compound formula or an App keeps once computed: each node
    is hashed once, bottom-up from its children's hashes, so hashing every
    subformula of a formula costs one walk of it, not one walk per
    subformula.  The walk uses an explicit stack: the parser accepts &
    chains, and congruence closure in the tableau builds terms, nested
    deeper than a recursive hash can follow.
    Structurally equal nodes get equal hashes, consistent with ==."""
    h = node.__dict__.get("_hash")
    if h is not None:
        return h
    stack = [node]
    while stack:
        g = stack[-1]
        cls = type(g)
        if cls is App:
            kids = g.args
        elif cls is Not or cls is Forall or cls is Exists:
            kids = (g.body,)
        else:
            kids = (g.lhs, g.rhs)
        todo = [k for k in kids if type(k) in _CACHED and "_hash" not in k.__dict__]
        if todo:
            stack += todo
            continue
        stack.pop()
        hashes = tuple(hash(k) for k in kids)
        if cls is App:
            h = hash((cls, g.func, hashes))
        elif cls is Forall or cls is Exists:
            h = hash((cls, g.var, hashes))
        else:
            h = hash((cls, hashes))
        object.__setattr__(g, "_hash", h)
    return node.__dict__["_hash"]


def _without_caches(obj) -> dict:
    """Pickled (and deep-copied) state without what an object caches: a
    node's hash, which another process with another string-hash seed would
    get wrong; the compiled plan module semantics keeps on a bridge rule
    or axiom, whose closures cannot be pickled; and the part tables module
    consequence keeps on a signature, which can run to thousands of local
    models.  All are rebuilt on use."""
    return {k: v for k, v in obj.__dict__.items() if k not in ("_hash", "_plan", "_parts")}


def _node_eq(f: Formula | App, g: object) -> bool:
    """f == g for a compound formula or an App, walked with an explicit
    stack for the same reason as _cached_hash (congruence closure in the
    tableau also builds applications nested that deep); like the dataclass
    __eq__ it replaces, it compares fields in order and only between
    instances of one class."""
    if type(g) is not type(f):
        return NotImplemented
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = type(a)
        if type(b) is not cls:
            return False
        if cls is And or cls is Or or cls is Implies:
            stack.append((a.rhs, b.rhs))
            stack.append((a.lhs, b.lhs))
        elif cls is Not:
            stack.append((a.body, b.body))
        elif cls is Forall or cls is Exists:
            if a.var != b.var:
                return False
            stack.append((a.body, b.body))
        elif cls is App:
            if a.func != b.func or len(a.args) != len(b.args):
                return False
            stack += zip(a.args, b.args)
        elif a != b:
            return False
    return True


_CACHED = (Not, And, Or, Implies, Forall, Exists, App)
for _cls in _CACHED:
    _cls.__hash__ = _cached_hash
    _cls.__eq__ = _node_eq
    _cls.__getstate__ = _without_caches
del _cls


@dataclass(frozen=True)
class LabeledFormula:
    """Formula at an index, e.g. `1: inbox(x, r)`.

    Every arrow variable in the body must point at a foreign index
    different from `index`.
    """

    index: str
    formula: Formula

    __getstate__ = _without_caches


@dataclass(frozen=True)
class BridgeRule:
    """`bridge i1: f1, ..., in: fn ==> j: g`; premises may be empty.

    An empty-premise rule asserts its conclusion unconditionally for every
    assignment of the conclusion's plain variables and anchors.
    """

    premises: tuple[LabeledFormula, ...]
    conclusion: LabeledFormula
    origin: str | None = None  # set when expanded from a property tag

    __getstate__ = _without_caches


@dataclass(frozen=True)
class RelationProperty:
    """`property fun 1 2` style tag constraining one or two domain relations."""

    kind: str  # fun | tot | sur | inj | inv | com | congr | euc
    indices: tuple[str, ...]

    ARITIES = {
        "fun": 2,
        "tot": 2,
        "sur": 2,
        "inj": 2,
        "inv": 2,
        "com": 3,
        "congr": 2,
        "euc": 3,
    }

    def __post_init__(self) -> None:
        if self.kind not in self.ARITIES:
            raise ValueError(f"unknown relation property {self.kind!r}")
        if len(self.indices) != self.ARITIES[self.kind]:
            raise ValueError(
                f"property {self.kind} expects {self.ARITIES[self.kind]} indices,"
                f" got {len(self.indices)}"
            )
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"property {self.kind} needs distinct indices")


@dataclass(frozen=True)
class Signature:
    """Per-index signature; `complete` holds (kind, name) pairs, kind in
    {const, func, pred}.  Functions have arity >= 1, predicates >= 0."""

    consts: tuple[str, ...] = ()
    funcs: tuple[tuple[str, int], ...] = ()
    preds: tuple[tuple[str, int], ...] = ()
    complete: frozenset[tuple[str, str]] = frozenset()

    def func_arity(self, name: str) -> int | None:
        for f, n in self.funcs:
            if f == name:
                return n
        return None

    def pred_arity(self, name: str) -> int | None:
        for p, n in self.preds:
            if p == name:
                return n
        return None

    def is_const(self, name: str) -> bool:
        return name in self.consts

    def is_complete(self, kind: str, name: str) -> bool:
        return (kind, name) in self.complete

    def symbol_names(self) -> set[str]:
        return (
            set(self.consts)
            | {f for f, _ in self.funcs}
            | {p for p, _ in self.preds}
        )

    __getstate__ = _without_caches


@dataclass
class Theory:
    """A family of indexed signatures, local axioms, bridge rules, and
    relation-property tags (already expanded into `rules`)."""

    indices: tuple[str, ...] = ()
    signatures: dict[str, Signature] = field(default_factory=dict)
    axioms: tuple[LabeledFormula, ...] = ()
    rules: tuple[BridgeRule, ...] = ()
    properties: tuple[RelationProperty, ...] = ()

    def signature(self, index: str) -> Signature:
        try:
            return self.signatures[index]
        except KeyError:
            raise KeyError(f"undeclared index {index!r}") from None

    def local_axioms(self, index: str) -> tuple[LabeledFormula, ...]:
        return tuple(ax for ax in self.axioms if ax.index == index)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class SyntaxError_(Exception):
    """Parse-time error carrying line and column (1-based)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "index",
    "signature",
    "const",
    "func",
    "pred",
    "complete",
    "axiom",
    "bridge",
    "property",
    "forall",
    "exists",
    "false",
}

_PUNCT = [
    "==>",
    "<-",
    "->",
    "-",
    "^>",
    "^<",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
    ":",
    ".",
    "/",
    "=",
    "~",
    "&",
    "|",
    "@",
]


class Token(NamedTuple):
    kind: str  # "ident" | "number" | punctuation string | "eof"
    text: str
    line: int
    col: int


# one alternative per token class, after any blanks; punctuation is tried
# in _PUNCT order, so `==>` wins over `=`, and any other character but a
# blank is an error (blanks at the end of the text match nothing)
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<ident>[^\W\d]\w*)|(?P<number>[0-9]+)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + r")|(?P<bad>[^ \t\r]))"
)


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens; `#` starts a comment to end of line.
    Columns count characters from 1, and a comment takes up none, so the
    eof token after a trailing comment sits where the comment starts."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        word = m.group(kind)
        col = m.end() - len(word) - line_start + 1
        if kind == "bad":
            raise SyntaxError_(f"unexpected character {word!r}", line, col)
        # tuple.__new__ skips the Python-level NamedTuple constructor, a
        # third of this loop's time
        toks.append(tuple.__new__(Token, (word if kind == "punct" else kind, word, line, col)))
    # every character before a `#` is a token or a blank, or raised above
    toks.append(Token("eof", "", line, len(text[line_start:].split("#", 1)[0]) + 1))
    return toks


_T = TypeVar("_T")


class TokenStream:
    """Cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # at, accept and expect read the current token themselves rather than
    # through peek and at: they run once or more per token of every parse
    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        return self.next()

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise SyntaxError_(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def separated(self, item: Callable[[], _T]) -> list[_T]:
        """item(), then item() again after each `,`."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def expect_end(self, kind: str) -> None:
        """A whole formula or file has been read up to a token of `kind`."""
        if not self.at(kind):
            raise self.error(f"trailing input {self.peek().text!r}")

    def error(self, message: str) -> SyntaxError_:
        tok = self.peek()
        return SyntaxError_(message, tok.line, tok.col)


def _name_token(ts: TokenStream, what: str) -> Token:
    tok = ts.peek()
    if tok.kind not in ("ident", "number"):
        raise ts.error(f"expected {what}, found {tok.text or tok.kind!r}")
    if tok.kind == "ident" and tok.text in KEYWORDS:
        raise ts.error(f"keyword {tok.text!r} cannot be used as {what}")
    return ts.next()


# ---------------------------------------------------------------------------
# Formula parser (signature-directed)
# ---------------------------------------------------------------------------


class _FormulaParser:
    """Recursive-descent parser for formulas of one indexed language."""

    def __init__(self, theory: Theory, index: str, ts: TokenStream):
        if index not in theory.signatures:
            tok = ts.peek()
            raise SyntaxError_(f"undeclared index {index!r}", tok.line, tok.col)
        self.theory = theory
        self.index = index
        self.sig = theory.signatures[index]
        self.ts = ts

    # formula := quantified | implication
    def formula(self) -> Formula:
        if self.ts.at("ident", "forall") or self.ts.at("ident", "exists"):
            return self.quantified()
        return self.implication()

    def quantified(self) -> Formula:
        kw = self.ts.next()
        var = _name_token(self.ts, "a variable")
        if var.kind != "ident":
            raise SyntaxError_("quantified variable must be an identifier", var.line, var.col)
        if self.ts.at("^>") or self.ts.at("^<"):
            raise SyntaxError_("quantified arrow variable", var.line, var.col)
        self.ts.expect(".")
        body = self.formula()
        return Forall(var.text, body) if kw.text == "forall" else Exists(var.text, body)

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.ts.accept("->"):
            return Implies(lhs, self.formula())
        return lhs

    def disjunction(self) -> Formula:
        lhs = self.conjunction()
        if self.ts.accept("|"):
            return Or(lhs, self.disjunction())
        return lhs

    def conjunction(self) -> Formula:
        lhs = self.negation()
        if self.ts.accept("&"):
            return And(lhs, self.conjunction())
        return lhs

    def negation(self) -> Formula:
        if self.ts.accept("~"):
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        if self.ts.at("ident", "false"):
            self.ts.next()
            return Falsum()
        if self.ts.at("ident", "forall") or self.ts.at("ident", "exists"):
            return self.quantified()
        if self.ts.accept("("):
            inner = self.formula()
            self.ts.expect(")")
            return inner
        return self.relation()

    def relation(self) -> Formula:
        """A predicate atom or an equation."""
        tok = self.ts.peek()
        if tok.kind == "ident" and self.sig.pred_arity(tok.text) is not None:
            return self.predicate()
        lhs = self.term()
        eq = self.ts.peek()
        if not self.ts.accept("="):
            raise SyntaxError_(
                f"expected '=' after term (is {render_term(lhs)!r} an undeclared predicate?)",
                eq.line,
                eq.col,
            )
        rhs = self.term()
        return Eq(lhs, rhs)

    def predicate(self) -> Formula:
        tok = self.ts.next()
        arity = self.sig.pred_arity(tok.text)
        args: tuple[Term, ...] = ()
        if self.ts.accept("("):
            args = tuple(self.ts.separated(self.term))
            self.ts.expect(")")
        if len(args) != arity:
            raise SyntaxError_(
                f"predicate {tok.text} expects {arity} arguments, got {len(args)}",
                tok.line,
                tok.col,
            )
        return Atom(tok.text, args)

    def term(self) -> Term:
        tok = _name_token(self.ts, "a term")
        name = tok.text
        if self.sig.pred_arity(name) is not None:
            raise SyntaxError_(f"predicate {name} used as a term", tok.line, tok.col)
        if self.sig.func_arity(name) is not None:
            arity = self.sig.func_arity(name)
            self.ts.expect("(")
            parts = self.ts.separated(self.term)
            self.ts.expect(")")
            if len(parts) != arity:
                raise SyntaxError_(
                    f"function {name} expects {arity} arguments, got {len(parts)}",
                    tok.line,
                    tok.col,
                )
            return App(name, tuple(parts))
        if self.sig.is_const(name):
            return Const(name)
        # variable, possibly an arrow variable
        if tok.kind == "number":
            raise SyntaxError_(f"number {name} is not a declared constant", tok.line, tok.col)
        arrow = self.ts.accept("^>") or self.ts.accept("^<")
        if arrow is None:
            return Var(name)
        foreign = _name_token(self.ts, "an index").text
        if foreign not in self.theory.signatures:
            raise SyntaxError_(f"undeclared index {foreign!r}", tok.line, tok.col)
        if foreign == self.index:
            raise SyntaxError_(
                f"arrow variable {name}^{arrow.text[1]}{foreign} points at its own index",
                tok.line,
                tok.col,
            )
        label = None
        if self.ts.accept("@"):
            label = _name_token(self.ts, "a link label").text
        return ArrowVar(name, arrow.text[1], foreign, label)


def _whole_formula(parser) -> Formula:
    """parser.formula() for a recursive-descent formula parser; input
    nested deeper than the interpreter's recursion limit allows is a
    SyntaxError_ at the token where the parse gave out."""
    try:
        return parser.formula()
    except RecursionError:
        raise parser.ts.error("formula nested too deeply") from None


def parse_formula(theory: Theory, index: str, text: str) -> Formula:
    """Parse an unlabeled formula in the language of `index`."""
    ts = TokenStream(tokenize(text))
    f = _whole_formula(_FormulaParser(theory, index, ts))
    ts.expect_end("eof")
    return f


def parse_labeled_formula(theory: Theory, text: str) -> LabeledFormula:
    """Parse `i: <formula>`."""
    ts = TokenStream(tokenize(text))
    lf = _labeled_formula(theory, ts)
    ts.expect_end("eof")
    return lf


def _labeled_formula(theory: Theory, ts: TokenStream) -> LabeledFormula:
    """`i: <formula>`, in the language of index i."""
    label = _name_token(ts, "an index label")
    ts.expect(":")
    if label.text not in theory.signatures:
        raise SyntaxError_(f"undeclared index {label.text!r}", label.line, label.col)
    return LabeledFormula(label.text, _whole_formula(_FormulaParser(theory, label.text, ts)))


def _parse_bridge_rule(theory: Theory, ts: TokenStream, origin: str | None = None) -> BridgeRule:
    premises = [] if ts.at("==>") else ts.separated(lambda: _labeled_formula(theory, ts))
    ts.expect("==>")
    return BridgeRule(tuple(premises), _labeled_formula(theory, ts), origin)


def parse_bridge_rule_text(theory: Theory, text: str) -> BridgeRule:
    """Parse a bare bridge rule `i1: f1, ... ==> j: g` against a theory."""
    ts = TokenStream(tokenize(text))
    rule = _parse_bridge_rule(theory, ts)
    ts.expect_end("eof")
    return rule


# ---------------------------------------------------------------------------
# Theory parser
# ---------------------------------------------------------------------------

_STATEMENT_KEYWORDS = {"index", "signature", "axiom", "bridge", "property"}


def parse_theory(text: str) -> Theory:
    """Parse a full theory file; property tags are expanded into bridge rules.

    Statements may optionally be separated by `;`.  Indices must be declared
    before signatures, signatures before the axioms and rules that use them.
    """
    ts = TokenStream(tokenize(text))
    theory = Theory()
    declared_rules: list[BridgeRule] = []
    properties: list[RelationProperty] = []
    while not ts.at("eof"):
        if ts.accept(";"):
            continue
        tok = ts.peek()
        if tok.kind != "ident" or tok.text not in _STATEMENT_KEYWORDS:
            raise ts.error(
                f"expected a statement keyword {sorted(_STATEMENT_KEYWORDS)},"
                f" found {tok.text or tok.kind!r}"
            )
        ts.next()
        if tok.text == "index":
            for name in ts.separated(lambda: _name_token(ts, "an index name").text):
                if name in theory.signatures:
                    raise ts.error(f"duplicate index {name!r}")
                theory.indices += (name,)
                theory.signatures[name] = Signature()
        elif tok.text == "signature":
            index = _name_token(ts, "an index name").text
            if index not in theory.signatures:
                raise ts.error(f"undeclared index {index!r}")
            theory.signatures[index] = _parse_signature_block(ts, theory.signatures[index])
        elif tok.text == "axiom":
            theory.axioms += (_labeled_formula(theory, ts),)
        elif tok.text == "bridge":
            declared_rules.append(_parse_bridge_rule(theory, ts))
        elif tok.text == "property":
            kind = ts.expect("ident").text
            arity = RelationProperty.ARITIES.get(kind)
            if arity is None:
                raise ts.error(f"unknown relation property {kind!r}")
            idxs = tuple(_name_token(ts, "an index name").text for _ in range(arity))
            for i in idxs:
                if i not in theory.signatures:
                    raise ts.error(f"undeclared index {i!r}")
            if len(set(idxs)) != len(idxs):
                raise ts.error(f"property {kind} needs distinct indices")
            properties.append(RelationProperty(kind, idxs))
    return _expand_properties(theory, declared_rules, properties)


def _expand_properties(
    theory: Theory, rules: Iterable[BridgeRule], properties: Sequence[RelationProperty]
) -> Theory:
    """theory with the declared rules, then each property tag's bridge
    rules, and the tags themselves; the one place tags are expanded."""
    from . import relations  # late import: relations builds on this module

    theory.properties = tuple(properties)
    expanded = (r for p in properties for r in relations.bridge_rules_for_property(p))
    theory.rules = (*rules, *expanded)
    return theory


_SYMBOL_NAMES = {"const": "a constant name", "func": "a function name", "pred": "a predicate name"}


def _parse_signature_block(ts: TokenStream, sig: Signature) -> Signature:
    """`{ [complete] (const NAME | func NAME/N | pred NAME/N) (, ...)* ; ... }`
    added to sig; a repeated entry collapses into one."""
    ts.expect("{")
    symbols = {"const": list(sig.consts), "func": list(sig.funcs), "pred": list(sig.preds)}
    complete = set(sig.complete)
    while not ts.accept("}"):
        is_complete = ts.accept("ident", "complete") is not None
        kind_tok = ts.next()
        kind = kind_tok.text
        if kind not in symbols:
            raise SyntaxError_(f"expected const/func/pred, found {kind!r}", kind_tok.line, kind_tok.col)
        while True:
            name = entry = _name_token(ts, _SYMBOL_NAMES[kind]).text
            if kind != "const":
                ts.expect("/")
                entry = (name, int(ts.expect("number").text))
                if kind == "func" and entry[1] < 1:
                    raise ts.error(f"function {name} must have arity >= 1")
            if entry not in symbols[kind]:
                symbols[kind].append(entry)
            if is_complete:
                complete.add((kind, name))
            if not ts.accept(","):
                break
        ts.expect(";")
    new_sig = Signature(*(tuple(symbols[k]) for k in ("const", "func", "pred")), frozenset(complete))
    names = [*new_sig.consts, *(f for f, _ in new_sig.funcs), *(p for p, _ in new_sig.preds)]
    if len(names) != len(set(names)):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ts.error(f"symbol declared twice in signature: {dup}")
    return new_sig


# ---------------------------------------------------------------------------
# Rendering (parse . render == id)
# ---------------------------------------------------------------------------


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, ArrowVar):
        suffix = f"@{t.label}" if t.label is not None else ""
        return f"{t.base}^{t.direction}{t.foreign}{suffix}"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, App):
        return f"{t.func}({', '.join(render_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


# binary connectives: precedence level and operator; quantifiers and their
# bodies sit below "->"
_BINARY = {Implies: (1, "->"), Or: (2, "|"), And: (3, "&")}


def render_formula(f: Formula) -> str:
    """Text that parses back to f, with only the parentheses it needs.
    The walk uses an explicit stack, because the parser accepts & chains
    nested deeper than a recursive renderer can follow: it holds the
    (formula, context precedence) pairs and closing texts still to be
    written, the next one on top."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        cls = type(g)
        if cls is Not:
            out.append("~")
            stack.append((g.body, 4))
        elif cls is Forall or cls is Exists:
            if ctx > 0:
                out.append("(")
                stack.append(")")
            out.append(f"{'forall' if cls is Forall else 'exists'} {g.var}. ")
            stack.append((g.body, 0))
        elif cls in _BINARY:
            prec, op = _BINARY[cls]
            if ctx > prec:
                out.append("(")
                stack.append(")")
            # right-associative: the left child must bind strictly tighter
            stack += [(g.rhs, prec), f" {op} ", (g.lhs, prec + 1)]
        elif cls is Atom:
            out.append(f"{g.pred}({', '.join(map(render_term, g.args))})" if g.args else g.pred)
        elif cls is Eq:
            out.append(f"{render_term(g.lhs)} = {render_term(g.rhs)}")
        elif cls is Falsum:
            out.append("false")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def render_labeled(lf: LabeledFormula) -> str:
    return f"{lf.index}: {render_formula(lf.formula)}"


def render_bridge_rule(rule: BridgeRule) -> str:
    head = ", ".join(render_labeled(p) for p in rule.premises)
    if head:
        return f"{head} ==> {render_labeled(rule.conclusion)}"
    return f"==> {render_labeled(rule.conclusion)}"


def render_theory(theory: Theory) -> str:
    """Serialize a theory back to its file grammar; property-expanded rules
    are emitted via their `property` statement, not duplicated."""
    lines: list[str] = []
    if theory.indices:
        lines.append("index " + ", ".join(theory.indices))
    for index in theory.indices:
        sig = theory.signatures[index]
        if not (sig.consts or sig.funcs or sig.preds):
            continue
        parts: list[str] = []
        plain_consts = [c for c in sig.consts if not sig.is_complete("const", c)]
        comp_consts = [c for c in sig.consts if sig.is_complete("const", c)]
        if plain_consts:
            parts.append("const " + ", ".join(plain_consts) + ";")
        if comp_consts:
            parts.append("complete const " + ", ".join(comp_consts) + ";")
        plain_funcs = [f"{f}/{n}" for f, n in sig.funcs if not sig.is_complete("func", f)]
        comp_funcs = [f"{f}/{n}" for f, n in sig.funcs if sig.is_complete("func", f)]
        if plain_funcs:
            parts.append("func " + ", ".join(plain_funcs) + ";")
        if comp_funcs:
            parts.append("complete func " + ", ".join(comp_funcs) + ";")
        plain_preds = [f"{p}/{n}" for p, n in sig.preds if not sig.is_complete("pred", p)]
        comp_preds = [f"{p}/{n}" for p, n in sig.preds if sig.is_complete("pred", p)]
        if plain_preds:
            parts.append("pred " + ", ".join(plain_preds) + ";")
        if comp_preds:
            parts.append("complete pred " + ", ".join(comp_preds) + ";")
        lines.append(f"signature {index} {{ " + " ".join(parts) + " }")
    for ax in theory.axioms:
        lines.append(f"axiom {render_labeled(ax)}")
    for rule in theory.rules:
        if rule.origin is None:
            lines.append("bridge " + render_bridge_rule(rule))
    for prop in theory.properties:
        lines.append(f"property {prop.kind} " + " ".join(prop.indices))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Traversal core: the one place that knows which fields of a node hold its
# subformulas and terms.  `type(f) is` tests, not isinstance chains, keep
# the walkers cheap on the model-search hot path.
# ---------------------------------------------------------------------------


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas: the body of a negation or quantifier, both
    sides of a binary connective, none for atoms, equations and falsum."""
    cls = type(f)
    if cls is And or cls is Or or cls is Implies:
        return (f.lhs, f.rhs)
    if cls is Not or cls is Forall or cls is Exists:
        return (f.body,)
    return ()


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """The node f with `kids` (as many as `children(f)`) in place of its
    immediate subformulas; leaves come back unchanged."""
    cls = type(f)
    if cls is And or cls is Or or cls is Implies or cls is Not:
        return cls(*kids)
    if cls is Forall or cls is Exists:
        return cls(f.var, *kids)
    if isinstance(f, Formula):
        return f
    raise TypeError(f"not a formula: {f!r}")


def atom_terms(f: Formula) -> tuple[Term, ...]:
    """Argument terms of an atom, both sides of an equation; none for the
    other formulas.  Anything that is not a formula is a TypeError."""
    cls = type(f)
    if cls is Atom:
        return f.args
    if cls is Eq:
        return (f.lhs, f.rhs)
    if isinstance(f, Formula):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def subterms(terms: Iterable[Term]) -> list[Term]:
    """The given terms and every term nested inside them."""
    out = list(terms)
    for t in out:  # the list grows while it is read
        if type(t) is App:
            out.extend(t.args)
    return out


# ---------------------------------------------------------------------------
# Syntactic analysis
# ---------------------------------------------------------------------------


def term_free_plain_vars(t: Term) -> set[str]:
    return {s.name for s in subterms((t,)) if type(s) is Var}


def term_arrow_vars(t: Term) -> set[ArrowVar]:
    return {s for s in subterms((t,)) if type(s) is ArrowVar}


def free_plain_vars(f: Formula) -> set[str]:
    """Free plain variables; arrow variables are never bound and not included.
    Walked with an explicit stack, as arrow_vars is; each entry carries the
    variables bound above it."""
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        cls = type(g)
        if cls is Forall or cls is Exists:
            stack.append((g.body, bound | {g.var}))
            continue
        stack.extend((h, bound) for h in children(g))
        out |= {t.name for t in subterms(atom_terms(g)) if type(t) is Var} - bound
    return out


def arrow_vars(f: Formula) -> set[ArrowVar]:
    """All arrow variables occurring in f (they are free wherever they occur)."""
    out: set[ArrowVar] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kids = children(g)
        if kids:
            stack.extend(kids)
            continue
        for t in atom_terms(g):
            if type(t) is ArrowVar:
                out.add(t)
            elif type(t) is App:
                out |= term_arrow_vars(t)
    return out


def is_closed(f: Formula) -> bool:
    """Closed = no free plain variables and no arrow variables."""
    return not free_plain_vars(f) and not arrow_vars(f)


def substitute_term(t: Term, var: str, replacement: Term) -> Term:
    """t with `replacement` for the variable `var`; t itself if var does
    not occur in it."""
    if type(t) is Var:
        return replacement if t.name == var else t
    if type(t) is App:
        args = tuple(substitute_term(a, var, replacement) for a in t.args)
        if any(map(is_not, args, t.args)):
            return App(t.func, args)
    return t  # constants and arrow variables are untouched: x^>j is not x


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Replace free occurrences of the plain variable `var` by `replacement`.

    Raises ValueError if a variable of the replacement would be captured by
    a quantifier of the target formula.
    """
    repl_vars = term_free_plain_vars(replacement)
    # The parser accepts & chains longer than a recursive walk can follow,
    # so the walk uses a stack: pre-order onto a list, then rebuilt in
    # reverse, each node taking its rebuilt children off `done`.
    # Unchanged subformulas come back as the same object, so a changed
    # quantifier body is one where `var` occurs free.  The connectives are
    # spelled out, not reached through children/rebuild, because this is
    # the tableau's gamma rule.
    order = []
    stack = [f]
    while stack:
        g = stack.pop()
        order.append(g)
        cls = type(g)
        if cls is And or cls is Or or cls is Implies:
            stack.append(g.rhs)
            stack.append(g.lhs)
        elif cls is Not or ((cls is Forall or cls is Exists) and g.var != var):
            stack.append(g.body)
    done: list[Formula] = []
    captured = None
    for g in reversed(order):
        cls = type(g)
        if cls is Atom or cls is Eq:
            terms = atom_terms(g)
            new = [substitute_term(t, var, replacement) for t in terms]
            if any(map(is_not, new, terms)):
                g = Atom(g.pred, tuple(new)) if cls is Atom else Eq(*new)
        elif cls is And or cls is Or or cls is Implies:
            lhs = done.pop()
            rhs = done.pop()
            if lhs is not g.lhs or rhs is not g.rhs:
                g = cls(lhs, rhs)
        elif cls is Not:
            body = done.pop()
            if body is not g.body:
                g = Not(body)
        elif (cls is Forall or cls is Exists) and g.var != var:
            body = done.pop()
            if body is not g.body:
                if g.var in repl_vars:
                    captured = g.var  # reverse pre-order: the outermost comes last
                g = cls(g.var, body)
        elif not isinstance(g, Formula):
            raise TypeError(f"not a formula: {g!r}")
        done.append(g)
    if captured is not None:
        raise ValueError(
            f"substitution of {render_term(replacement)} for {var} would capture {captured}"
        )
    return done[0]


def _term_symbols(terms: Iterable[Term]) -> set[tuple[str, str]]:
    out: set[tuple[str, str]] = set()
    for t in subterms(terms):
        if type(t) is Const:
            out.add(("const", t.name))
        elif type(t) is App:
            out.add(("func", t.func))
    return out


def formula_symbols(f: Formula) -> set[tuple[str, str]]:
    """All (kind, name) signature symbols occurring in f, walked with an
    explicit stack as arrow_vars is."""
    out: set[tuple[str, str]] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kids = children(g)
        if kids:
            stack.extend(kids)
            continue
        out |= _term_symbols(atom_terms(g))
        if type(g) is Atom:
            out.add(("pred", g.pred))
    return out


def is_complete_term(sig: Signature, t: Term) -> bool:
    return all(sig.is_complete(kind, name) for kind, name in _term_symbols((t,)))


def is_complete_formula(sig: Signature, f: Formula) -> bool:
    """True when every signature symbol of f is complete.

    Equality, falsum, variables and arrow variables belong to every complete
    sub-language: their satisfaction never varies across local models.
    """
    return all(sig.is_complete(kind, name) for kind, name in formula_symbols(f))


def classify_variables(
    lf: LabeledFormula, sig: Signature | None = None
) -> tuple[set[str], set[ArrowVar], bool, bool]:
    """(free plain names, arrow variables, closed, complete) of a labeled
    formula.  x, x^>j and x^<j are distinct: only x can be bound.  The
    complete flag needs the index's signature; without one only formulas
    built purely from equality, falsum and variables count as complete."""
    free = free_plain_vars(lf.formula)
    arrows = arrow_vars(lf.formula)
    closed = not free and not arrows
    if sig is None:
        complete = not formula_symbols(lf.formula)
    else:
        complete = is_complete_formula(sig, lf.formula)
    return free, arrows, closed, complete


def render(value) -> str:
    """Generic renderer over theories, rules, labeled formulas, formulas and
    terms; parse of the result reproduces the value."""
    if isinstance(value, Theory):
        return render_theory(value)
    if isinstance(value, BridgeRule):
        return render_bridge_rule(value)
    if isinstance(value, LabeledFormula):
        return render_labeled(value)
    if isinstance(value, (Var, ArrowVar, Const, App)):
        return render_term(value)
    return render_formula(value)
