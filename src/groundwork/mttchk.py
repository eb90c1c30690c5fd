"""Checker for a three-sorted language of sets, classes, and collections.

Formulas use set membership x ∈ y, class membership x ∈₁ 𝒜, collection
membership 𝒜 ∈₂ 𝔅, equality of set terms, the usual connectives, and
quantifiers that may carry a set-term bound (∀x∈t).  The module decides:

* is_delta0      — every quantifier is bounded by a set term;
* is_set_theoretic — quantifiers range over sets only (higher-sort
  variables may occur free);
* abstract_wf    — well-formedness and resulting sort of an abstract
  {⟨v₁,…,vₙ⟩ | Ψ}, plus the reduction of ⟨A₁,…,Aₙ⟩ ∈ {…|Ψ} to the
  substituted body;
* separation_instance — whether a separation instance is licensed under
  bounded separation, citing each unbounded quantifier otherwise.

Concrete syntax accepts Unicode (∀ ∃ ¬ ∧ ∨ → ↔ ∈ ∈₁ ∈₂ ⊆ × 𝒫 ⟨ ⟩) and
ASCII alternatives (forall, exists, not, and, or, ->, <->, in, in1, in2,
sub, *, P, <, >).  The grammar (EBNF; see also docs/mtt-grammar.ebnf):

    formula  = iff ;
    iff      = impl , { ("↔" | "<->") , impl } ;
    impl     = disj , [ ("→" | "->") , impl ] ;
    disj     = conj , { ("∨" | "or") , conj } ;
    conj     = neg  , { ("∧" | "and") , neg } ;
    neg      = ("¬" | "not") , neg | quant | atom ;
    quant    = ("∀" | "forall" | "∃" | "exists") , var ,
               [ ":" , sort ] , [ ("∈" | "in") , term ] , "." , formula ;
    atom     = "(" , formula , ")"
             | term , rel , term ;
    rel      = "=" | "∈" | "in" | "∈₁" | "in1" | "∈₂" | "in2"
             | "⊆" | "sub" ;
    term     = factor , { ("×" | "*") , factor } ;
    factor   = name | ("𝒫" | "P") , "(" , term , ")"
             | ("⟨" | "<") , term , { "," , term } , ("⟩" | ">")
             | "{" , var , ("∈" | "in") , term , "|" , formula , "}"
             | "{" , tuplevars , "|" , formula , "}" ;
    tuplevars= var , [ ":" , sort ]
             | ("⟨" | "<") , var , [ ":" , sort ] ,
               { "," , var , [ ":" , sort ] } , ("⟩" | ">") ;
    sort     = "Set" | "Class" | "Collection" ;

Variables are Set-sorted unless annotated at their binder; free
variables get their sort inferred from use (conflicts are sort errors).
Each variable name has a single sort per formula (no shadowing).
t ⊆ u is sugar, expanded by sort level wherever it occurs, inside
separation and abstract bodies too; ∀x (x∈t → φ) and ∃x (x∈t ∧ φ) are
recognized as bounded-quantifier sugar by normalize_bounds, which also
rewrites them inside terms.  Every walk over the AST takes a node's
sub-nodes from one table, _CHILDREN.
"""
import itertools
import re
from dataclasses import dataclass, field, replace

from . import Failure, InputError

SET, CLASS, COLLECTION = "Set", "Class", "Collection"
_LEVEL = {SET: 0, CLASS: 1, COLLECTION: 2}


class ParseError(InputError):
    pass


class SortError(Failure):
    pass


class AbstractError(Failure):
    pass


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Pow:
    arg: object


@dataclass(frozen=True)
class CProd:
    left: object
    right: object


@dataclass(frozen=True)
class Pair:
    items: tuple


@dataclass(frozen=True)
class Sep:
    """Separation term {v ∈ bound | body}."""
    var: Var
    bound: object
    body: object


@dataclass(frozen=True)
class AbstractTerm:
    """Rule-6 abstract {⟨v₁,…,vₙ⟩ | body}."""
    variables: tuple
    body: object


@dataclass(frozen=True)
class Membership:
    kind: str           # "in" | "in1" | "in2"
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class BinOp:
    op: str             # "and" | "or" | "->" | "<->"
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    q: str              # "forall" | "exists"
    var: Var
    bound: object       # set term or None
    body: object


@dataclass(frozen=True)
class Subset:
    """t ⊆ u as parsed; expanded by sort level before parsing returns."""
    var: Var            # the fresh variable of the expansion
    left: object
    right: object


# Sub-node fields of each node class, in visiting order.  Binder variables
# are included, and a quantifier's body comes before its bound.  Var and
# Const are leaves.
_CHILDREN = {
    Pow: ("arg",), CProd: ("left", "right"), Pair: ("items",),
    Sep: ("var", "bound", "body"), AbstractTerm: ("variables", "body"),
    Membership: ("left", "right"), Eq: ("left", "right"), Not: ("body",),
    BinOp: ("left", "right"), Quant: ("var", "body", "bound"),
    Subset: ("var", "left", "right"),
}


def _nodes(node):
    """Every node of the tree, in pre-order."""
    yield node
    for name in _CHILDREN.get(type(node), ()):
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if child is not None:
                yield from _nodes(child)


def _map(node, fn):
    """node rebuilt with fn applied to each sub-node."""
    def each(value):
        if isinstance(value, tuple):
            return tuple(fn(x) for x in value)
        return None if value is None else fn(value)
    return replace(node, **{name: each(getattr(node, name))
                            for name in _CHILDREN.get(type(node), ())})


@dataclass(frozen=True, eq=False)
class Formula:
    """A parsed formula (or abstract term) plus its variable sorts."""
    root: object
    sorts: dict = field(compare=False)

    def __eq__(self, other):
        return isinstance(other, Formula) and self.root == other.root and \
            dict(self.sorts) == dict(other.sorts)


# -- sorts -------------------------------------------------------------------


def _is_product(sort) -> bool:
    return isinstance(sort, tuple)


def sort_level(sort) -> int:
    if _is_product(sort):
        return max(sort_level(s) for s in sort)
    return _LEVEL[sort]


def sort_name(sort) -> str:
    if _is_product(sort):
        return "(%s)" % " × ".join(sort_name(s) for s in sort)
    return sort


class _SortEnv:
    """Single-namespace variable sorts with inference by demand."""

    def __init__(self):
        self.sorts = {}

    def declare(self, name, sort):
        if name in self.sorts and self.sorts[name] != sort:
            raise SortError("conflicting sorts for %r: %s vs %s"
                            % (name, sort_name(self.sorts[name]),
                               sort_name(sort)))
        self.sorts[name] = sort

    def demand_level(self, name, level):
        want = {0: SET, 1: CLASS, 2: COLLECTION}[level]
        if name not in self.sorts:
            self.sorts[name] = want
        elif sort_level(self.sorts[name]) != level:
            raise SortError(
                "variable %r used at sort level %d but has sort %s"
                % (name, level, sort_name(self.sorts[name])))


def term_level(term, env: _SortEnv, demand=None) -> int:
    """Sort level of a term, inferring unknown variable sorts."""
    if isinstance(term, Var):
        if demand is not None:
            env.demand_level(term.name, demand)
        if term.name not in env.sorts:
            env.sorts[term.name] = SET
        return sort_level(env.sorts[term.name])
    if isinstance(term, Const):
        return 0
    if isinstance(term, (Pow, CProd)):
        args = [term.arg] if isinstance(term, Pow) else \
            [term.left, term.right]
        for a in args:
            if term_level(a, env, demand=0) != 0:
                raise SortError("powerset/product argument must be a set")
        return 0
    if isinstance(term, Pair):
        return max(term_level(t, env) for t in term.items)
    if isinstance(term, Sep):
        env.declare(term.var.name, SET)
        if term_level(term.bound, env, demand=0) != 0:
            raise SortError("separation bound must be a set term")
        _check_sorts(term.body, env)
        return 0
    if isinstance(term, AbstractTerm):
        for v in term.variables:
            if v.name not in env.sorts:
                env.sorts[v.name] = SET
        _check_sorts(term.body, env)
        inner = max(sort_level(env.sorts[v.name]) for v in term.variables)
        if inner >= 2:
            raise SortError("no sort above Collection for this abstract")
        return inner + 1
    raise SortError("unknown term %r" % (term,))


def _check_sorts(node, env: _SortEnv):
    if isinstance(node, Subset):
        return      # unexpanded ⊆ sugar; checked after expansion
    if isinstance(node, Membership):
        want = {"in": (0, 0), "in1": (0, 1), "in2": (1, 2)}[node.kind]
        lv = term_level(node.left, env, demand=want[0]
                        if isinstance(node.left, Var) else None)
        rv = term_level(node.right, env, demand=want[1]
                        if isinstance(node.right, Var) else None)
        if (lv, rv) != want:
            raise SortError(
                "%s relates levels %r, got (%d, %d)"
                % (node.kind, want, lv, rv))
    elif isinstance(node, Eq):
        if term_level(node.left, env) != 0 or \
                term_level(node.right, env) != 0:
            raise SortError("= is defined between set terms only")
    elif isinstance(node, Not):
        _check_sorts(node.body, env)
    elif isinstance(node, BinOp):
        _check_sorts(node.left, env)
        _check_sorts(node.right, env)
    elif isinstance(node, Quant):
        if node.bound is not None:
            if env.sorts.get(node.var.name, SET) != SET:
                raise SortError("bounded quantifier over non-set %r"
                                % node.var.name)
            if term_level(node.bound, env, demand=0) != 0:
                raise SortError("quantifier bound must be a set term")
        _check_sorts(node.body, env)
    else:
        raise SortError("unknown formula node %r" % (node,))


# -- tokenizer ---------------------------------------------------------------


_SYMBOLS = [
    ("∈₁", "in1"), ("∈₂", "in2"), ("<->", "<->"), ("->", "->"),
    ("↔", "<->"), ("→", "->"), ("∀", "forall"), ("∃", "exists"),
    ("¬", "not"), ("∧", "and"), ("∨", "or"), ("∈", "in"), ("⊆", "sub"),
    ("×", "*"), ("𝒫", "P"), ("⟨", "<"), ("⟩", ">"),
]
_PUNCT = set("()<>{}|,.:=*")
_WORDS = {"forall", "exists", "not", "and", "or", "in", "in1", "in2",
          "sub", "P"}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym, tok in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((tok, i))
                i += len(sym)
                break
        else:
            if ch in _PUNCT:
                tokens.append((ch, i))
                i += 1
            elif ch.isalnum() or ch == "_" or ord(ch) > 127:
                m = re.match(r"[^\W]+", text[i:], re.UNICODE)
                word = m.group(0) if m else ch
                j = i + len(word)
                tokens.append((word if word in _WORDS
                               else ("NAME", word), i))
                i = j
            else:
                raise ParseError("unexpected character %r at %d" % (ch, i))
    tokens.append(("EOF", len(text)))
    return tokens


# -- parser ------------------------------------------------------------------


_SORT_NAMES = {"Set": SET, "Class": CLASS, "Collection": COLLECTION}


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fresh = itertools.count()

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok, at = self.next()
        if tok != kind and not (kind == "NAME" and
                                isinstance(tok, tuple)):
            raise ParseError("expected %r at %d, found %r"
                             % (kind, at, tok))
        return tok

    def name(self):
        tok, at = self.next()
        if not isinstance(tok, tuple) or tok[0] != "NAME":
            raise ParseError("expected a name at %d, found %r" % (at, tok))
        return tok[1]

    # formula = iff
    def formula(self):
        left = self.impl()
        while self.peek() == "<->":
            self.next()
            left = BinOp("<->", left, self.impl())
        return left

    def impl(self):
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return BinOp("->", left, self.impl())
        return left

    def disj(self):
        left = self.conj()
        while self.peek() == "or":
            self.next()
            left = BinOp("or", left, self.conj())
        return left

    def conj(self):
        left = self.neg()
        while self.peek() == "and":
            self.next()
            left = BinOp("and", left, self.neg())
        return left

    def neg(self):
        if self.peek() == "not":
            self.next()
            return Not(self.neg())
        if self.peek() in ("forall", "exists"):
            return self.quant()
        return self.atom()

    def quant(self):
        q, _ = self.next()
        q = "forall" if q == "forall" else "exists"
        vname = self.name()
        sort = self._annotation() or SET
        bound = None
        if self.peek() == "in":
            self.next()
            bound = self.term()
        self.expect(".")
        body = self.formula()
        self._binders.append((vname, sort))
        return Quant(q, Var(vname), bound, body)

    def atom(self):
        if self.peek() == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        left = self.term()
        tok, at = self.next()
        if tok == "=":
            return Eq(left, self.term())
        if tok in ("in", "in1", "in2"):
            return Membership(tok, left, self.term())
        if tok == "sub":
            # expanded by sort level once sorts are known
            return Subset(Var("_v%d" % next(self.fresh)), left, self.term())
        raise ParseError("expected a relation at %d, found %r" % (at, tok))

    def term(self):
        t = self.factor()
        while self.peek() == "*":
            self.next()
            t = CProd(t, self.factor())
        return t

    def factor(self):
        tok, at = self.next()
        if tok == "P":
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Pow(t)
        if tok == "<":
            items = [self.term()]
            while self.peek() == ",":
                self.next()
                items.append(self.term())
            self.expect(">")
            return Pair(tuple(items))
        if tok == "{":
            return self.braces()
        if isinstance(tok, tuple) and tok[0] == "NAME":
            return Var(tok[1])
        raise ParseError("expected a term at %d, found %r" % (at, tok))

    def braces(self):
        # {v ∈ t | φ}  vs  {v | φ} / {⟨v,…⟩ | φ}
        if self.peek() == "<":
            self.next()
            vs = [self._abs_var()]
            while self.peek() == ",":
                self.next()
                vs.append(self._abs_var())
            self.expect(">")
            self.expect("|")
            body = self.formula()
            self.expect("}")
            return AbstractTerm(tuple(v for v, _ in vs), body)
        vname = self.name()
        sort = self._annotation()
        if sort is None and self.peek() == "in":
            self.next()
            bound = self.term()
            self.expect("|")
            body = self.formula()
            self.expect("}")
            return Sep(Var(vname), bound, body)
        self.expect("|")
        body = self.formula()
        self.expect("}")
        if sort is not None:
            self._binders.append((vname, sort))
        return AbstractTerm((Var(vname),), body)

    def _abs_var(self):
        vname = self.name()
        sort = self._annotation() or SET
        self._binders.append((vname, sort))
        return Var(vname), sort

    def _annotation(self):
        """The sort of an optional `:Sort` annotation, or None."""
        if self.peek() != ":":
            return None
        self.next()
        sname = self.name()
        if sname not in _SORT_NAMES:
            raise ParseError("unknown sort %r" % sname)
        return _SORT_NAMES[sname]

    def run(self, entry):
        self._binders = []
        root = entry(self)
        self.expect("EOF")
        env = _SortEnv()
        for vname, sort in self._binders:
            env.declare(vname, sort)
        is_term = isinstance(root, (Sep, AbstractTerm, Var, Const, Pow,
                                    CProd, Pair))
        # infer free-variable sorts before expanding ⊆, which depends
        # on the sort level of its operands
        if any(isinstance(n, Subset) for n in _nodes(root)):
            if is_term:
                term_level(root, env)
            else:
                _check_sorts(root, env)
            root = self._expand_subsets(root, env)
        if is_term:
            term_level(root, env)
        else:
            _check_sorts(root, env)
        return Formula(root, dict(env.sorts))

    def _expand_subsets(self, node, env):
        """node with every ⊆, at any depth, replaced by its expansion."""
        node = _map(node, lambda child: self._expand_subsets(child, env))
        if not isinstance(node, Subset):
            return node
        lv = term_level(node.left, env)
        rv = term_level(node.right, env)
        if lv != rv:
            raise SortError("⊆ needs both sides at the same level")
        var, left, right = node.var, node.left, node.right
        if lv == 0:
            # set inclusion is bounded: ∀v∈left. v∈right
            env.declare(var.name, SET)
            return Quant("forall", var, left, Membership("in", var, right))
        env.declare(var.name, SET if lv == 1 else CLASS)
        inner = "in1" if lv == 1 else "in2"
        return Quant("forall", var, None,
                     BinOp("->", Membership(inner, var, left),
                           Membership(inner, var, right)))


def parse_formula(text: str) -> Formula:
    return _Parser(text).run(_Parser.formula)


def parse_term(text: str) -> Formula:
    """Parse a term (e.g. an abstract); sorts are inferred as usual."""
    return _Parser(text).run(_Parser.term)


# -- printing ----------------------------------------------------------------


def _print_term(t, sorts) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Pow):
        return "𝒫(%s)" % _print_term(t.arg, sorts)
    if isinstance(t, CProd):
        return "%s × %s" % (_print_term(t.left, sorts),
                            _print_term(t.right, sorts))
    if isinstance(t, Pair):
        return "⟨%s⟩" % ", ".join(_print_term(x, sorts) for x in t.items)
    if isinstance(t, Sep):
        return "{%s ∈ %s | %s}" % (t.var.name,
                                   _print_term(t.bound, sorts),
                                   _print_node(t.body, sorts))
    if isinstance(t, AbstractTerm):
        vs = ", ".join(
            v.name if sorts.get(v.name, SET) == SET
            else "%s:%s" % (v.name, sorts[v.name])
            for v in t.variables)
        if len(t.variables) > 1:
            vs = "⟨%s⟩" % vs
        elif sorts.get(t.variables[0].name, SET) != SET:
            vs = "%s:%s" % (t.variables[0].name,
                            sorts[t.variables[0].name])
        else:
            vs = t.variables[0].name
        return "{%s | %s}" % (vs, _print_node(t.body, sorts))
    raise ValueError("unknown term %r" % (t,))


_REL = {"in": "∈", "in1": "∈₁", "in2": "∈₂"}
_OPS = {"and": "∧", "or": "∨", "->": "→", "<->": "↔"}


def _print_node(n, sorts) -> str:
    if isinstance(n, Membership):
        return "%s %s %s" % (_print_term(n.left, sorts), _REL[n.kind],
                             _print_term(n.right, sorts))
    if isinstance(n, Eq):
        return "%s = %s" % (_print_term(n.left, sorts),
                            _print_term(n.right, sorts))
    if isinstance(n, Not):
        return "¬(%s)" % _print_node(n.body, sorts)
    if isinstance(n, BinOp):
        # quantifier scope is maximal, so quantified operands need parens
        def wrap(x):
            s = _print_node(x, sorts)
            return "(%s)" % s if isinstance(x, Quant) else s
        return "(%s %s %s)" % (wrap(n.left), _OPS[n.op], wrap(n.right))
    if isinstance(n, Quant):
        head = "∀" if n.q == "forall" else "∃"
        v = n.var.name
        if sorts.get(v, SET) != SET:
            v = "%s:%s" % (v, sorts[v])
        if n.bound is not None:
            v = "%s ∈ %s" % (v, _print_term(n.bound, sorts))
        return "%s%s. %s" % (head, v, _print_node(n.body, sorts))
    return _print_term(n, sorts)


def to_text(F: Formula) -> str:
    return _print_node(F.root, F.sorts)


# -- checks ------------------------------------------------------------------


def _walk_quantifiers(node):
    """Every Quant node in pre-order, including those inside terms."""
    return (n for n in _nodes(node) if isinstance(n, Quant))


def _used_vars(node):
    return (n.name for n in _nodes(node) if isinstance(n, Var))


def is_delta0(F: Formula) -> bool:
    """True iff every quantifier carries a set-term bound.  Raises
    SortError if any non-Set-sorted variable occurs."""
    for name in set(_used_vars(F.root)):
        if F.sorts.get(name, SET) != SET:
            raise SortError("Δ0 applies to set formulas only; %r has "
                            "sort %s" % (name, F.sorts[name]))
    return all(q.bound is not None for q in _walk_quantifiers(F.root))


def is_set_theoretic(F: Formula) -> bool:
    """True iff every quantified variable has sort Set (free class or
    collection variables are allowed)."""
    return all(F.sorts.get(q.var.name, SET) == SET
               for q in _walk_quantifiers(F.root))


@dataclass(frozen=True)
class AbstractSort:
    level: str          # Class | Collection
    components: tuple   # variable sorts

    def __str__(self):
        if len(self.components) == 1:
            return self.level
        return "%s of %d-tuples" % (self.level, len(self.components))


def abstract_wf(F: Formula) -> AbstractSort:
    """Sort of a rule-6 abstract; rejects non-set-theoretic bodies."""
    a = F.root
    if not isinstance(a, AbstractTerm):
        raise AbstractError("not an abstract")
    body = Formula(a.body, F.sorts)
    if not is_set_theoretic(body):
        raise AbstractError("abstract body quantifies over a higher sort")
    comps = tuple(F.sorts.get(v.name, SET) for v in a.variables)
    level = max(sort_level(s) for s in comps)
    if level >= 2:
        raise AbstractError("no sort above Collection for this abstract")
    return AbstractSort(CLASS if level == 0 else COLLECTION, comps)


def substitute(node, mapping):
    """Capture-free substitution of terms for free variables.  Variable
    names are unique per formula, so renaming is never needed."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, AbstractTerm):
        names = {v.name for v in node.variables}
        inner = {k: t for k, t in mapping.items() if k not in names}
        return replace(node, body=substitute(node.body, inner))
    if isinstance(node, (Sep, Quant)):
        inner = {k: t for k, t in mapping.items() if k != node.var.name}
        bound = None if node.bound is None else \
            substitute(node.bound, mapping)
        return replace(node, bound=bound, body=substitute(node.body, inner))
    return _map(node, lambda child: substitute(child, mapping))


def rule6_reduce(abstract: Formula, args) -> Formula:
    """⟨A₁,…,Aₙ⟩ ∈ {⟨v₁,…,vₙ⟩ | Ψ}  ⇝  Ψ(A₁,…,Aₙ) (rule 6′).

    args are Formula-wrapped terms (abstracts, variables, or set terms);
    mixed tuples of abstracts and variables are accepted."""
    a = abstract.root
    if not isinstance(a, AbstractTerm):
        raise AbstractError("not an abstract")
    sort = abstract_wf(abstract)
    if len(args) != len(a.variables):
        raise AbstractError("expected %d components, got %d"
                            % (len(a.variables), len(args)))
    sorts = dict(abstract.sorts)
    mapping = {}
    for v, want, arg in zip(a.variables, sort.components, args):
        env = _SortEnv()
        env.sorts.update(arg.sorts)
        got = term_level(arg.root, env)
        if got != sort_level(want):
            raise AbstractError(
                "component for %r has level %d, expected %s"
                % (v.name, got, sort_name(want)))
        mapping[v.name] = arg.root
        for k, s in arg.sorts.items():
            if sorts.get(k, s) != s:
                raise SortError("conflicting sorts for %r" % k)
            sorts[k] = s
        sorts.pop(v.name, None)
    return Formula(substitute(a.body, mapping), sorts)


def normalize_bounds(F: Formula) -> Formula:
    """Rewrite the sugar forms ∀x.(x∈t → φ) and ∃x.(x∈t ∧ φ) into the
    primitive bounded quantifiers, when x is not free in t, wherever they
    occur (inside separation and abstract bodies too)."""
    def rec(node):
        node = _map(node, rec)
        if isinstance(node, Quant) and node.bound is None and \
                F.sorts.get(node.var.name, SET) == SET:
            body = node.body
            op = "->" if node.q == "forall" else "and"
            if isinstance(body, BinOp) and body.op == op and \
                    isinstance(body.left, Membership) and \
                    body.left.kind == "in" and \
                    body.left.left == node.var and \
                    node.var.name not in set(_used_vars(body.left.right)):
                return replace(node, bound=body.left.right, body=body.right)
        return node
    return Formula(rec(F.root), dict(F.sorts))


@dataclass(frozen=True)
class SeparationVerdict:
    licensed: bool
    unbounded: tuple    # printed unbounded quantifiers

    def report(self):
        if self.licensed:
            return "licensed: all quantifiers bounded"
        return "refused: unbounded " + "; ".join(self.unbounded)


def separation_instance(bound: Formula, F: Formula) -> SeparationVerdict:
    """Bounded-separation check for {x ∈ bound | F}: licensed iff the
    body is Δ0; otherwise cites each unbounded quantifier."""
    if term_level(bound.root, _sort_env_of(bound)) != 0:
        raise SortError("separation bound must be a set term")
    bad = []
    for q in _walk_quantifiers(F.root):
        if q.bound is None:
            head = "∀" if q.q == "forall" else "∃"
            sort = F.sorts.get(q.var.name, SET)
            bad.append("%s%s%s" % (head, q.var.name,
                                   "" if sort == SET else ":" + sort))
    return SeparationVerdict(not bad, tuple(bad))


def _sort_env_of(F: Formula) -> _SortEnv:
    env = _SortEnv()
    env.sorts.update(F.sorts)
    return env
