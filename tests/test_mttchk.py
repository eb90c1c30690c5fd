"""Tests for the three-sorted formula checker.

The Δ0 oracle is an independent recursion over the AST implementing the
textbook inductive definition (atoms are Δ0; connectives preserve Δ0;
only bounded quantifiers preserve Δ0), compared against the library on
1000 seeded random formulas.  The AST walks, which take their sub-nodes
from one child table, are compared with per-class reference recursions
(ref_*) on the same formulas and on formulas with separation and
abstract terms; ⊆ is checked at every term position against its
expansion written out by hand.
"""
import dataclasses
import itertools
import random
from collections import Counter

import pytest

from groundwork.mttchk import (AbstractError, AbstractTerm, BinOp, CProd,
                               Eq, Formula, Membership, Not, Pair,
                               ParseError, Pow, Quant, Sep, SortError,
                               Subset, Var, _Parser, _SortEnv,
                               _used_vars, _walk_quantifiers, abstract_wf,
                               is_delta0, is_set_theoretic,
                               normalize_bounds, parse_formula, parse_term,
                               rule6_reduce, separation_instance,
                               substitute, term_level, to_text)

R_N_FORMULA = (
    "∃n∈N. ∀y∈𝒫(N×R). (y∈V ↔ "
    "((∀p∈y. ∃a∈{x∈N | x∈n}. ∃b∈R. p = ⟨a,b⟩)"
    " ∧ (∀a2∈{x2∈N | x2∈n}. ∃b2∈R. ⟨a2,b2⟩∈y)"
    " ∧ (∀a3∈{x3∈N | x3∈n}. ∀b3∈R. ∀c∈R."
    " ((⟨a3,b3⟩∈y ∧ ⟨a3,c⟩∈y) → b3 = c))))")

ITERATED_POWERSET = (
    "exists f. (forall p in f. exists i in n. exists u. p = <i,u>)"
    " and (forall i in n. forall u. forall w."
    " ((<i,u> in f and <i,w> in f) -> u = w))")


# -- parsing -----------------------------------------------------------------


def test_parse_basic_and_unicode_ascii_equivalence():
    a = parse_formula("∀x∈A. x=x")
    b = parse_formula("forall x in A. x = x")
    assert a == b
    assert isinstance(a.root, Quant) and a.root.bound is not None


def test_parse_unbounded_exists():
    f = parse_formula("∃P1. ∀x. (x∈P1 ↔ x⊆N)")
    assert isinstance(f.root, Quant) and f.root.bound is None
    assert not is_delta0(f)
    assert is_set_theoretic(f)


def test_parse_class_sorted_quantifier():
    f = parse_formula("∀X:Class. X∈₂B0")
    assert f.sorts["X"] == "Class"
    assert f.sorts["B0"] == "Collection"
    assert not is_set_theoretic(f)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("forall x in A x = x")     # missing dot
    assert "at" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula("x ∈")
    with pytest.raises(ParseError):
        parse_formula("forall x:Nope. x = x")


def test_sort_errors():
    with pytest.raises(SortError):
        parse_formula("forall X:Class. X = X")       # no class identity
    with pytest.raises(SortError):
        parse_formula("x in y and x in1 y")          # y both Set and Class
    with pytest.raises(SortError):
        parse_formula("forall X:Class in A. X in2 B")  # bound on a class


def test_round_trip_on_pinned_formulas():
    for text in [R_N_FORMULA, ITERATED_POWERSET,
                 "forall x. (x in1 A1 -> x in1 B1)",
                 "∀X:Class. (X∈₂A2 → X∈₂B2)",
                 "not forall x. (x = x or exists y in x. y in x)"]:
        f = parse_formula(text)
        printed = to_text(f)
        assert parse_formula(printed) == f
        assert to_text(parse_formula(printed)) == printed


# -- Δ0 and set-theoreticity ---------------------------------------------------


def test_rn_formula_is_delta0():
    f = parse_formula(R_N_FORMULA)
    assert is_delta0(f)


def test_unbounded_and_bounded_pinned():
    assert not is_delta0(parse_formula("∃P1. ∀x. (x∈P1 ↔ x⊆N)"))
    assert is_delta0(parse_formula("∀x∈A. ∃y∈B. ⟨x,y⟩∈F"))


def test_delta0_rejects_higher_sorts():
    with pytest.raises(SortError):
        is_delta0(parse_formula("forall x. x in1 A1"))


def test_class_inclusion_set_theoretic_collection_inclusion_not():
    assert is_set_theoretic(
        parse_formula("forall x. (x in1 A1 -> x in1 B1)"))
    assert not is_set_theoretic(
        parse_formula("forall X:Class. (X in2 A2 -> X in2 B2)"))
    assert is_set_theoretic(parse_formula("forall x in A. x = x"))


def test_subset_sugar_expands_by_level():
    f = parse_formula("A sub B")            # sets: bounded, Δ0
    assert is_delta0(f)
    g = parse_formula("x in1 A1 and x in1 B1 and A1 sub B1")
    assert is_set_theoretic(g)              # unbounded set quantifier only
    h = parse_formula("A2 in2 F2 and A2 in2 G2 and F2 sub G2")
    assert not is_set_theoretic(h)          # quantifies over classes


# -- abstracts -----------------------------------------------------------------


def test_abstract_intersection_is_class():
    a = parse_term("{x | x in1 A3 and x in1 B3}")
    assert str(abstract_wf(a)) == "Class"


def test_abstract_five_tuple():
    a = parse_term("{<o,m,d,c,e> | (forall t in m. t in m)"
                   " and (forall t2 in o. t2 in m)}")
    assert str(abstract_wf(a)) == "Class of 5-tuples"


def test_abstract_of_class_variable_is_collection():
    a = parse_term("{X:Class | forall x. (x in1 X -> x in1 A1)}")
    assert str(abstract_wf(a)) == "Collection"


def test_abstract_rejects_higher_sort_quantifier():
    a = parse_term("{x | forall Y:Class. x in1 Y}")
    with pytest.raises(AbstractError):
        abstract_wf(a)


def test_rule6_reduction_and_invariant():
    a = parse_term("{x | x in1 A3 and x in1 B3}")
    red = rule6_reduce(a, [parse_term("w")])
    assert to_text(red) == "(w ∈₁ A3 ∧ w ∈₁ B3)"
    assert is_set_theoretic(red)
    # mixed tuple: an abstract substituted into a class position
    b = parse_term("{X:Class | forall x. x in1 X}")
    red2 = rule6_reduce(b, [parse_term("{y | y in z}")])
    assert is_set_theoretic(red2)


def test_rule6_arity_and_sort_mismatch():
    a = parse_term("{<u,v> | u in v}")
    with pytest.raises(AbstractError):
        rule6_reduce(a, [parse_term("w")])
    b = parse_term("{X:Class | forall x. x in1 X}")
    with pytest.raises(AbstractError):
        rule6_reduce(b, [parse_term("w")])   # set term in class position


# -- sugar recognizer ----------------------------------------------------------


def test_normalize_bounds_recognizes_sugar():
    f = parse_formula("forall x. (x in A -> exists y. (y in B and x = y))")
    g = normalize_bounds(f)
    assert is_delta0(g)
    assert to_text(g) == "∀x ∈ A. ∃y ∈ B. x = y"


def test_normalize_bounds_respects_variable_capture():
    # the bound mentions the quantified variable: not sugar
    f = parse_formula("forall x. (x in x -> x = x)")
    g = normalize_bounds(f)
    assert not is_delta0(g)


# -- separation ----------------------------------------------------------------


def test_separation_rn_licensed():
    v = separation_instance(parse_term("P(P(N*R))"),
                            parse_formula(R_N_FORMULA))
    assert v.licensed
    assert v.report().startswith("licensed")


def test_separation_iterated_powerset_refused():
    v = separation_instance(parse_term("N"),
                            parse_formula(ITERATED_POWERSET))
    assert not v.licensed
    assert "∃f" in v.unbounded
    assert "∃u" in v.unbounded


def test_separation_bounded_body_licensed():
    v = separation_instance(parse_term("N"), parse_formula("x in n"))
    assert v.licensed


# -- random formulas vs independent oracle --------------------------------------


def oracle_delta0(node) -> bool:
    """Independent recursion: the inductive definition of Δ0."""
    if isinstance(node, (Membership, Eq)):
        return True
    if isinstance(node, Not):
        return oracle_delta0(node.body)
    if isinstance(node, BinOp):
        return oracle_delta0(node.left) and oracle_delta0(node.right)
    if isinstance(node, Quant):
        return node.bound is not None and oracle_delta0(node.body)
    raise AssertionError("unexpected node %r" % (node,))


def gen_formula(rng, depth, pool, fresh):
    if depth == 0 or rng.random() < 0.25:
        a, b = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.5:
            return Membership("in", Var(a), Var(b))
        return Eq(Var(a), Var(b))
    kind = rng.choice(["not", "bin", "bin", "forall", "exists",
                       "forall_b", "exists_b"])
    if kind == "not":
        return Not(gen_formula(rng, depth - 1, pool, fresh))
    if kind == "bin":
        op = rng.choice(["and", "or", "->", "<->"])
        return BinOp(op, gen_formula(rng, depth - 1, pool, fresh),
                     gen_formula(rng, depth - 1, pool, fresh))
    v = "v%d" % next(fresh)
    q = "forall" if kind.startswith("forall") else "exists"
    bound = Var(rng.choice(pool)) if kind.endswith("_b") else None
    return Quant(q, Var(v), bound,
                 gen_formula(rng, depth - 1, pool + [v], fresh))


def test_thousand_random_formulas_match_oracle():
    import itertools
    rng = random.Random(20260823)
    for i in range(1000):
        fresh = itertools.count()
        root = gen_formula(rng, rng.randint(1, 5), ["a0", "b0", "c0"],
                           fresh)
        names = set()
        stack = [root]
        while stack:
            n = stack.pop()
            if isinstance(n, Var):
                names.add(n.name)
            elif isinstance(n, (Membership, Eq, BinOp)):
                stack += [n.left, n.right]
            elif isinstance(n, Not):
                stack.append(n.body)
            elif isinstance(n, Quant):
                stack.append(n.var)
                stack.append(n.body)
                if n.bound is not None:
                    stack.append(n.bound)
        F = Formula(root, {n: "Set" for n in names})
        assert is_delta0(F) == oracle_delta0(root), "case %d" % i
        # round trip through the printer
        assert parse_formula(to_text(F)) == F, "case %d" % i


def test_delta0_closed_under_connectives_and_bounded_quantifiers():
    rng = random.Random(7)
    import itertools
    fresh = itertools.count()
    d0 = []
    while len(d0) < 20:
        root = gen_formula(rng, 3, ["a0", "b0"], fresh)
        F = Formula(root, {n: "Set" for n in set().union(
            *[set()], set(x for x in _names(root)))})
        if is_delta0(F):
            d0.append(F)
    for i in range(0, 20, 2):
        f, g = d0[i].root, d0[i + 1].root
        names = set(_names(f)) | set(_names(g)) | {"w9"}
        sorts = {n: "Set" for n in names}
        for op in ["and", "or", "->", "<->"]:
            assert is_delta0(Formula(BinOp(op, f, g), sorts))
        assert is_delta0(Formula(Not(f), sorts))
        assert is_delta0(
            Formula(Quant("forall", Var("w9"), Var("a0"), f), sorts))
        assert not is_delta0(
            Formula(Quant("exists", Var("w9"), None, f), sorts))


def _names(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, (Membership, Eq, BinOp)):
        yield from _names(node.left)
        yield from _names(node.right)
    elif isinstance(node, Not):
        yield from _names(node.body)
    elif isinstance(node, Quant):
        yield node.var.name
        if node.bound is not None:
            yield from _names(node.bound)
        yield from _names(node.body)


def test_substitution_preserves_delta0():
    f = parse_formula("∀x∈A. ∃y∈B. ⟨x,y⟩∈F")
    t = parse_term("P(N*R)")
    g = Formula(substitute(f.root, {"A": t.root}), dict(f.sorts))
    assert is_delta0(g)
    h = parse_formula("∃P1. ∀x. x∈P1")
    k = Formula(substitute(h.root, {"P1": t.root}), dict(h.sorts))
    assert not is_delta0(k)     # substitution cannot create bounds


# -- ⊆ and separation terms at every term position ------------------------------


SUBSET_REPRO = "x in {y in a | y sub b}"
COLLECTION_REPRO = "(x in {y in a | Y sub Z}) and (U in2 Y) and (U in2 Z)"


def all_nodes(node):
    """Every node and field value below node, read from the dataclass
    fields themselves rather than from the library's child table."""
    yield node
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            for child in value if isinstance(value, tuple) else (value,):
                yield from all_nodes(child)


def test_subset_inside_separation_is_expanded_and_printed():
    f = parse_formula(SUBSET_REPRO)
    assert to_text(f) == "x ∈ {y ∈ a | ∀_v0 ∈ y. _v0 ∈ b}"
    assert is_delta0(f)


def test_collection_subset_inside_separation_is_not_set_theoretic():
    f = parse_formula(COLLECTION_REPRO)
    assert f.sorts["_v0"] == "Class"
    assert not is_set_theoretic(f)


def test_unknown_sort_is_a_parse_error_at_every_binder():
    for parse, text in [(parse_formula, "forall x:Foo. x = x"),
                        (parse_term, "{x:Foo | x = x}"),
                        (parse_term, "{<x, y:Foo> | x = y}")]:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == "unknown sort 'Foo'"


def test_normalize_bounds_rewrites_inside_terms():
    f = parse_formula("x in {y in a | forall z. (z in y -> z in b)}")
    assert not is_delta0(f)
    g = normalize_bounds(f)
    assert to_text(g) == "x ∈ {y ∈ a | ∀z ∈ y. z ∈ b}"
    assert is_delta0(g)
    h = normalize_bounds(
        parse_formula("x in1 {y | exists z. (z in y and z = b)}"))
    assert to_text(h) == "x ∈₁ {y | ∃z ∈ y. z = b}"


class SubsetText:
    """Random formula text with ⊆ and separation terms at every term
    position, paired with the same formula with each ⊆ written out.  With
    `higher`, ⊆ also relates class and collection variables, whose sorts
    a leading conjunct fixes."""

    ANCHOR = "(c0 in1 A1) and (c0 in1 B1) and (C0 in2 F2) and (C0 in2 G2)"

    def __init__(self, rng, higher):
        self.rng, self.higher = rng, higher
        self.fresh = itertools.count()
        self.path = []          # enclosing term positions
        self.seen = set()       # positions that held a ⊆

    def name(self, prefix):
        return "%s%d" % (prefix, next(self.fresh))

    def at(self, position, make, *args):
        self.path.append(position)
        try:
            return make(*args)
        finally:
            self.path.pop()

    def term(self, depth, pool, product=True):
        kinds = ["var", "pow", "pair", "sep"] + (["prod"] if product else [])
        kind = self.rng.choice(kinds) if depth else "var"
        if kind == "var":
            v = self.rng.choice(pool)
            return v, v
        if kind == "pow":
            s, h = self.at("pow", self.term, depth - 1, pool)
            return "P(%s)" % s, "P(%s)" % h
        if kind == "prod":     # × is left-associative: the right is a factor
            (s1, h1), (s2, h2) = (self.at("prod", self.term, depth - 1, pool),
                                  self.at("prod", self.term, depth - 1, pool,
                                          False))
            return "%s * %s" % (s1, s2), "%s * %s" % (h1, h2)
        if kind == "pair":
            items = [self.at("pair", self.term, depth - 1, pool)
                     for _ in range(self.rng.randint(1, 3))]
            return ("<%s>" % ", ".join(s for s, _ in items),
                    "<%s>" % ", ".join(h for _, h in items))
        v = self.name("y")
        sb, hb = self.at("sep bound", self.term, depth - 1, pool)
        s, h = self.at("sep body", self.formula, depth - 1, pool + [v])
        return ("{%s in %s | %s}" % (v, sb, s),
                "{%s in %s | %s}" % (v, hb, h))

    def formula(self, depth, pool):
        kinds = ["atom", "sub"] + (["atom", "sub", "not", "bin", "quant",
                                    "abstract"] if depth else [])
        kind = self.rng.choice(kinds)
        if kind in ("atom", "sub"):
            (s1, h1), (s2, h2) = [self.at("atom side", self.term, depth, pool)
                                  for _ in range(2)]
        if kind == "atom":
            rel = self.rng.choice(["in", "="])
            return ("(%s %s %s)" % (s1, rel, s2),
                    "(%s %s %s)" % (h1, rel, h2))
        if kind == "sub":
            self.seen.update(self.path)
            w = self.name("w")
            level = self.rng.choice([0, 0, 1, 2]) if self.higher else 0
            if level == 0:
                return ("(%s sub %s)" % (s1, s2),
                        "(forall %s in %s. %s in %s)" % (w, h1, w, h2))
            if level == 1:
                return ("(A1 sub B1)",
                        "(forall %s. (%s in1 A1 -> %s in1 B1))" % (w, w, w))
            return ("(F2 sub G2)",
                    "(forall %s:Class. (%s in2 F2 -> %s in2 G2))"
                    % (w, w, w))
        if kind == "not":
            s, h = self.formula(depth - 1, pool)
            return "(not %s)" % s, "(not %s)" % h
        if kind == "bin":
            op = self.rng.choice(["and", "or", "->", "<->"])
            (s1, h1), (s2, h2) = (self.formula(depth - 1, pool),
                                  self.formula(depth - 1, pool))
            return ("(%s %s %s)" % (s1, op, s2),
                    "(%s %s %s)" % (h1, op, h2))
        v = self.name("v")
        if kind == "abstract":
            st, ht = self.at("atom side", self.term, depth - 1, pool)
            s, h = self.at("abstract body", self.formula, depth - 1,
                           pool + [v])
            return ("(%s in1 {%s | %s})" % (st, v, s),
                    "(%s in1 {%s | %s})" % (ht, v, h))
        q = self.rng.choice(["forall", "exists"])
        sb = hb = ""
        if self.rng.random() < 0.5:
            sb, hb = self.at("quantifier bound", self.term, depth - 1, pool)
            sb, hb = " in " + sb, " in " + hb
        s, h = self.formula(depth - 1, pool + [v])
        return ("(%s %s%s. %s)" % (q, v, sb, s),
                "(%s %s%s. %s)" % (q, v, hb, h))

    def pair(self):
        s, h = self.formula(self.rng.randint(1, 4), ["a", "b", "c"])
        if self.higher:
            return self.ANCHOR + " and " + s, self.ANCHOR + " and " + h
        return s, h


def outcome(check, F):
    try:
        return check(F)
    except SortError:
        return "SortError"


def test_subset_at_every_term_position_expands_like_the_hand_expansion():
    rng = random.Random(20261018)
    seen, verdicts = set(), Counter()
    for i in range(400):
        gen = SubsetText(rng, higher=i % 2 == 1)
        sugared, by_hand = gen.pair()
        seen |= gen.seen
        f, g = parse_formula(sugared), parse_formula(by_hand)
        assert not any(isinstance(n, Subset) for n in all_nodes(f.root)), \
            sugared
        assert parse_formula(to_text(f)) == f, sugared
        for check in (is_delta0, is_set_theoretic):
            verdict = outcome(check, f)
            assert verdict == outcome(check, g), (check.__name__, sugared)
            verdicts[check.__name__, verdict] += 1
    assert seen == {"atom side", "quantifier bound", "pow", "prod", "pair",
                    "sep bound", "sep body", "abstract body"}
    assert verdicts.keys() >= {
        ("is_delta0", True), ("is_delta0", False),
        ("is_delta0", "SortError"), ("is_set_theoretic", True),
        ("is_set_theoretic", False)}


# -- the AST walks against per-class reference recursions -----------------------


def ref_walk_quantifiers(node):
    if isinstance(node, Quant):
        yield node
        yield from ref_walk_quantifiers(node.body)
        if node.bound is not None:
            yield from ref_walk_quantifiers(node.bound)
    elif isinstance(node, Not):
        yield from ref_walk_quantifiers(node.body)
    elif isinstance(node, BinOp):
        yield from ref_walk_quantifiers(node.left)
        yield from ref_walk_quantifiers(node.right)
    elif isinstance(node, (Membership, Eq)):
        yield from ref_walk_quantifiers(node.left)
        yield from ref_walk_quantifiers(node.right)
    elif isinstance(node, Sep):
        yield from ref_walk_quantifiers(node.bound)
        yield from ref_walk_quantifiers(node.body)
    elif isinstance(node, AbstractTerm):
        yield from ref_walk_quantifiers(node.body)
    elif isinstance(node, Pow):
        yield from ref_walk_quantifiers(node.arg)
    elif isinstance(node, CProd):
        yield from ref_walk_quantifiers(node.left)
        yield from ref_walk_quantifiers(node.right)
    elif isinstance(node, Pair):
        for t in node.items:
            yield from ref_walk_quantifiers(t)


def ref_used_vars(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Pow):
        yield from ref_used_vars(node.arg)
    elif isinstance(node, (CProd, BinOp, Membership, Eq)):
        yield from ref_used_vars(node.left)
        yield from ref_used_vars(node.right)
    elif isinstance(node, Pair):
        for t in node.items:
            yield from ref_used_vars(t)
    elif isinstance(node, Sep):
        yield node.var.name
        yield from ref_used_vars(node.bound)
        yield from ref_used_vars(node.body)
    elif isinstance(node, AbstractTerm):
        for v in node.variables:
            yield v.name
        yield from ref_used_vars(node.body)
    elif isinstance(node, Not):
        yield from ref_used_vars(node.body)
    elif isinstance(node, Quant):
        yield node.var.name
        if node.bound is not None:
            yield from ref_used_vars(node.bound)
        yield from ref_used_vars(node.body)


def ref_substitute(node, mapping):
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Pow):
        return Pow(ref_substitute(node.arg, mapping))
    if isinstance(node, CProd):
        return CProd(ref_substitute(node.left, mapping),
                     ref_substitute(node.right, mapping))
    if isinstance(node, Pair):
        return Pair(tuple(ref_substitute(t, mapping) for t in node.items))
    if isinstance(node, Sep):
        inner = {k: v for k, v in mapping.items() if k != node.var.name}
        return Sep(node.var, ref_substitute(node.bound, mapping),
                   ref_substitute(node.body, inner))
    if isinstance(node, AbstractTerm):
        names = {v.name for v in node.variables}
        inner = {k: v for k, v in mapping.items() if k not in names}
        return AbstractTerm(node.variables, ref_substitute(node.body, inner))
    if isinstance(node, Membership):
        return Membership(node.kind, ref_substitute(node.left, mapping),
                          ref_substitute(node.right, mapping))
    if isinstance(node, Eq):
        return Eq(ref_substitute(node.left, mapping),
                  ref_substitute(node.right, mapping))
    if isinstance(node, Not):
        return Not(ref_substitute(node.body, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, ref_substitute(node.left, mapping),
                     ref_substitute(node.right, mapping))
    if isinstance(node, Quant):
        inner = {k: v for k, v in mapping.items() if k != node.var.name}
        bound = None if node.bound is None else \
            ref_substitute(node.bound, mapping)
        return Quant(node.q, node.var, bound, ref_substitute(node.body, inner))
    raise ValueError("unknown node %r" % (node,))


def ref_expand_subsets(node, env):
    """Expansion of the former ("SUBSET", v, left, right) placeholders,
    which it reached only outside terms."""
    if isinstance(node, tuple) and node and node[0] == "SUBSET":
        _, v, left, right = node
        lv = term_level(left, env)
        rv = term_level(right, env)
        if lv != rv:
            raise SortError("⊆ needs both sides at the same level")
        var = Var(v)
        if lv == 0:
            env.declare(v, "Set")
            return Quant("forall", var, left, Membership("in", var, right))
        env.declare(v, "Set" if lv == 1 else "Class")
        inner = "in1" if lv == 1 else "in2"
        return Quant("forall", var, None,
                     BinOp("->", Membership(inner, var, left),
                           Membership(inner, var, right)))
    if isinstance(node, Not):
        return Not(ref_expand_subsets(node.body, env))
    if isinstance(node, BinOp):
        return BinOp(node.op, ref_expand_subsets(node.left, env),
                     ref_expand_subsets(node.right, env))
    if isinstance(node, Quant):
        return Quant(node.q, node.var, node.bound,
                     ref_expand_subsets(node.body, env))
    if isinstance(node, Sep):
        return Sep(node.var, node.bound, ref_expand_subsets(node.body, env))
    if isinstance(node, AbstractTerm):
        return AbstractTerm(node.variables,
                            ref_expand_subsets(node.body, env))
    return node


def ref_normalize_bounds(F):
    """Rewrite of bounded-quantifier sugar, which it reached only outside
    terms."""
    def rec(node):
        if isinstance(node, Quant) and node.bound is None and \
                F.sorts.get(node.var.name, "Set") == "Set":
            body = node.body
            shape = ("->", "forall") if node.q == "forall" else \
                ("and", "exists")
            if isinstance(body, BinOp) and body.op == shape[0] and \
                    isinstance(body.left, Membership) and \
                    body.left.kind == "in" and \
                    body.left.left == node.var and \
                    node.var.name not in set(ref_used_vars(body.left.right)):
                return Quant(node.q, node.var, body.left.right,
                             rec(body.right))
            return Quant(node.q, node.var, None, rec(body))
        if isinstance(node, Quant):
            return Quant(node.q, node.var, node.bound, rec(node.body))
        if isinstance(node, Not):
            return Not(rec(node.body))
        if isinstance(node, BinOp):
            return BinOp(node.op, rec(node.left), rec(node.right))
        return node
    return Formula(rec(F.root), dict(F.sorts))


def ref_citations(F):
    return tuple("%s%s" % ("∀" if q.q == "forall" else "∃", q.var.name)
                 for q in ref_walk_quantifiers(F.root) if q.bound is None)


def sugar_shaped(q, v, body):
    return isinstance(body, BinOp) and \
        body.op == ("->" if q == "forall" else "and") and \
        isinstance(body.left, Membership) and body.left.kind == "in" and \
        body.left.left == v


def gen_term(rng, depth, pool, fresh):
    """A random ⊆-free set term; separation bodies carry no
    bounded-quantifier sugar."""
    kind = rng.choice(["var", "var", "pow", "prod", "pair", "sep"]) \
        if depth else "var"
    if kind == "var":
        return Var(rng.choice(pool))
    if kind == "pow":
        return Pow(gen_term(rng, depth - 1, pool, fresh))
    if kind == "prod":
        return CProd(gen_term(rng, depth - 1, pool, fresh),
                     gen_term(rng, depth - 1, pool, fresh))
    if kind == "pair":
        return Pair(tuple(gen_term(rng, depth - 1, pool, fresh)
                          for _ in range(rng.randint(1, 3))))
    v = "s%d" % next(fresh)
    return Sep(Var(v), gen_term(rng, depth - 1, pool, fresh),
               gen_rich(rng, depth - 1, pool + [v], fresh, False))


def gen_rich(rng, depth, pool, fresh, top, subsets=False):
    """A random formula over separation and abstract terms.  Outside
    terms (`top`) it may carry bounded-quantifier sugar and, with
    `subsets`, unexpanded ⊆ nodes between set terms."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(["in", "eq", "abstract"] +
                          (["sub", "sub"] if top and subsets else []))
        t = gen_term(rng, depth, pool, fresh)
        if kind == "abstract":
            vs = tuple(Var("u%d" % next(fresh))
                       for _ in range(rng.randint(1, 2)))
            body = gen_rich(rng, depth, pool + [v.name for v in vs], fresh,
                            False)
            return Membership("in1", t if len(vs) == 1 else
                              Pair((t, gen_term(rng, 0, pool, fresh))),
                              AbstractTerm(vs, body))
        u = gen_term(rng, depth, pool, fresh)
        if kind == "sub":
            return Subset(Var("_v%d" % next(fresh)), t, u)
        return Membership("in", t, u) if kind == "in" else Eq(t, u)
    kind = rng.choice(["not", "bin", "bin", "forall", "exists",
                       "forall_b", "exists_b", "sugar"])
    if kind == "not":
        return Not(gen_rich(rng, depth - 1, pool, fresh, top, subsets))
    if kind == "bin":
        return BinOp(rng.choice(["and", "or", "->", "<->"]),
                     gen_rich(rng, depth - 1, pool, fresh, top, subsets),
                     gen_rich(rng, depth - 1, pool, fresh, top, subsets))
    v = Var("v%d" % next(fresh))
    q = "exists" if kind.startswith("exists") else rng.choice(
        ["forall", "exists"])
    body = gen_rich(rng, depth - 1, pool + [v.name], fresh, top, subsets)
    if kind == "sugar" and top:
        body = BinOp("->" if q == "forall" else "and",
                     Membership("in", v, gen_term(rng, depth - 1, pool,
                                                  fresh)), body)
    elif sugar_shaped(q, v, body) and not top:
        body = Not(body)
    bound = gen_term(rng, depth - 1, pool, fresh) \
        if kind.endswith("_b") else None
    return Quant(q, v, bound, body)


def walk_cases():
    """The 1,000 random formulas of the oracle test, then 300 over
    separation and abstract terms."""
    rng = random.Random(20260823)
    for i in range(1000):
        yield gen_formula(rng, rng.randint(1, 5), ["a0", "b0", "c0"],
                          itertools.count())
    rng = random.Random(20261018)
    for i in range(300):
        yield gen_rich(rng, rng.randint(1, 4), ["a0", "b0", "c0"],
                       itertools.count(), True)


def test_walks_match_the_reference_recursions():
    rng = random.Random(5)
    inside, in_bounds, sugared = 0, 0, 0
    for i, root in enumerate(walk_cases()):
        names = sorted({n.name for n in all_nodes(root)
                        if isinstance(n, Var)})
        F = Formula(root, {n: "Set" for n in names})
        quants = list(_walk_quantifiers(root))
        assert quants == list(ref_walk_quantifiers(root)), i
        assert Counter(_used_vars(root)) == Counter(ref_used_vars(root)), i
        mapping = {n: gen_term(rng, 2, ["a0", "b0"], itertools.count())
                   for n in names if rng.random() < 0.4}
        assert substitute(root, mapping) == ref_substitute(root, mapping), i
        normal = normalize_bounds(F)
        assert normal == ref_normalize_bounds(F), i
        assert separation_instance(parse_term("N"), F).unbounded == \
            ref_citations(F), i
        env = _SortEnv()
        assert _Parser("")._expand_subsets(root, env) == root == \
            ref_expand_subsets(root, env), i
        terms = [n for n in all_nodes(root)
                 if isinstance(n, (Sep, AbstractTerm))]
        inside += any(isinstance(m, Quant) for n in terms
                      for m in all_nodes(n.body))
        in_bounds += any(isinstance(m, Quant) for q in quants
                         for m in all_nodes(q.bound))
        sugared += normal != F
    assert inside and in_bounds and sugared


def as_placeholders(node):
    """node with each formula-level Subset as the former tuple
    placeholder."""
    if isinstance(node, Subset):
        return ("SUBSET", node.var.name, node.left, node.right)
    if isinstance(node, Not):
        return Not(as_placeholders(node.body))
    if isinstance(node, BinOp):
        return BinOp(node.op, as_placeholders(node.left),
                     as_placeholders(node.right))
    if isinstance(node, Quant):
        return Quant(node.q, node.var, node.bound,
                     as_placeholders(node.body))
    return node


def test_subset_expansion_matches_the_reference_outside_terms():
    rng = random.Random(20261019)
    expanded = 0
    for i in range(300):
        root = gen_rich(rng, rng.randint(1, 4), ["a0", "b0"],
                        itertools.count(), True, subsets=True)
        env, ref_env = _SortEnv(), _SortEnv()
        got = _Parser("")._expand_subsets(root, env)
        assert got == ref_expand_subsets(as_placeholders(root), ref_env), i
        assert env.sorts == ref_env.sorts, i
        expanded += got != root
    assert expanded
