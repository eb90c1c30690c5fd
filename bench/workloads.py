"""The benchmark's four workloads: seeded job generators, input builders,
job runners and the oracle checks that judge each answer.

A job spec is plain data drawn from the seed.  `build` turns a spec into
program objects through groundwork's validating constructors (set-up);
`run` calls the library's public functions on them (the timed job) and
returns the rendered report lines plus the raw answer; `check` compares
that answer with an oracle from `oracles.py` and returns a mismatch
message or None.

Every workload draws its jobs in blocks.  A block holds one job from each
cell, a cell fixing the job's kind and a size band; only the inputs inside
a cell are random.  Whole blocks keep the job mix, and so the per-run
figures, nearly the same from seed to seed.  Size bands come from
structural estimates of the input (Godement tower sizes, open counts), so
they bound the work of a job without running the program.
"""
import random

import oracles

POINT_NAMES = "abcdef"

# Catalog spaces as posets (strict relations), for the oracles.  The
# inputs themselves are loaded through groundwork's catalog.
CATALOG_SPACES = {
    "discrete-2": (("p", "q"), ()),
    "interval-3": (("a", "b", "c"), (("a", "c"), ("b", "c"))),
    "pseudo-circle": (("a", "b", "c", "d"),
                      (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))),
    "pseudo-sphere-6": (("a", "b", "c", "d", "e", "f"),
                        tuple((x, y) for x, y in
                              [("a", "c"), ("a", "d"), ("b", "c"),
                               ("b", "d")] +
                              [(x, y) for x in "abcd" for y in "ef"])),
}


def random_poset(rng, n, density):
    """Points a, b, ... with a random transitively closed strict order."""
    pts = tuple(POINT_NAMES[:n])
    less = {(pts[i], pts[j]) for j in range(n) for i in range(j)
            if rng.random() < density}
    changed = True
    while changed:
        changed = False
        for (x, y) in sorted(less):
            for (u, v) in sorted(less):
                if y == u and (x, v) not in less:
                    less.add((x, v))
                    changed = True
    return pts, tuple(sorted(less))


def leq_of(less):
    rel = set(less)
    return lambda p, q: p == q or (p, q) in rel


def tower_sizes(pts, less, gens, levels):
    """Generator counts of a Godement tower, level by level.

    gens: point -> generators of the stalk.  The level-k stalk at p sums
    the level-(k-1) stalks over the minimal open of p, so these totals
    track the size of the matrices the resolution works with."""
    down = oracles.down_closure(pts, less)
    a = dict(gens)
    out = []
    for _ in range(levels):
        a = {p: sum(a[q] for q in down[p]) for p in pts}
        out.append(sum(a.values()))
    return out


def draw_space(rng, sizes, catalog, catalog_share):
    """A space spec: (catalog name or None, points, strict relations)."""
    if catalog and rng.random() < catalog_share:
        name = rng.choice(catalog)
        pts, less = CATALOG_SPACES[name]
        return (name, pts, less)
    pts, less = random_poset(rng, rng.choice(sizes),
                             rng.choice([0.2, 0.35, 0.5, 0.65]))
    return (None, pts, less)


def build_space(gw, ctx, space):
    name, pts, less = space
    if name is not None:
        return ctx["spaces"][name]
    down = oracles.down_closure(pts, less)
    return gw.site.space_from_minimal_opens(
        pts, {p: sorted(down[p]) for p in pts})


def load_catalog_spaces(gw, names):
    return {n: gw.catalog.load(n).value for n in names}


def iso(factors):
    factors = [d for d in factors if d not in (0, 1)]
    return " + ".join("Z/%d" % d for d in factors) if factors else "0"


class Workload:
    """Shared driver-facing surface; subclasses fill in the cells."""
    name = ""
    trace_jobs = 0      # jobs in the set-up set: digest and traced pass

    def blocks(self, seed):
        """Endless deterministic stream of job blocks for the seed."""
        rng = random.Random("%s:%d" % (self.name, seed))
        while True:
            block = [self.draw(rng, cell) for cell in self.cells]
            rng.shuffle(block)
            yield block

    def allowed_failure(self, spec, exc):
        """Failures the program is documented to have at this input."""
        return False


# -- cohomology: divisible Godement route -----------------------------------


class Cohomology(Workload):
    name = "cohomology"
    trace_jobs = 54
    cells = [(kind, degree, band) for kind in ("const", "sky", "pair")
             for degree in (2, 3)
             for band in ((20, 150), (151, 400), (401, 900))]
    catalog = ("discrete-2", "interval-3", "pseudo-circle",
               "pseudo-sphere-6")

    def context(self, gw):
        return {"spaces": load_catalog_spaces(gw, self.catalog)}

    def draw(self, rng, cell):
        kind, degree, (lo, hi) = cell
        for _ in range(10000):
            space = draw_space(rng, [3, 4, 5, 6], self.catalog, 0.2)
            _, pts, less = space
            point = rng.choice(pts)
            if kind == "pair":
                factors = rng.choice([[2, 4], [2, 2], [3, 3], [2, 6],
                                      [4, 4], [3, 9]])
            else:
                factors = [rng.choice([2, 3, 4, 5, 6, 8, 9])]
            if kind == "sky":
                gens = {p: len(factors) if leq_of(less)(point, p) else 0
                        for p in pts}
            else:
                gens = {p: len(factors) for p in pts}
            sizes = tower_sizes(pts, less, gens, degree + 2)
            # each differential eliminates an A_k x A_(k+1) system
            work = sum(a * b for a, b in zip(sizes, sizes[1:]))
            if lo <= work <= hi:
                return ("cohomology", space, kind, tuple(factors), point,
                        degree)
        raise RuntimeError("no input found for cell %r" % (cell,))

    def build(self, gw, ctx, spec):
        _, space, kind, factors, point, degree = spec
        X = build_space(gw, ctx, space)
        if kind == "sky":
            F = gw.shcoh.skyscraper_sheaf(X, point, list(factors))
        else:
            F = gw.shcoh.constant_sheaf(X, list(factors))
        return F, degree

    def run(self, gw, job):
        F, degree = job
        report = gw.shcoh.sheaf_cohomology(F, degree)
        return report.lines(), [oracles.prime_powers(G.invariant_factors)
                                for G in report.degrees]

    def check(self, spec, job, answer):
        _, (_, pts, less), kind, factors, point, degree = spec
        if kind == "sky":
            summands = [("sky", point, f) for f in factors]
        else:
            summands = [("const", f) for f in factors]
        expected = oracles.sheaf_cohomology_oracle(
            pts, leq_of(less), summands, degree)
        if answer != expected:
            return "H^* %r, oracle %r" % (answer, expected)
        return None


# -- les: discrete Godement route -------------------------------------------


class Les(Workload):
    name = "les"
    trace_jobs = 30
    # Bands of the tower size (generators summed over three levels); the
    # sizes a kind can reach are sparse, so each kind has its own bands,
    # and sizes above 18 (a job of over half a second) are left out.  The
    # middle band is drawn three times and the heaviest twice, so that the
    # median and the 90th percentile fall inside a band, not between two.
    cells = [("const", (1, 9))] + [("const", (10, 12))] * 3 + [
             ("const", (13, 15)), ("const", (16, 18)), ("const", (16, 18)),
             ("sky", (1, 3)), ("sky", (4, 12)),
             ("split", (1, 12)), ("split", (13, 15)), ("split", (16, 18)),
             ("sum", (1, 6)), ("sum", (7, 12)), ("sum", (13, 18))]
    catalog = ("interval-3", "pseudo-circle")
    params = [(2, 2), (3, 2), (2, 3)]

    def context(self, gw):
        return {"spaces": load_catalog_spaces(gw, self.catalog)}

    def _part(self, rng, kind, pts):
        d, e = rng.choice(self.params)
        return (kind, d, e, rng.choice(pts))

    def draw(self, rng, cell):
        kind, (lo, hi) = cell
        for _ in range(10000):
            space = draw_space(rng, [3, 4], self.catalog, 0.2)
            _, pts, less = space
            if kind == "sum":
                parts = [self._part(rng, rng.choice(["const", "sky", "split"]),
                                    pts) for _ in range(2)]
            else:
                parts = [self._part(rng, kind, pts)]
            leq = leq_of(less)
            gens = {p: 0 for p in pts}
            for (k, _, _, point) in parts:
                for p in pts:
                    gens[p] += (k != "sky") + (k != "const" and leq(point, p))
            size = sum(tower_sizes(pts, less, gens, 3))
            if lo <= size <= hi:
                return ("les", space, tuple(parts))
        raise RuntimeError("no input found for cell %r" % (cell,))

    def _ses(self, gw, X, part):
        kind, d, e, point = part
        sh = gw.shcoh
        if kind == "split":
            _, incs, projs = sh.sheaf_direct_sum(
                sh.constant_sheaf(X, [d]), sh.skyscraper_sheaf(X, point, [e]))
            return incs[0], projs[1]
        if kind == "const":
            F1, F, F2 = (sh.constant_sheaf(X, [d]),
                         sh.constant_sheaf(X, [d * e]),
                         sh.constant_sheaf(X, [e]))
        else:
            F1, F, F2 = (sh.skyscraper_sheaf(X, point, [d]),
                         sh.skyscraper_sheaf(X, point, [d * e]),
                         sh.skyscraper_sheaf(X, point, [e]))

        def mult(s, t, m):
            if s.gens and t.gens:
                return gw.fpgroup.FpMorphism(
                    s, t, gw.intmat.IntMatrix.from_rows([[m]]))
            return gw.fpgroup.fp_zero_morphism(s, t)
        alpha = sh.SheafMap(F1, F, {p: mult(F1.stalks[p], F.stalks[p], e)
                                    for p in X.points}).check()
        beta = sh.SheafMap(F, F2, {p: mult(F.stalks[p], F2.stalks[p], 1)
                                   for p in X.points}).check()
        return alpha, beta

    def _sum(self, gw, s1, s2):
        sh = gw.shcoh
        (a1, b1), (a2, b2) = s1, s2
        _, _, projsP = sh.sheaf_direct_sum(a1.source, a2.source)
        _, incsM, projsM = sh.sheaf_direct_sum(a1.target, a2.target)
        _, incsQ, _ = sh.sheaf_direct_sum(b1.target, b2.target)

        def add(f, g):
            return sh.SheafMap(f.source, f.target, {
                p: gw.fpgroup.FpMorphism(
                    f.components[p].source, f.components[p].target,
                    f.components[p].matrix.add(g.components[p].matrix))
                for p in f.source.space.points}).check()
        alpha = add(incsM[0].compose(a1).compose(projsP[0]),
                    incsM[1].compose(a2).compose(projsP[1]))
        beta = add(incsQ[0].compose(b1).compose(projsM[0]),
                   incsQ[1].compose(b2).compose(projsM[1]))
        return alpha, beta

    def build(self, gw, ctx, spec):
        _, space, parts = spec
        X = build_space(gw, ctx, space)
        sess = [self._ses(gw, X, part) for part in parts]
        return sess[0] if len(sess) == 1 else self._sum(gw, *sess)

    def run(self, gw, job):
        alpha, beta = job
        les = gw.shcoh.long_exact_sequence(alpha, beta, 2).verify()
        lines = ["%s = %s" % (label, iso(G.invariant_factors))
                 for label, G in zip(les.labels, les.groups)]
        return lines, [oracles.prime_powers(G.invariant_factors)
                       for G in les.groups]

    def check(self, spec, job, answer):
        _, (_, pts, less), parts = spec
        sub, mid, quo = [], [], []
        for (kind, d, e, point) in parts:
            if kind == "const":
                sub.append(("const", d))
                mid.append(("const", d * e))
                quo.append(("const", e))
            elif kind == "sky":
                sub.append(("sky", point, d))
                mid.append(("sky", point, d * e))
                quo.append(("sky", point, e))
            else:
                sub.append(("const", d))
                mid += [("const", d), ("sky", point, e)]
                quo.append(("sky", point, e))
        leq = leq_of(less)
        H = [oracles.sheaf_cohomology_oracle(pts, leq, s, 2)
             for s in (sub, mid, quo)]
        expected = [H[i][n] for n in range(3) for i in range(3)]
        if answer != expected:
            return "LES groups %r, oracle %r" % (answer, expected)
        return None


# -- rings: injective resolutions, Ext and Baer over finite rings -----------


def divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0]


class Rings(Workload):
    name = "rings"
    trace_jobs = 27
    # Cells fix the operation, the ring and the modules, which set a
    # job's cost; the seed draws Ext degrees, resolution lengths and Baer
    # modules, and the order of each block.  Hom enumeration in ext grows
    # with primes >= 5, so ext uses rings of orders 2^a 3^b.  The regular
    # modules over Z/8 and Z/12, Z/6 over Z/12 and Z/2 over F2x fail at
    # the seed; they stay in.  Baer over Z/12, the left_ideals tail, is
    # drawn four times so that the 90th percentile falls inside that tail.
    cells = ([("ext", 4, 2, 2), ("ext", 6, 2, 2), ("ext", 6, 3, 3),
              ("ext", 8, 4, 2), ("ext", 9, 3, 3), ("ext", 12, 4, 2),
              ("ext", 12, 3, 3)] +
             [("resolve", n, n) for n in (4, 8, 12)] +
             [("resolve", 6, 2), ("resolve", 9, 3), ("resolve", 10, 5),
              ("resolve", 12, 4), ("resolve", 12, 6),
              ("resolve", "F2x", "regular"), ("resolve", "F2x", 2)] +
             [("baer", n) for n in (4, 6, 8, 9, 10, 11, 12, 12, 12, 12)])

    def context(self, gw):
        rings = {n: (gw.catalog.load("Z%d" % n).value if n in (2, 4, 6)
                     else gw.modres.ring_zmod(n)) for n in range(2, 13)}
        rings["F2x"] = gw.catalog.load("F2x").value
        return {"rings": rings}

    def draw(self, rng, cell):
        if cell[0] == "ext":
            return cell + (rng.choice([1, 2]),)
        if cell[0] == "resolve":
            # F2x at length 2 always, as `gw resolve --ring F2x`: its cost
            # would otherwise swing across the 90th percentile
            return cell + (2 if cell[1] == "F2x" else rng.choice([1, 2]),)
        n = cell[1]
        return ("baer", n, rng.choice(divisors(n)))

    def _module(self, gw, R, n, k):
        """Z/k, or the regular module when k is the ring's order."""
        if k == n or k == "regular":
            return gw.modres.regular_module(R)
        return gw.modres.zmod_module(R, k)

    def build(self, gw, ctx, spec):
        return spec, ctx["rings"][spec[1]]

    def run(self, gw, job):
        spec, R = job
        mr = gw.modres
        if spec[0] == "ext":
            _, n, d, e, top = spec
            groups = mr.ext(self._module(gw, R, n, d),
                            self._module(gw, R, n, e), top)
            answer = [oracles.prime_powers(G.invariant_factors)
                      for G in groups]
            return (["Ext^%d = %s" % (k, iso(G.invariant_factors))
                     for k, G in enumerate(groups)], answer)
        if spec[0] == "resolve":
            _, n, k, length = spec
            res = mr.injective_resolution(self._module(gw, R, n, k), length)
            res.verify()
            terms = [list(I.additive.invariant_factors) for I in res.terms]
            return (["I_%d = %s" % (i, iso(t)) for i, t in enumerate(terms)],
                    terms)
        _, n, k = spec
        ok, _ = mr.baer_check(self._module(gw, R, n, k))
        return ["injective (Baer criterion): %s" % ("yes" if ok else "no")], ok

    def check(self, spec, job, answer):
        if spec[0] == "ext":
            _, n, d, e, top = spec
            expected = [oracles.prime_powers([oracles.ext_zmod(n, d, e, k)])
                        for k in range(top + 1)]
            if answer != expected:
                return "Ext %r, oracle %r" % (answer, expected)
            return None
        if spec[0] == "resolve":
            _, n, k, length = spec
            if len(answer) != length + 1:
                return "resolution has %d terms" % len(answer)
            for t in answer:
                ok = (oracles.f2x_free(t) if n == "F2x"
                      else oracles.zmod_injective(n, t))
                if not ok:
                    return "term %r is not injective" % (t,)
            return None
        _, n, k = spec
        expected = oracles.baer_zmod(n, k)
        if answer != expected:
            return "Baer verdict %r, oracle %r" % (answer, expected)
        return None

    def allowed_failure(self, spec, exc):
        # cap exits (regular resolutions for n >= 8, Z/6 over Z/12), and
        # Z/k over F2[x]/(x^2), which the library cannot build yet
        if type(exc).__name__ == "ResourceCap":
            return True
        return (spec[0] == "resolve" and spec[1] == "F2x" and spec[2] == 2
                and type(exc).__name__ == "InvalidModule")


# -- sites: enumerators over categories, presheaves, sites, formulas -------


def presheaf_expr(rng, objects, depth):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return ("rep", rng.choice(objects))
    if r < 0.5:
        return ("terminal",)
    return (rng.choice(["product", "coproduct"]),
            presheaf_expr(rng, objects, depth - 1),
            presheaf_expr(rng, objects, depth - 1))


def build_presheaf(gw, C, expr):
    """The presheaf of an expression, re-validated by validate_presheaf."""
    ps = gw.presheaf

    def rec(e):
        if e[0] == "rep":
            return ps.representable(C, e[1])
        if e[0] == "terminal":
            return ps.terminal_presheaf(C)
        a, b = rec(e[1]), rec(e[2])
        return (ps.product(a, b) if e[0] == "product"
                else ps.coproduct([a, b]))[0]
    F = rec(expr)
    return ps.validate_presheaf(C, F.fibers, F.action)


def random_formula(rng, depth, sets, classes, fresh, allow_class):
    """Formula tree: ("in"|"eq", a, b), ("in1", s, X), ("not", f),
    ("bin", op, f, g), ("q", quantifier, sort, bound, body, var)."""
    if depth == 0 or rng.random() < 0.25:
        if classes and rng.random() < 0.4:
            return ("in1", rng.choice(sets), rng.choice(classes))
        return (rng.choice(["in", "eq"]), rng.choice(sets), rng.choice(sets))
    kind = rng.choice(["not", "bin", "bin", "q", "q", "q"])
    if kind == "not":
        return ("not", random_formula(rng, depth - 1, sets, classes, fresh,
                                      allow_class))
    if kind == "bin":
        return ("bin", rng.choice(["and", "or", "->", "<->"]),
                random_formula(rng, depth - 1, sets, classes, fresh,
                               allow_class),
                random_formula(rng, depth - 1, sets, classes, fresh,
                               allow_class))
    fresh[0] += 1
    quant = rng.choice(["forall", "exists"])
    if allow_class and rng.random() < 0.3:
        var = "X%d" % fresh[0]
        body = random_formula(rng, depth - 1, sets, classes + [var], fresh,
                              allow_class)
        return ("q", quant, "Class", None, body, var)
    var = "v%d" % fresh[0]
    bound = rng.choice(sets) if rng.random() < 0.6 else None
    body = random_formula(rng, depth - 1, sets + [var], classes, fresh,
                          allow_class)
    return ("q", quant, "Set", bound, body, var)


def formula_text(node):
    kind = node[0]
    if kind in ("in", "eq", "in1"):
        rel = {"in": "in", "eq": "=", "in1": "in1"}[kind]
        return "%s %s %s" % (node[1], rel, node[2])
    if kind == "not":
        return "not (%s)" % formula_text(node[1])
    if kind == "bin":
        return "(%s) %s (%s)" % (formula_text(node[2]), node[1],
                                 formula_text(node[3]))
    _, quant, sort, bound, body, var = node
    head = "%s %s%s" % (quant, var, ":Class" if sort == "Class" else "")
    if bound is not None:
        head += " in %s" % bound
    return "(%s. (%s))" % (head, formula_text(body))


class Sites(Workload):
    name = "sites"
    # covers bands bound the sieve enumeration, sum over opens U of
    # 2^(opens inside U).  Bands are repeated so that the median and the
    # 90th percentile each fall inside one band of similar jobs: eight
    # 1200-3000 jobs hold the median, four 20001-30000 jobs the 90th
    # percentile.  The last covers cell is past the cap (more than 16
    # opens inside X), a cap exit in every block.
    cells = ([("covers", (1, 300)), ("covers", (301, 1199))] +
             [("covers", (1200, 3000))] * 8 +
             [("covers", (3001, 8000)), ("covers", (8001, 20000))] +
             [("covers", (20001, 30000))] * 4 +
             [("covers", (1 << 17, 1 << 40)),
              "sheafify", "is_sheaf", "yoneda", "fractions",
              "formula-set", "formula-class"])
    trace_jobs = 69

    def context(self, gw):
        return {"walking-arrow": gw.catalog.load("walking-arrow").value}

    def draw(self, rng, cell):
        if isinstance(cell, tuple):
            lo, hi = cell[1]
            for _ in range(10000):
                pts, less = random_poset(rng, rng.randint(2, 5),
                                         rng.choice([0.2, 0.35, 0.5, 0.65]))
                opens = oracles.opens_of(pts, oracles.down_closure(pts, less))
                work = sum(1 << sum(1 for V in opens if V <= U)
                           for U in opens)
                if lo <= work <= hi:
                    return ("covers", pts, less)
            raise RuntimeError("no input found for cell %r" % (cell,))
        if cell in ("sheafify", "is_sheaf"):
            for _ in range(10000):
                pts, less = random_poset(rng, rng.randint(2, 4),
                                         rng.choice([0.2, 0.35, 0.5, 0.65]))
                opens = sorted(oracles.opens_of(
                    pts, oracles.down_closure(pts, less)), key=sorted)
                if len(opens) <= 10:
                    names = [oracles.open_name(U) for U in opens]
                    return (cell, pts, less, presheaf_expr(rng, names, 2))
            raise RuntimeError("no input found for cell %r" % (cell,))
        if cell in ("yoneda", "fractions"):
            pts, less = random_poset(rng, rng.randint(2, 4),
                                     rng.choice([0.3, 0.5, 0.7]))
            if cell == "yoneda":
                return ("yoneda", pts, less, presheaf_expr(rng, list(pts), 2),
                        rng.choice(pts))
            arrows = list(less)
            sigma = tuple(sorted(rng.sample(arrows, min(len(arrows),
                                                        rng.randint(1, 2)))))
            return ("fractions", pts, less, sigma)
        allow_class = cell == "formula-class"
        tree = random_formula(rng, rng.randint(1, 5), ["a0", "b0", "c0"], [],
                              [0], allow_class)
        return (cell, tree)

    def build(self, gw, ctx, spec):
        kind = spec[0]
        if kind == "covers":
            return spec, build_space(gw, ctx, (None, spec[1], spec[2]))
        if kind in ("sheafify", "is_sheaf"):
            X = build_space(gw, ctx, (None, spec[1], spec[2]))
            C, J = gw.site.site_from_finite_space(X)
            return spec, (X, C, J, build_presheaf(gw, C, spec[3]))
        if kind in ("yoneda", "fractions"):
            leq = leq_of(spec[2])
            C = gw.fincat.poset_category(spec[1], leq)
            if kind == "yoneda":
                return spec, (C, build_presheaf(gw, C, spec[3]))
            return spec, (C, ctx["walking-arrow"])
        return spec, formula_text(spec[1])

    def run(self, gw, job):
        spec, data = job
        kind = spec[0]
        if kind == "covers":
            C, J = gw.site.site_from_finite_space(data)
            answer = {A: len(J.covers[A]) for A in C.objects}
            return (["covers of %s: %d" % (A, answer[A])
                     for A in sorted(answer)], answer)
        if kind == "sheafify":
            X, C, J, F = data
            aF, _ = gw.site.sheafify(F, J)
            answer = {A: len(aF.fiber(A)) for A in C.objects}
            return (["aF(%s) has %d elements" % (A, answer[A])
                     for A in sorted(answer)], answer)
        if kind == "is_sheaf":
            X, C, J, F = data
            ok, _ = gw.site.is_sheaf_on_space(F, X)
            return ["sheaf: %s" % ("yes" if ok else "no")], ok
        if kind == "yoneda":
            C, F = data
            B = spec[4]
            n = len(gw.presheaf.enumerate_presheaf_maps(
                gw.presheaf.representable(C, B), F))
            return ["Nat(R_%s, F) has %d elements" % (B, n)], n
        if kind == "fractions":
            C, T = data
            sigma = ["%s<=%s" % a for a in spec[3]]
            verdict = gw.frac.check_ore(C, sigma)
            lines = ["right Ore conditions: %s"
                     % ("pass" if verdict.ok else "fail")]
            if not verdict.ok:
                return lines, (False, None, None)
            L = gw.frac.localize(C, sigma)
            homs = {(a, b): len(L.category.hom(a, b))
                    for a in C.objects for b in C.objects}
            u = gw.frac.universal_property_check(C, sigma, T)
            lines += gw.frac.hom_table(L)
            lines.append("universal property: %s (%d functors)"
                         % (u.detail, u.n_localized))
            return lines, (True, homs, (u.ok, u.n_inverting, u.n_localized))
        f = gw.mttchk.parse_formula(data)
        st = gw.mttchk.is_set_theoretic(f)
        if kind == "formula-class":
            return ["set-theoretic: %s" % st], (None, st)
        d0 = gw.mttchk.is_delta0(f)
        return ["Delta0: %s" % d0, "set-theoretic: %s" % st], (d0, st)

    def check(self, spec, job, answer):
        kind = spec[0]
        if kind == "covers":
            _, pts, less = spec
            expected = oracles.cover_counts(
                pts, oracles.down_closure(pts, less))
        elif kind in ("sheafify", "is_sheaf"):
            # judged from the tables of the built presheaf; no groundwork
            # function is called
            _, pts, less, _ = spec
            F = job[1][3]
            down = oracles.down_closure(pts, less)
            expected = (oracles.sheafification_sizes(F, pts, down)
                        if kind == "sheafify" else
                        oracles.is_sheaf(F, pts, down))
        elif kind == "yoneda":
            _, pts, less, expr, B = spec
            expected = oracles.presheaf_size(expr, B, leq_of(less))
        elif kind == "fractions":
            _, pts, less, sigma = spec
            leq = leq_of(less)
            sig = oracles.sigma_closure(pts, sigma)
            if not oracles.ore_holds(pts, leq, sig):
                expected = (False, None, None)
            else:
                n = oracles.inverting_maps(pts, leq, sig, ("0", "1"),
                                           lambda x, y: x <= y)
                expected = (True, oracles.localized_hom_sizes(pts, leq, sig),
                            (True, n, n))
        else:
            tree = spec[1]
            st = oracles.formula_set_theoretic(tree)
            d0 = None if kind == "formula-class" else \
                oracles.formula_delta0(tree)
            expected = (d0, st)
        if answer != expected:
            return "%s: %r, oracle %r" % (kind, answer, expected)
        return None

    def allowed_failure(self, spec, exc):
        # sieve enumeration past its cap (more than 16 opens below an open)
        return type(exc).__name__ == "ResourceExceeded"


WORKLOADS = {w.name: w for w in (Cohomology(), Les(), Rings(), Sites())}
