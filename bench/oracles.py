"""Independent oracles for the benchmark's answers.

Nothing here imports groundwork: each oracle recomputes the expected
answer from the generator's own description of the input, with its own
arithmetic (integer elimination, closed forms, direct enumeration).
"""
import math
from itertools import product


# -- finite abelian groups as prime-power multisets -------------------------


def prime_powers(factors):
    """Sorted prime-power decomposition of a list of cyclic orders."""
    out = []
    for d in factors:
        d = abs(int(d))
        if d == 0:
            out.append(0)
            continue
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


# -- integer elimination ----------------------------------------------------


def elementary_divisors(rows, ncols):
    """Nonzero diagonal of the Smith form of an integer matrix (as rows).

    Plain gcd elimination; the multiset of elementary divisors is all the
    cohomology oracle needs, so no transforms are kept."""
    a = [list(r) for r in rows]
    m, n = len(a), ncols
    out = []
    t = 0
    while t < min(m, n):
        nz = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n)
              if a[i][j]]
        if not nz:
            break
        _, i, j = min(nz)
        a[t], a[i] = a[i], a[t]
        for r in a:
            r[t], r[j] = r[j], r[t]
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, n) if a[t][j]]
            if rest:
                # a remainder is smaller than the pivot: make it the pivot
                _, i, j = min(rest)
                a[t], a[i] = a[i], a[t]
                for r in a:
                    r[t], r[j] = r[j], r[t]
                continue
            bad = [i for i in range(t + 1, m)
                   if any(x % p for x in a[i][t + 1:])]
            if not bad:
                break
            # the pivot must divide the rest: fold an offending row in
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
        out.append(abs(a[t][t]))
        t += 1
    return out


# -- finite spaces: simplicial cohomology of the order complex --------------


def order_chains(points, leq, k_max):
    """Strictly increasing chains p0 < ... < pk for k = 0..k_max."""
    pts = sorted(points)
    chains = [[(p,) for p in pts]]
    for _ in range(k_max):
        chains.append([c + (q,) for c in chains[-1] for q in pts
                       if q != c[-1] and leq(c[-1], q)])
    return chains


def simplicial_cohomology(points, leq, n, k_max):
    """Prime-power multisets of H^k(order complex; Z/n), k = 0..k_max.

    By McCord the order complex of the specialization order is weakly
    equivalent to the finite space, so these are the cohomology groups of
    the constant sheaf Z/n.  Integer cohomology comes from ranks and
    elementary divisors of the coboundaries; Z/n enters by universal
    coefficients: H^k(-; Z/n) = H^k ⊗ Z/n ⊕ Tor(H^{k+1}, Z/n)."""
    chains = order_chains(points, leq, k_max + 2)
    divs = []
    for k in range(k_max + 2):
        pos = {c: i for i, c in enumerate(chains[k])}
        rows = []
        for T in chains[k + 1]:
            r = [0] * len(chains[k])
            for j in range(len(T)):
                r[pos[T[:j] + T[j + 1:]]] += (-1) ** j
            rows.append(r)
        divs.append(elementary_divisors(rows, len(chains[k])))

    def rank(k):
        return len(divs[k]) if k >= 0 else 0

    def torsion(k):     # torsion coefficients of H^k, from δ^{k-1}
        return [d for d in divs[k - 1] if d > 1] if k > 0 else []

    out = []
    for k in range(k_max + 1):
        betti = len(chains[k]) - rank(k) - rank(k - 1)
        factors = [n] * betti
        factors += [math.gcd(d, n) for d in torsion(k)]
        factors += [math.gcd(d, n) for d in torsion(k + 1)]
        out.append(prime_powers(f for f in factors if f > 1))
    return out


def sheaf_cohomology_oracle(points, leq, summands, k_max):
    """H^k of a direct sum of constant and point-pushforward sheaves.

    summands: ("const", n) or ("sky", point, n).  A pushforward from a
    point is flasque, so its cohomology is the group in degree 0 only."""
    total = [[] for _ in range(k_max + 1)]
    for s in summands:
        if s[0] == "const":
            for k, part in enumerate(simplicial_cohomology(
                    points, leq, s[1], k_max)):
                total[k] += part
        else:
            total[0] += prime_powers([s[2]])
    return [sorted(t) for t in total]


# -- modules over Z/n and F2[x]/(x^2) ---------------------------------------


def ext_zmod(n, d, e, k):
    """Order of the cyclic group Ext^k_{Z/n}(Z/d, Z/e), d and e dividing n.

    From the periodic free resolution ... -> Z/n -(n/d)-> Z/n -d-> Z/n
    -> Z/d: Hom into Z/e gives Z/e in every degree, with differentials
    alternating between multiplication by d and by n/d."""
    def mult(i):
        return d if i % 2 == 0 else n // d
    if k == 0:
        return math.gcd(mult(0), e)
    return math.gcd(mult(k), e) // (e // math.gcd(mult(k - 1), e))


def zmod_injective(n, factors):
    """A Z/n-module is injective iff every primary part is free over
    Z/p^v (p^v exactly dividing n)."""
    for q in prime_powers(factors):
        p = min(f for f in range(2, q + 1) if q % f == 0)
        v = 1
        while n % (p ** (v + 1)) == 0:
            v += 1
        if q != p ** v:
            return False
    return True


def baer_zmod(n, k):
    """Z/k over Z/n (k | n) is injective iff gcd(k, n/k) = 1."""
    return math.gcd(k, n // k) == 1


def f2x_free(factors):
    """Injective F2[x]/(x^2)-modules are free: (Z/2)^(2m) additively."""
    return all(d == 2 for d in factors) and len(factors) % 2 == 0


# -- posets, finite spaces and presheaves -----------------------------------


def down_closure(points, less):
    """p -> {q : q <= p} from strict relations (transitively closed)."""
    return {p: frozenset([p] + [a for (a, b) in less if b == p])
            for p in points}


def opens_of(points, down):
    """All opens of the finite space with minimal opens `down`."""
    opens = {frozenset()}
    for p in points:
        opens |= {U | down[p] for U in opens}
    return opens


def open_name(U):
    return "{%s}" % ",".join(sorted(U))


def cover_counts(points, down):
    """Covering sieves per open: down-closed families of opens below U
    whose union is U."""
    opens = sorted(opens_of(points, down), key=lambda U: (-len(U), sorted(U)))
    out = {}
    for U in opens:
        below = [V for V in opens if V <= U]
        count = 0

        def walk(i, chosen):
            nonlocal count
            if i == len(below):
                if frozenset().union(*chosen) == U:
                    count += 1
                return
            V = below[i]
            if any(V <= W for W in chosen):
                walk(i + 1, chosen + [V])
                return
            walk(i + 1, chosen)
            walk(i + 1, chosen + [V])
        walk(0, [])
        out[open_name(U)] = count
    return out


def _restrict(F, s, small, big):
    return F.action[(s, "%s<=%s" % (small, big))]


def _families(F, points, down, U):
    """Compatible families (s_p in F(U_p))_{p in U}, restricting along
    U_q ⊆ U_p for q <= p.  Reads only the presheaf's tables."""
    pts = sorted(U, key=lambda p: (len(down[p]), p))
    names = {p: open_name(down[p]) for p in pts}
    out = []

    def walk(i, chosen):
        if i == len(pts):
            out.append(dict(chosen))
            return
        p = pts[i]
        for s in F.fibers[names[p]]:
            if all(_restrict(F, s, names[q], names[p]) == chosen[q]
                   for q in down[p] if q != p):
                chosen[p] = s
                walk(i + 1, chosen)
                del chosen[p]
    walk(0, {})
    return out


def sheafification_sizes(F, points, down):
    """|aF(U)| for every open U: on a finite space a sheaf is determined
    by its values on minimal opens, so aF(U) is the set of compatible
    families over the points of U."""
    return {open_name(U): len(_families(F, points, down, U))
            for U in opens_of(points, down)}


def is_sheaf(F, points, down):
    """F is a sheaf iff F(U) -> compatible families over U is bijective
    for every open U."""
    for U in opens_of(points, down):
        fams = _families(F, points, down, U)
        name = open_name(U)
        images = set()
        for s in F.fibers[name]:
            images.add(tuple(sorted(
                (p, _restrict(F, s, open_name(down[p]), name)) for p in U)))
        if len(images) != len(F.fibers[name]) or \
                images != {tuple(sorted(f.items())) for f in fams}:
            return False
    return True


def presheaf_size(spec, obj, leq):
    """|F(obj)| for the generator's presheaf expressions over a poset."""
    kind = spec[0]
    if kind == "rep":
        return 1 if leq(obj, spec[1]) else 0
    if kind == "terminal":
        return 1
    a = presheaf_size(spec[1], obj, leq)
    b = presheaf_size(spec[2], obj, leq)
    return a * b if kind == "product" else a + b


# -- right calculus of fractions on a poset ---------------------------------


def sigma_closure(elements, sigma):
    """Identities plus composites of the given (x, y) arrows x <= y."""
    s = set(sigma) | {(x, x) for x in elements}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(s):
            for (c, d) in list(s):
                if b == c and (a, d) not in s:
                    s.add((a, d))
                    changed = True
    return s


def ore_holds(elements, leq, sig):
    """Right Ore squares in a thin category: for x <= z and (y <= z) in Σ
    there is w with (w <= x) in Σ and w <= y.  Cancellation is automatic."""
    for x in elements:
        for (y, z) in sig:
            if not leq(x, z):
                continue
            if not any((w, x) in sig and leq(w, y) for w in elements):
                return False
    return True


def localized_hom_sizes(elements, leq, sig):
    """Hom sizes of P[Σ^-1]: thin, with a -> b iff some roof a <-s- c -> b."""
    return {(a, b): int(any((c, a) in sig and leq(c, b) for c in elements))
            for a in elements for b in elements}


def inverting_maps(elements, leq, sig, target, tleq):
    """Monotone maps P -> T (T a poset) identifying the ends of Σ-arrows."""
    count = 0
    for img in product(target, repeat=len(elements)):
        f = dict(zip(elements, img))
        if all(tleq(f[a], f[b]) for a in elements for b in elements
               if leq(a, b)) and all(f[a] == f[b] for (a, b) in sig):
            count += 1
    return count


# -- formulas ---------------------------------------------------------------


def formula_delta0(node):
    """Inductive Δ0: atoms; connectives; bounded quantifiers only."""
    kind = node[0]
    if kind in ("in", "eq", "in1"):
        return True
    if kind == "not":
        return formula_delta0(node[1])
    if kind == "bin":
        return formula_delta0(node[2]) and formula_delta0(node[3])
    return node[3] is not None and formula_delta0(node[4])


def formula_set_theoretic(node):
    """Every quantified variable is Set-sorted."""
    kind = node[0]
    if kind in ("in", "eq", "in1"):
        return True
    if kind == "not":
        return formula_set_theoretic(node[1])
    if kind == "bin":
        return formula_set_theoretic(node[2]) and \
            formula_set_theoretic(node[3])
    return node[2] == "Set" and formula_set_theoretic(node[4])
