"""Command-line entry point (`gw`) orchestrating the workbench modules.

Batch reports only; identical invocations produce byte-identical output.
Exit codes: 0 success, 1 semantic failure (with witnesses), 2 input or
schema error, 3 resource cap exceeded.  Codes 1-3 come from the kind of
the package's `GroundworkError`; an unreadable or non-UTF-8 file and
malformed JSON are input errors too.  Any other exception is a bug and
propagates as a traceback, with nothing reported.  `--format json` emits
the same content as the text report, machine-readable.  The element cap
for resolution-style computations defaults to 10^6 and can be overridden
with the GW_ELEMENT_CAP environment variable, which must be a positive
integer (anything else is an input error).
"""
import argparse
import json
import os
import random
import re
import sys

from . import GroundworkError, InputError, catalog
from .fpgroup import FpMorphism, fp_cyclic, fp_zero_morphism
from .frac import check_ore, hom_table, localize, normalize_arrow_class
from .intmat import IntMatrix
from .modres import (DEFAULT_ELEMENT_CAP, baer_check, ext,
                     injective_resolution, regular_module, zmod_module)
from .mttchk import (abstract_wf, is_delta0, is_set_theoretic, parse_formula,
                     parse_term)
from .presheaf import (enumerate_presheaf_maps, representable,
                       yoneda_bijection)
from .shcoh import (SheafMap, cech_cohomology, constant_sheaf,
                    long_exact_sequence, sheaf_cohomology,
                    skyscraper_sheaf, _iso_line)
from .site import is_sheaf, sheafify, is_isomorphism


def _element_cap():
    raw = os.environ.get("GW_ELEMENT_CAP", str(DEFAULT_ELEMENT_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(
            "GW_ELEMENT_CAP must be a positive integer, not %r" % (raw,))
    return cap


def _non_negative(text):
    """argparse type for degree and length options."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            "%r is not a non-negative integer" % (text,))
    return value


def _load_entry(name, kind):
    entry = catalog.load(name)
    if entry.kind != kind:
        raise InputError(
            "%r is a %s entry, expected %s" % (name, entry.kind, kind))
    return entry


def _load_kind(name, kind):
    return _load_entry(name, kind).value


def _coef_factors(spec):
    factors = []
    for part in spec.split("+"):
        m = re.fullmatch(r"Z(\d+)", part.strip())
        if not m:
            raise InputError(
                "coefficient spec %r is not of the form Zn[+Zm...]"
                % (spec,))
        factors.append(int(m.group(1)))
    return factors


def _resolve_module(ring, spec):
    if spec == "regular":
        return regular_module(ring)
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        return zmod_module(ring, int(m.group(1)))
    M = _load_kind(spec, "module")
    if M.ring.name != ring.name:
        raise InputError(
            "module %r is over %s, not %s" % (spec, M.ring.name, ring.name))
    return M


def _known(names, name, what):
    """`name`, if it is one of `names` (objects, points or arrows)."""
    if name not in names:
        raise InputError("unknown %s %r" % (what, name))
    return name


def _resolve_presheaf(spec, cat, cat_name):
    """A catalog presheaf over the category `cat` (catalog name
    `cat_name`), or a file's presheaf payload read over `cat`."""
    if spec in catalog.list():
        entry = _load_entry(spec, "presheaf")
        if entry.payload["over"] != cat_name:
            raise InputError("presheaf %r is over %r, not %r"
                             % (spec, entry.payload["over"], cat_name))
        return entry.value
    with open(spec, encoding="utf-8") as fh:
        data = json.load(fh)
    if type(data) is dict and "payload" in data:
        data = data["payload"]
    return catalog.build("presheaf", data, over=cat)


# -- subcommand handlers (each returns (exit_code, lines)) -------------------


def cmd_validate(args):
    lines = []
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise InputError("%s: not an entry object" % path)
        kind = data.get("kind")
        catalog.build(kind, data.get("payload"))
        lines.append("OK %s (%s)" % (path, kind))
    return 0, lines


def cmd_yoneda_check(args):
    C = _load_kind(args.category, "category")
    _known(C.objects, args.object, "object")
    F = (_resolve_presheaf(args.presheaf, C, args.category) if args.presheaf
         else representable(C, args.object))
    transforms = enumerate_presheaf_maps(representable(C, args.object), F)
    yoneda_bijection(F, args.object)
    n, m = len(transforms), len(F.fiber(args.object))
    lines = ["Nat(R_%s, F) has %d elements" % (args.object, n),
             "F(%s) has %d elements" % (args.object, m),
             "round-trip bijection verified"]
    return (0 if n == m else 1), lines


def cmd_sheafify(args):
    site = _load_entry(args.site, "site")
    C, J = site.value
    F = _resolve_presheaf(args.presheaf, C, site.payload["over"])
    aF, i = sheafify(F, J)
    lines = ["aF(%s) has %d elements" % (o, len(aF.fiber(o)))
             for o in C.objects]
    lines.append("unit F -> aF is iso: %s"
                 % ("yes" if is_isomorphism(i) else "no"))
    return 0, lines


def cmd_is_sheaf(args):
    site = _load_entry(args.site, "site")
    C, J = site.value
    F = _resolve_presheaf(args.presheaf, C, site.payload["over"])
    ok, witness = is_sheaf(F, J)
    if ok:
        return 0, ["sheaf: yes"]
    obj, sieve, kind, data = witness
    return 1, ["sheaf: no",
               "witness: %s at object %s (%r)" % (kind, obj, data)]


def _sheaf_from_args(args):
    if args.sheaf:
        return _load_kind(args.sheaf, "sheaf")
    if args.space is None or args.coef is None:
        raise InputError("give --sheaf, or --space with --coef")
    X = _load_kind(args.space, "space")
    factors = _coef_factors(args.coef)
    if args.skyscraper:
        return skyscraper_sheaf(X, _known(X.points, args.skyscraper, "point"),
                                factors)
    return constant_sheaf(X, factors)


def cmd_cohomology(args):
    F = _sheaf_from_args(args)
    return 0, sheaf_cohomology(F, args.max_degree).lines()


def cmd_cech(args):
    F = _sheaf_from_args(args)
    cover = [frozenset(_known(F.space.points, p, "point")
                       for p in u.split(",")) for u in args.cover]
    report = cech_cohomology(F, cover, args.max_degree)
    return 0, ["Hcech^%d = %s" % (n, line.split(" = ", 1)[1])
               for n, line in enumerate(report.lines())]


def cmd_les(args):
    X = _load_kind(args.space, "space")
    kind, d, e = args.kind, args.d, args.e
    if kind is not None and (d is None or e is None):
        raise InputError("--kind needs both --d and --e")
    if kind is None:
        rng = random.Random(args.seed)
        kind = rng.choice(["const", "sky"])
        d, e = rng.choice([(2, 2), (3, 2), (2, 3)])
    point = (_known(X.points, args.point, "point") if args.point
             else sorted(X.points)[0])
    if kind == "const":
        F1, F, F2 = (constant_sheaf(X, [d]), constant_sheaf(X, [d * e]),
                     constant_sheaf(X, [e]))
    else:
        F1, F, F2 = (skyscraper_sheaf(X, point, [d]),
                     skyscraper_sheaf(X, point, [d * e]),
                     skyscraper_sheaf(X, point, [e]))

    def mult(s, t, m):
        if s.gens and t.gens:
            return FpMorphism(s, t, IntMatrix.from_rows([[m]]))
        return fp_zero_morphism(s, t)

    alpha = SheafMap(F1, F, {p: mult(F1.stalks[p], F.stalks[p], e)
                             for p in X.points}).check()
    beta = SheafMap(F, F2, {p: mult(F.stalks[p], F2.stalks[p], 1)
                            for p in X.points}).check()
    les = long_exact_sequence(alpha, beta, args.max_degree).verify()
    terms = [_iso_line(fp_cyclic(m).invariant_factors) for m in (d, d * e, e)]
    lines = ["0 -> %s -> %s -> %s -> 0 (%s)" % (*terms, kind)]
    lines += ["%s = %s" % (label, _iso_line(G.invariant_factors))
              for label, G in zip(les.labels, les.groups)]
    lines.append("long exact sequence verified through degree %d"
                 % args.max_degree)
    return 0, lines


def cmd_ext(args):
    R = _load_kind(args.ring, "ring")
    M = _resolve_module(R, args.module)
    N = _resolve_module(R, args.against)
    groups = ext(M, N, args.max_degree, cap=_element_cap())
    return 0, ["Ext^%d = %s : order %d"
               % (n, _iso_line(G.invariant_factors), G.order())
               for n, G in enumerate(groups)]


def cmd_resolve(args):
    R = _load_kind(args.ring, "ring")
    M = _resolve_module(R, args.module)
    res = injective_resolution(M, args.length, cap=_element_cap())
    res.verify()
    lines = ["I_%d has order %d" % (k, I.order())
             for k, I in enumerate(res.terms)]
    lines.append("monic embedding, exactness, d o d = 0: verified")
    return 0, lines


def cmd_baer(args):
    R = _load_kind(args.ring, "ring")
    M = _resolve_module(R, args.module)
    ok, witness = baer_check(M)
    if ok:
        return 0, ["injective (Baer criterion): yes"]
    ideal, _ = witness
    return 1, ["injective (Baer criterion): no",
               "witness ideal: %s" % (sorted(ideal),)]


def cmd_localize(args):
    C = _load_kind(args.category, "category")
    sigma = {_known(C.arrows, a, "arrow") for a in args.sigma.split(",")}
    L = localize(C, sigma)
    return 0, hom_table(L)


def cmd_ore(args):
    C = _load_kind(args.category, "category")
    sigma = normalize_arrow_class(C, {_known(C.arrows, a, "arrow")
                                      for a in args.sigma.split(",")})
    v = check_ore(C, sigma)
    lines = ["sigma closure: {%s}" % ", ".join(sorted(sigma.members)),
             "right Ore conditions: %s" % ("pass" if v.ok else "fail")]
    lines += ["witness: %s" % (w,) for w in v.failures]
    return (0 if v.ok else 1), lines


def cmd_mtt(args):
    with open(args.file, encoding="utf-8") as fh:
        rows = [(i + 1, line.strip()) for i, line in enumerate(fh)
                if line.strip() and not line.strip().startswith("#")]
    lines, code = [], 0
    for lineno, text in rows:
        if args.abstract:
            sort = abstract_wf(parse_term(text))
            lines.append("line %d: %s" % (lineno, sort))
            continue
        f = parse_formula(text)
        if args.delta0:
            ok = is_delta0(f)
            lines.append("line %d: %s" % (lineno,
                                          "Delta0" if ok else "not Delta0"))
        elif args.set_theoretic:
            ok = is_set_theoretic(f)
            lines.append("line %d: %s"
                         % (lineno, "set-theoretic" if ok
                            else "not set-theoretic"))
        else:
            ok = True
            lines.append("line %d: well-formed" % lineno)
        if not ok:
            code = 1
    return code, lines


def cmd_catalog(args):
    if args.action == "list":
        return 0, catalog.list()
    if args.name is None:
        raise InputError("catalog %s needs an entry name" % args.action)
    if args.action == "show":
        e = catalog.load(args.name)
        return 0, ["name: %s" % e.name, "kind: %s" % e.kind,
                   "note: %s" % e.note]
    if args.path is None:
        raise InputError("catalog dump needs a destination path")
    catalog.dump(args.name, args.path)
    return 0, ["wrote %s" % args.path]


# -- argument parsing and dispatch -------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="gw", description="finite-category and sheaf workbench")
    top.add_argument("--format", choices=["text", "json"], default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate schema files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("yoneda-check")
    p.add_argument("--category", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--presheaf")
    p.set_defaults(func=cmd_yoneda_check)

    for name, func in [("sheafify", cmd_sheafify),
                       ("is-sheaf", cmd_is_sheaf)]:
        p = sub.add_parser(name)
        p.add_argument("--site", required=True)
        p.add_argument("--presheaf", required=True)
        p.set_defaults(func=func)

    for name, func in [("cohomology", cmd_cohomology), ("cech", cmd_cech)]:
        p = sub.add_parser(name)
        p.add_argument("--space")
        p.add_argument("--coef")
        p.add_argument("--skyscraper", metavar="POINT")
        p.add_argument("--sheaf", help="catalog sheaf entry name")
        p.add_argument("--max-degree", type=_non_negative, default=2)
        if name == "cech":
            p.add_argument("--cover", action="append", required=True,
                           metavar="P1,P2,...")
        p.set_defaults(func=func)

    p = sub.add_parser("les")
    p.add_argument("--space", required=True)
    p.add_argument("--kind", choices=["const", "sky"])
    p.add_argument("--d", type=_non_negative)
    p.add_argument("--e", type=_non_negative)
    p.add_argument("--point")
    p.add_argument("--max-degree", type=_non_negative, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_les)

    p = sub.add_parser("ext")
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--against", required=True)
    p.add_argument("--max-degree", type=_non_negative, default=3)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("resolve")
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--length", type=_non_negative, default=2)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("baer")
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_baer)

    for name, func in [("localize", cmd_localize), ("ore", cmd_ore)]:
        p = sub.add_parser(name)
        p.add_argument("--category", required=True)
        p.add_argument("--sigma", required=True, metavar="ARROW[,ARROW...]")
        p.set_defaults(func=func)

    p = sub.add_parser("mtt")
    p.add_argument("action", choices=["check"])
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--delta0", action="store_true")
    mode.add_argument("--set-theoretic", dest="set_theoretic",
                      action="store_true")
    mode.add_argument("--abstract", action="store_true")
    p.set_defaults(func=cmd_mtt)

    p = sub.add_parser("catalog")
    p.add_argument("action", choices=["list", "show", "dump"])
    p.add_argument("name", nargs="?")
    p.add_argument("path", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return top


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines = args.func(args)
    except GroundworkError as exc:
        code, lines = exc.exit_code, ["%s: %s" % (exc.label, exc)]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        code, lines = 2, ["input error: %s" % exc]
    if args.format == "json":
        out.write(json.dumps({"exit": code, "lines": lines},
                             sort_keys=True, indent=2) + "\n")
    else:
        for line in lines:
            out.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
