"""Built-in example objects shared by tests, docs, and the CLI.

Entries live as JSON data files under ``groundwork/catalog/`` so that
alternate-language ports can share them byte for byte.  Each file is an
envelope ``{"name", "kind", "note", "payload"}``.  This module alone knows
the payload schema: the table `SCHEMA` gives each kind's fields and their
shapes, `build` checks a payload against it (an `InvalidEntry` names the
field and the entry) before the owning module's validator runs, and the
``*_to_payload`` writers produce what ``tools/make_catalog.py`` stores."""
import builtins
import json
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources

from . import InputError
from .fincat import FinCategory, validate_category
from .fpgroup import fp_from_factors
from .frac import normalize_arrow_class
from .modres import (FiniteModule, FiniteRing, InvalidModule, InvalidRing,
                     _finite, module_from_action_table, validate_ring)
from .presheaf import Presheaf, validate_presheaf
from .shcoh import constant_sheaf, skyscraper_sheaf
from .site import (FiniteSpace, maximal_sieve, sieve_generate,
                   validate_topology)


class UnknownEntry(InputError):
    pass


class InvalidEntry(InputError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str       # category | space | ring | module | presheaf
    #                 | site | sheaf | sigma
    note: str
    payload: dict   # raw schema payload as stored on disk
    value: object   # the validated in-memory object


def _resource(name):
    path = resources.files(__package__) / "catalog" / (name + ".json")
    if not path.is_file():
        raise UnknownEntry("unknown catalog entry %r" % (name,))
    return path


def list():
    """Sorted names of every catalog entry."""
    folder = resources.files(__package__) / "catalog"
    return sorted(p.name[:-len(".json")] for p in folder.iterdir()
                  if p.name.endswith(".json"))


def load(name: str) -> CatalogEntry:
    """Read, validate, and return the named entry."""
    data = json.loads(_resource(name).read_text())
    if data.get("name") != name:
        raise InvalidEntry("entry %r is stored under name %r"
                           % (name, data.get("name")))
    kind, payload = data.get("kind"), data.get("payload")
    return CatalogEntry(name, kind, data.get("note", ""), payload,
                        build(kind, payload))


def dump(name: str, path) -> None:
    """Write the named entry's JSON file to `path`, byte for byte."""
    data = _resource(name).read_bytes()
    with open(path, "wb") as fh:
        fh.write(data)


# -- the payload schema -------------------------------------------------------
# A shape is `int`, `str` or `Factor` (a non-negative integer); a name
# space such as "objects", for a name the payload (or an entry it names)
# defined earlier; `New(space)`, a name defined there; `[shape]`, a list;
# a tuple, a list of exactly those entries; a dict, an object with those
# fields, checked in order; `Map`; `Entry(kind)`, the name of a catalog
# entry of that kind, whose objects, arrows or points come into scope; or
# `Tagged`, an object whose `tag` field picks its fields.  `_element`
# range-checks ring element indices.
New = namedtuple("New", "space")
Entry = namedtuple("Entry", "kind")
Map = namedtuple("Map", "key value")
Tagged = namedtuple("Tagged", "tag variants")
Factor = object()

SCHEMA = {
    "category": {"objects": [New("objects")],
                 "arrows": [{"id": New("arrows"), "dom": "objects",
                             "cod": "objects"}],
                 "compose": [("arrows", "arrows", "arrows")],
                 "identities": Map("objects", "arrows")},
    "space": {"points": [New("points")], "opens": [["points"]]},
    "ring": {"ring_name": str, "invariant_factors": [Factor], "one": int,
             "mul": [(int, int, int)]},
    "module": {"ring": Entry("ring"), "invariant_factors": [Factor],
               "action": [(int, int, int)]},
    "presheaf": {"over": Entry("category"),
                 "fibers": Map("objects", [New("elements")]),
                 "action": [("elements", "arrows", "elements")]},
    "site": {"over": Entry("category"),
             "covers": Map("objects", [["arrows"]])},
    "sheaf": Tagged("construction", {
        "constant": {"space": Entry("space"), "factors": [Factor]},
        "skyscraper": {"space": Entry("space"), "point": "points",
                       "factors": [Factor]}}),
    "sigma": {"over": Entry("category"), "arrows": ["arrows"]},
}


def _check(shape, payload, over=None):
    """Walk `payload` against `shape`; return the value of each entry it
    names, by field.  A given `over` stands in for the `over` field."""
    names, refs = {}, {} if over is None else {"over": over}

    def bad(field, value, want):
        return InvalidEntry("%s: entry %r is not %s"
                            % (field or "payload", value, want))

    def walk(shape, value, field):
        if shape in (int, str, Factor):
            if type(value) is not (int if shape is Factor else shape) or \
                    shape is Factor and value < 0:
                raise bad(field, value, "a string" if shape is str else
                          "an integer" if shape is int else
                          "a non-negative integer")
        elif type(shape) in (str, New):
            new = type(shape) is New
            known = names.setdefault(shape.space if new else shape, set())
            if type(value) is not str or (value in known) is new:
                raise bad(field, value, "a new name" if new
                          else "one of the " + shape)
            known.add(value)
        elif type(shape) is Entry:
            if field not in refs:
                entry = load(value) if value in list() else None
                if entry is None or entry.kind != shape.kind:
                    raise bad(field, value, "a %s entry" % shape.kind)
                refs[field] = entry.value
            names.update((space, set(getattr(refs[field], space)))
                         for space in ("objects", "arrows", "points")
                         if hasattr(refs[field], space))
        elif type(shape) in (builtins.list, tuple):
            fixed = type(shape) is tuple
            if type(value) is not builtins.list or \
                    fixed and len(value) != len(shape):
                raise bad(field, value, "a list of %d entries" % len(shape)
                          if fixed else "a list")
            for s, v in zip(shape if fixed else shape * len(value), value):
                walk(s, v, field)
        elif type(value) is not dict:
            raise bad(field, value, "an object")
        elif type(shape) is Map:
            for k, v in value.items():
                walk(shape.key, k, field)
                walk(shape.value, v, field)
        else:
            if type(shape) is Tagged:
                tag = value.get(shape.tag)
                if type(tag) is not str or tag not in shape.variants:
                    raise bad(shape.tag, tag,
                              "one of " + ", ".join(shape.variants))
                shape = {shape.tag: str, **shape.variants[tag]}
            for f, s in shape.items():
                path = field + "." + f if field else f
                if f not in value and path not in refs:
                    raise InvalidEntry("%s: missing field" % path)
                walk(s, value.get(f), path)

    walk(shape, payload, "")
    return refs


def build(kind, payload, over=None):
    """Check `payload` against `SCHEMA[kind]`, then build its value with
    the owning module's validator.  A category `over` stands in for the
    payload's own `over` field (a presheaf file read over a site)."""
    if type(kind) is not str or kind not in SCHEMA:
        raise InvalidEntry("unknown entry kind %r" % (kind,))
    return _BUILDERS[kind](payload, _check(SCHEMA[kind], payload, over))


# -- payload builders (one per kind; each runs the owner's validator) ---------


def _element(elems, field, i):
    if not 0 <= i < len(elems):
        raise InvalidEntry("%s: element index %r is not in 0..%d"
                           % (field, i, len(elems) - 1))
    return elems[i]


def _build_category(p, refs):
    arrows = p["arrows"]
    return validate_category(p["objects"], [a["id"] for a in arrows],
                             {a["id"]: a["dom"] for a in arrows},
                             {a["id"]: a["cod"] for a in arrows},
                             p["identities"],
                             {(g, f): h for g, f, h in p["compose"]})


def _build_ring(p, refs):
    G = _finite(fp_from_factors(p["invariant_factors"]), InvalidRing)
    elems = G.elements()
    mul = {(_element(elems, "mul", i), _element(elems, "mul", j)):
           _element(elems, "mul", k) for i, j, k in p["mul"]}
    return validate_ring(p["ring_name"], G, mul,
                         _element(elems, "one", p["one"]))


def _build_module(p, refs):
    ring = refs["ring"]
    G = _finite(fp_from_factors(p["invariant_factors"]), InvalidModule)
    relems, melems = ring.elements(), G.elements()
    table = {(_element(relems, "action", r), _element(melems, "action", m)):
             _element(melems, "action", out) for r, m, out in p["action"]}
    return module_from_action_table(ring, G, table)


def _build_site(p, refs):
    cat = refs["over"]
    return cat, validate_topology(cat, {
        A: {maximal_sieve(cat, A)} | {sieve_generate(cat, A, family)
                                      for family in p["covers"].get(A, [])}
        for A in cat.objects})


_BUILDERS = {
    "category": _build_category,
    "space": lambda p, refs: FiniteSpace(
        tuple(p["points"]), frozenset(map(frozenset, p["opens"]))),
    "ring": _build_ring,
    "module": _build_module,
    "presheaf": lambda p, refs: validate_presheaf(
        refs["over"], p["fibers"], {(s, f): v for s, f, v in p["action"]}),
    "site": _build_site,
    "sheaf": lambda p, refs: (
        constant_sheaf(refs["space"], p["factors"])
        if p["construction"] == "constant"
        else skyscraper_sheaf(refs["space"], p["point"], p["factors"])),
    "sigma": lambda p, refs: (
        refs["over"], normalize_arrow_class(refs["over"], p["arrows"])),
}


# -- writers: the payload of a library object, as `build` reads it -----------


def category_to_payload(C: FinCategory) -> dict:
    return {"objects": builtins.list(C.objects),
            "arrows": [{"id": f, "dom": C.dom[f], "cod": C.cod[f]}
                       for f in C.arrows],
            "compose": [[g, f, h]
                        for (g, f), h in sorted(C.compose_table.items())],
            "identities": {o: C.identity[o] for o in C.objects}}


def space_to_payload(X: FiniteSpace) -> dict:
    return {"points": sorted(X.points), "opens": sorted(map(sorted, X.opens))}


def presheaf_to_payload(F: Presheaf, over: str) -> dict:
    return {"over": over,
            "fibers": {o: builtins.list(F.fibers[o]) for o in F.cat.objects},
            "action": sorted([s, f, v] for (s, f), v in F.action.items())}


def ring_to_payload(R: FiniteRing) -> dict:
    elems = R.elements()
    idx = {e: i for i, e in enumerate(elems)}
    return {
        "ring_name": R.name,
        "invariant_factors": builtins.list(R.additive.invariant_factors),
        "one": idx[R.one],
        "mul": sorted([idx[a], idx[b], idx[c]]
                      for (a, b), c in R.mul.items()),
    }


def module_to_payload(M: FiniteModule, ring_entry: str) -> dict:
    relems = M.ring.elements()
    melems = M.elements()
    ridx = {e: i for i, e in enumerate(relems)}
    midx = {e: i for i, e in enumerate(melems)}
    return {
        "ring": ring_entry,
        "invariant_factors": builtins.list(M.additive.invariant_factors),
        "action": sorted([ridx[r], midx[m], midx[M.act(r, m)]]
                         for r in relems for m in melems),
    }
