"""Built-in example objects shared by tests, docs, and the CLI.

Entries live as JSON data files under ``groundwork/catalog/`` so that
alternate-language ports can share them byte for byte.  Each file is an
envelope ``{"name", "kind", "note", "payload"}``; the payload follows the
schema of the owning module (category, finite space, site covers,
presheaf, ring, module, sheaf construction, or arrow class) and is run
through that module's validator on load.
"""
import builtins
import json
import shutil
from dataclasses import dataclass
from importlib import resources

from .fincat import category_from_json
from .fpgroup import fp_from_factors
from .frac import normalize_arrow_class
from .modres import (FiniteModule, FiniteRing, module_from_action_table,
                     validate_ring)
from .presheaf import presheaf_from_json_obj
from .shcoh import constant_sheaf, skyscraper_sheaf
from .site import site_covers_from_json_obj, space_from_json


class UnknownEntry(KeyError):
    pass


class InvalidEntry(ValueError):
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
    return resources.files(__package__) / "catalog" / (name + ".json")


def list():
    """Sorted names of every catalog entry."""
    folder = resources.files(__package__) / "catalog"
    return sorted(p.name[:-len(".json")] for p in folder.iterdir()
                  if p.name.endswith(".json"))


def load(name: str) -> CatalogEntry:
    """Read, validate, and return the named entry."""
    path = _resource(name)
    if not path.is_file():
        raise UnknownEntry(name)
    data = json.loads(path.read_text())
    if data.get("name") != name:
        raise InvalidEntry("entry %r is stored under name %r"
                           % (name, data.get("name")))
    kind, payload = data["kind"], data["payload"]
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise InvalidEntry("unknown entry kind %r" % (kind,))
    return CatalogEntry(name, kind, data.get("note", ""), payload,
                        builder(payload))


def dump(name: str, path) -> None:
    """Write the named entry's JSON file to `path`, byte for byte."""
    src = _resource(name)
    if not src.is_file():
        raise UnknownEntry(name)
    with resources.as_file(src) as concrete:
        shutil.copyfile(concrete, path)


# -- payload builders (one per kind; each runs the owner's validator) ---------


def _build_category(payload):
    return category_from_json(json.dumps(payload))


def _build_space(payload):
    return space_from_json(json.dumps(payload))


def _element(elems, field, i):
    """elems[i] for a payload index i, which must be an int in range."""
    if type(i) is not int or not 0 <= i < len(elems):
        raise InvalidEntry("%s: element index %r is not in 0..%d"
                           % (field, i, len(elems) - 1))
    return elems[i]


def _triples(payload, field):
    """The payload's entries under field, each a list of three indices."""
    for entry in payload[field]:
        if type(entry) is not builtins.list or len(entry) != 3:
            raise InvalidEntry("%s: entry %r is not a list of three indices"
                               % (field, entry))
    return payload[field]


def _build_ring(payload):
    G = fp_from_factors(payload["invariant_factors"])
    elems = G.elements()
    mul = {(_element(elems, "mul", i), _element(elems, "mul", j)):
           _element(elems, "mul", k) for i, j, k in _triples(payload, "mul")}
    return validate_ring(payload["ring_name"], G, mul,
                         _element(elems, "one", payload["one"]))


def _build_module(payload):
    ring = load(payload["ring"]).value
    G = fp_from_factors(payload["invariant_factors"])
    relems = ring.elements()
    melems = G.elements()
    table = {(_element(relems, "action", r), _element(melems, "action", m)):
             _element(melems, "action", out)
             for r, m, out in _triples(payload, "action")}
    return module_from_action_table(ring, G, table)


def _build_presheaf(payload):
    cat = load(payload["over"]).value
    return presheaf_from_json_obj(payload, cat)


def _build_site(payload):
    cat = load(payload["over"]).value
    return cat, site_covers_from_json_obj(cat, payload)


def _build_sheaf(payload):
    X = load(payload["space"]).value
    if payload["construction"] == "constant":
        return constant_sheaf(X, payload["factors"])
    if payload["construction"] == "skyscraper":
        return skyscraper_sheaf(X, payload["point"], payload["factors"])
    raise InvalidEntry("unknown sheaf construction %r"
                       % (payload["construction"],))


def _build_sigma(payload):
    cat = load(payload["over"]).value
    return cat, normalize_arrow_class(cat, payload["arrows"])


_BUILDERS = {
    "category": _build_category,
    "space": _build_space,
    "ring": _build_ring,
    "module": _build_module,
    "presheaf": _build_presheaf,
    "site": _build_site,
    "sheaf": _build_sheaf,
    "sigma": _build_sigma,
}


# -- serialization helpers used to produce (and test) the data files ----------


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
