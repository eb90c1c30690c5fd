"""Regenerate the JSON data files under src/groundwork/catalog/.

Every payload is produced by the library's own constructors and the
writers in `groundwork.catalog` (`category_to_payload`,
`space_to_payload`, `presheaf_to_payload`, `ring_to_payload`,
`module_to_payload`), the module that also reads them back, so the files
stay in sync with the schema and validators.  Output is deterministic
(sorted keys, two-space indent, trailing newline).
"""
import json
import pathlib

from groundwork.catalog import (category_to_payload, module_to_payload,
                                presheaf_to_payload, ring_to_payload,
                                space_to_payload)
from groundwork.fincat import (poset_category, terminal_category,
                               walking_arrow)
from groundwork.modres import ring_f2x, ring_zmod, zmod_module
from groundwork.presheaf import representable
from groundwork.site import (discrete_space, pseudo_circle,
                             pseudo_sphere_6, space_from_minimal_opens)

OUT = pathlib.Path(__file__).resolve().parent.parent \
    / "src" / "groundwork" / "catalog"


def square_poset():
    leq = {("0", "0"), ("x", "x"), ("y", "y"), ("1", "1"), ("0", "x"),
           ("0", "y"), ("0", "1"), ("x", "1"), ("y", "1")}
    return poset_category(("0", "x", "y", "1"),
                          lambda a, b: (a, b) in leq)


def span():
    return poset_category(
        ("l", "c", "r"),
        lambda x, y: x == y or (x == "c" and y in ("l", "r")))


def cospan():
    return poset_category(
        ("l", "c", "r"),
        lambda x, y: x == y or (y == "c" and x in ("l", "r")))


def interval_3():
    return space_from_minimal_opens(
        ("a", "b", "c"), {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}})


ENTRIES = [
    ("walking-arrow", "category",
     "free-standing arrow 0 -> 1",
     lambda: category_to_payload(walking_arrow())),
    ("terminal", "category",
     "one object, one identity arrow",
     lambda: category_to_payload(terminal_category())),
    ("square-poset", "category",
     "poset 0 < x, y < 1 viewed as a category",
     lambda: category_to_payload(square_poset())),
    ("span", "category",
     "poset with c below l and r (two arrows out of the middle)",
     lambda: category_to_payload(span())),
    ("cospan", "category",
     "poset with l and r below c (two arrows into the middle); with "
     "sigma = {l<=c} the right Ore square condition fails",
     lambda: category_to_payload(cospan())),
    ("pseudo-circle", "space",
     "4-point model of the circle: two closed points each below two "
     "open points",
     lambda: space_to_payload(pseudo_circle())),
    ("pseudo-sphere-6", "space",
     "6-point model of the 2-sphere (non-Hausdorff suspension of the "
     "pseudo-circle)",
     lambda: space_to_payload(pseudo_sphere_6())),
    ("interval-3", "space",
     "3-point contractible space: one generic point over two closed "
     "points",
     lambda: space_to_payload(interval_3())),
    ("discrete-2", "space",
     "two-point discrete space",
     lambda: space_to_payload(discrete_space(("p", "q")))),
    ("Z2", "ring", "the field Z/2",
     lambda: ring_to_payload(ring_zmod(2))),
    ("Z4", "ring", "Z/4, the smallest non-semisimple Z/n",
     lambda: ring_to_payload(ring_zmod(4))),
    ("Z6", "ring", "Z/6 = Z/2 x Z/3, semisimple but not a field",
     lambda: ring_to_payload(ring_zmod(6))),
    ("F2x", "ring", "F2[x]/(x^2), local with nilpotents",
     lambda: ring_to_payload(ring_f2x())),
    ("Z2-over-Z4", "module",
     "Z/2 as a Z/4-module via reduction",
     lambda: module_to_payload(zmod_module(ring_zmod(4), 2), "Z4")),
    ("yoneda-presheaf", "presheaf",
     "the representable presheaf at object 1 of the walking arrow",
     lambda: presheaf_to_payload(representable(walking_arrow(), "1"),
                                 "walking-arrow")),
    ("square-presheaf", "presheaf",
     "the representable presheaf at the top object of the square poset",
     lambda: presheaf_to_payload(representable(square_poset(), "1"),
                                 "square-poset")),
    ("square-site", "site",
     "square poset with {x<=1, y<=1} covering the top object",
     lambda: {"over": "square-poset",
              "covers": {"1": [["x<=1", "y<=1"]]}}),
    ("constant-Z3-pseudo-circle", "sheaf",
     "constant sheaf Z/3 on the pseudo-circle",
     lambda: {"space": "pseudo-circle", "construction": "constant",
              "factors": [3]}),
    ("skyscraper-Z4-pseudo-circle", "sheaf",
     "skyscraper Z/4 at the closed point a of the pseudo-circle",
     lambda: {"space": "pseudo-circle", "construction": "skyscraper",
              "point": "a", "factors": [4]}),
    ("sigma-walking-arrow", "sigma",
     "the non-identity arrow of the walking arrow",
     lambda: {"over": "walking-arrow", "arrows": ["a"]}),
    ("sigma-square-poset", "sigma",
     "one lower edge of the square poset",
     lambda: {"over": "square-poset", "arrows": ["0<=x"]}),
]


def render(name, kind, note, make):
    """The text of one entry's data file."""
    data = {"name": name, "kind": kind, "note": note, "payload": make()}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def main():
    OUT.mkdir(exist_ok=True)
    for entry in ENTRIES:
        (OUT / (entry[0] + ".json")).write_text(render(*entry))
        print("wrote", entry[0])


if __name__ == "__main__":
    main()
