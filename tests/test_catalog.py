"""Tests for the built-in example catalog: every entry validates on
load, dump round-trips bit-exactly, each writer's payload builds back the
object it was written from, and pinned shapes match independent
enumeration."""
import importlib.util
import itertools
import json
import pathlib

import pytest

from groundwork import catalog
from groundwork.fincat import (FinCategory, one_object_group,
                               validate_category, walking_arrow)
from groundwork.frac import check_ore
from groundwork.modres import (FiniteModule, FiniteRing, regular_module,
                               ring_f2x, ring_zmod, zmod_module)
from groundwork.presheaf import Presheaf, representable, validate_presheaf
from groundwork.shcoh import AbelianSheaf
from groundwork.site import (FiniteSpace, GrothendieckTopology,
                             discrete_space, pseudo_circle, pseudo_sphere_6)


def test_list_has_at_least_twelve_entries():
    names = catalog.list()
    assert len(names) >= 12
    assert names == sorted(names)
    for required in ["walking-arrow", "square-poset", "pseudo-circle",
                     "pseudo-sphere-6", "Z2", "Z4", "Z6", "F2x"]:
        assert required in names


def test_every_entry_validates_on_load():
    expected = {
        "category": FinCategory, "space": FiniteSpace,
        "ring": FiniteRing, "module": FiniteModule,
        "presheaf": Presheaf, "sheaf": AbelianSheaf,
        "site": tuple, "sigma": tuple,
    }
    for name in catalog.list():
        e = catalog.load(name)
        assert e.name == name
        assert isinstance(e.value, expected[e.kind])
        assert e.note


def test_unknown_name_raises(tmp_path):
    with pytest.raises(catalog.UnknownEntry):
        catalog.load("no-such-entry")
    with pytest.raises(catalog.UnknownEntry):
        catalog.dump("no-such-entry", tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_dump_of_unknown_name_leaves_destination_alone(tmp_path):
    dest = tmp_path / "keep.json"
    dest.write_bytes(b"precious\n")
    with pytest.raises(catalog.UnknownEntry):
        catalog.dump("zz", dest)
    assert dest.read_bytes() == b"precious\n"


def test_dump_round_trips_bit_exact(tmp_path):
    for name in catalog.list():
        out = tmp_path / (name + ".json")
        catalog.dump(name, out)
        src = catalog._resource(name)
        assert out.read_bytes() == src.read_bytes()
        # and the dumped file still parses into the same payload
        assert json.loads(out.read_text())["payload"] == \
            catalog.load(name).payload


def test_make_catalog_reproduces_shipped_files():
    """tools/make_catalog.py, run in memory, rebuilds every shipped data
    file byte for byte."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
        "make_catalog.py"
    spec = importlib.util.spec_from_file_location("make_catalog", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sorted(entry[0] for entry in tool.ENTRIES) == catalog.list()
    for entry in tool.ENTRIES:
        assert tool.render(*entry).encode() == \
            catalog._resource(entry[0]).read_bytes(), entry[0]


def test_pseudo_circle_shape():
    X = catalog.load("pseudo-circle").value
    assert len(X.points) == 4
    assert len(X.opens) == 7


def strict_chains(X: FiniteSpace):
    """Nonempty chains of the specialization order (the order complex)."""
    pts = sorted(X.points)
    chains = []
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            ordered = sorted(
                combo,
                key=lambda p: sum(1 for q in pts
                                  if X.specialization_leq(q, p)))
            if all(X.specialization_leq(ordered[i], ordered[i + 1])
                   and ordered[i] != ordered[i + 1]
                   for i in range(len(ordered) - 1)):
                chains.append(tuple(ordered))
    return chains


def test_pseudo_sphere_order_complex_has_26_nonempty_chains():
    X = catalog.load("pseudo-sphere-6").value
    chains = strict_chains(X)
    assert len(chains) == 26
    by_dim = {}
    for c in chains:
        by_dim[len(c) - 1] = by_dim.get(len(c) - 1, 0) + 1
    # f-vector of the octahedron boundary: 6 vertices, 12 edges, 8 faces
    assert by_dim == {0: 6, 1: 12, 2: 8}


def test_pseudo_circle_order_complex_is_a_square():
    chains = strict_chains(catalog.load("pseudo-circle").value)
    by_dim = {}
    for c in chains:
        by_dim[len(c) - 1] = by_dim.get(len(c) - 1, 0) + 1
    assert by_dim == {0: 4, 1: 4}


def test_sigma_entries_satisfy_ore_conditions():
    for name in ["sigma-walking-arrow", "sigma-square-poset"]:
        C, sigma = catalog.load(name).value
        assert check_ore(C, sigma).ok


def test_site_entry_covers_are_a_topology():
    C, J = catalog.load("square-site").value
    assert isinstance(J, GrothendieckTopology)
    assert len(J.covers["1"]) >= 2    # maximal sieve plus the two-leg cover


def test_category_payloads_revalidate_from_raw_tables():
    for name in ["walking-arrow", "terminal", "square-poset", "span",
                 "cospan"]:
        p = catalog.load(name).payload
        C = validate_category(
            tuple(p["objects"]),
            tuple(a["id"] for a in p["arrows"]),
            {a["id"]: a["dom"] for a in p["arrows"]},
            {a["id"]: a["cod"] for a in p["arrows"]},
            dict(p["identities"]),
            {(g, f): h for g, f, h in p["compose"]})
        assert C == catalog.load(name).value


def test_ring_entries_have_expected_orders():
    orders = {"Z2": 2, "Z4": 4, "Z6": 6, "F2x": 4}
    for name, order in orders.items():
        R = catalog.load(name).value
        assert len(R.elements()) == order
    M = catalog.load("Z2-over-Z4").value
    assert M.order() == 2 and M.ring.name == "Z4"


def test_presheaf_entry_is_representable_at_1():
    F = catalog.load("yoneda-presheaf").value
    assert set(F.fibers["0"]) == {"a"}
    assert set(F.fibers["1"]) == {"id1"}


# -- writers: build(kind, writer(x)) gives x back -----------------------------


def z3_category():
    table = {("e", "e"): "e", ("e", "g"): "g", ("e", "g2"): "g2",
             ("g", "e"): "g", ("g", "g"): "g2", ("g", "g2"): "e",
             ("g2", "e"): "g2", ("g2", "g"): "e", ("g2", "g2"): "g"}
    return one_object_group(["e", "g", "g2"], lambda a, b: table[(a, b)],
                            "e")


def test_category_round_trip():
    for C in (walking_arrow(), z3_category()):
        assert catalog.build("category", catalog.category_to_payload(C)) == C


def test_space_round_trip():
    for X in (pseudo_circle(), pseudo_sphere_6(), discrete_space(("p", "q"))):
        assert catalog.build("space", catalog.space_to_payload(X)) == X


def test_presheaf_round_trip():
    """F(1) = {x, y} and F(0) = {u} on the walking arrow, both collapsing
    to u; read over the catalog entry, and over a category given instead."""
    C = walking_arrow()
    F = validate_presheaf(C, {"0": ("u",), "1": ("x", "y")},
                          {("u", "id0"): "u", ("x", "id1"): "x",
                           ("y", "id1"): "y", ("x", "a"): "u",
                           ("y", "a"): "u"})
    payload = catalog.presheaf_to_payload(F, "walking-arrow")
    assert catalog.build("presheaf", payload) == F
    assert catalog.build("presheaf", payload, over=C) == F
    G = representable(C, "1")
    assert catalog.build("presheaf",
                         catalog.presheaf_to_payload(G, "walking-arrow")) == G


def test_ring_round_trip():
    for R in (ring_zmod(4), ring_zmod(6), ring_f2x()):
        S = catalog.build("ring", catalog.ring_to_payload(R))
        assert (S.name, S.additive.invariant_factors, S.one, S.mul) == \
            (R.name, R.additive.invariant_factors, R.one, R.mul)


def test_module_round_trip():
    R = catalog.load("Z4").value
    for M in (zmod_module(R, 2), regular_module(R)):
        N = catalog.build("module", catalog.module_to_payload(M, "Z4"))
        assert N.ring.name == R.name
        assert N.additive.invariant_factors == M.additive.invariant_factors
        assert {(r, m): N.act(r, m) for r in R.elements()
                for m in N.elements()} == \
            {(r, m): M.act(r, m) for r in R.elements() for m in M.elements()}
