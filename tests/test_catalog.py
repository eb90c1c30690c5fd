"""Tests for the built-in example catalog: every entry validates on
load, dump round-trips bit-exactly, and pinned shapes match independent
enumeration."""
import importlib.util
import itertools
import json
import pathlib

import pytest

from groundwork import catalog
from groundwork.fincat import FinCategory, validate_category
from groundwork.frac import check_ore
from groundwork.modres import FiniteModule, FiniteRing
from groundwork.presheaf import Presheaf
from groundwork.shcoh import AbelianSheaf
from groundwork.site import FiniteSpace, GrothendieckTopology


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


def test_unknown_name_raises():
    with pytest.raises(catalog.UnknownEntry):
        catalog.load("no-such-entry")
    with pytest.raises(catalog.UnknownEntry):
        catalog.dump("no-such-entry", "/tmp/x.json")


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
