"""End-to-end tests for the `gw` command line: pinned reports, the
exit-code contract (0 success, 1 semantic failure, 2 input error,
3 resource cap), format equivalence, byte-for-byte determinism, and
mutated catalog payloads, which exit 2 when mis-shaped and never end in a
traceback."""
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundwork import catalog, cli
from groundwork.cli import main
from groundwork.frac import OreFailure, normalize_arrow_class


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_both(*argv):
    """`run`, after checking that the `--format json` report says the
    same."""
    code, text = run(*argv)
    code_j, blob = run("--format", "json", *argv)
    assert (code_j, json.loads(blob)) == \
        (code, {"exit": code, "lines": text.splitlines()})
    return code, text


# every README command that needs no input file, with its documented exit
README_COMMANDS = [
    (["catalog", "list"], 0),
    (["cohomology", "--space", "pseudo-circle", "--coef", "Z3",
      "--max-degree", "2"], 0),
    (["cech", "--space", "pseudo-circle", "--coef", "Z3",
      "--cover", "a,b,c", "--cover", "a,b,d"], 0),
    (["les", "--space", "interval-3", "--kind", "const", "--d", "2",
      "--e", "2", "--max-degree", "2"], 0),
    (["ext", "--ring", "Z4", "--module", "Z2", "--against", "Z2",
      "--max-degree", "3"], 0),
    (["resolve", "--ring", "F2x", "--module", "Z2", "--length", "2"], 0),
    (["baer", "--ring", "Z4", "--module", "regular"], 0),
    (["localize", "--category", "walking-arrow", "--sigma", "a"], 0),
    (["ore", "--category", "cospan", "--sigma", "l<=c"], 1),
    (["sheafify", "--site", "square-site", "--presheaf",
      "square-presheaf"], 0),
    (["yoneda-check", "--category", "square-poset", "--object", "1"], 0),
]


@pytest.mark.parametrize("argv,code", README_COMMANDS,
                         ids=[a[0] for a, _ in README_COMMANDS])
def test_readme_command_exit_code(argv, code):
    assert run(*argv)[0] == code


def test_resolve_f2x_readme_example_pinned():
    # Z/2 is an F2[x]/(x^2)-module through the augmentation x -> 0
    code, out = run("resolve", "--ring", "F2x", "--module", "Z2",
                    "--length", "2")
    assert code == 0
    assert out.splitlines() == [
        "I_0 has order 16", "I_1 has order 64", "I_2 has order 64",
        "monic embedding, exactness, d o d = 0: verified"]


def test_cohomology_pinned_example():
    code, out = run("cohomology", "--space", "pseudo-circle",
                    "--coef", "Z3", "--max-degree", "2")
    assert code == 0
    assert out == "H^0 = Z/3\nH^1 = Z/3\nH^2 = 0\n"


def test_ext_pinned_example():
    code, out = run("ext", "--ring", "Z4", "--module", "Z2",
                    "--against", "Z2", "--max-degree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("order 2") for line in lines)


def test_localize_pinned_example():
    code, out = run("localize", "--category", "walking-arrow",
                    "--sigma", "a")
    assert code == 0
    assert out.strip().splitlines() == [
        "0 => 0 : {<id0|id0>}", "0 => 1 : {<id0|a>}",
        "1 => 0 : {<a|id0>}", "1 => 1 : {<a|a>}"]


def test_validate_catalog_file(tmp_path):
    path = tmp_path / "wa.json"
    catalog.dump("walking-arrow", path)
    code, out = run("validate", str(path))
    assert code == 0
    assert "OK" in out


def test_validate_corrupted_compose_table_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    catalog.dump("walking-arrow", path)
    data = json.loads(path.read_text())
    # redirect a composite to the wrong arrow
    data["payload"]["compose"] = [
        [g, f, ("id0" if h == "a" else h)]
        for g, f, h in data["payload"]["compose"]]
    path.write_text(json.dumps(data))
    code, out = run("validate", str(path))
    assert code == 1
    assert "failure" in out


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out = run("validate", str(path))
    assert code == 2


@pytest.mark.parametrize("entry,field,value,index", [
    ("Z4", "one", 99, 99),
    ("Z4", "mul", [0, 0, -9], -9),
    ("Z2-over-Z4", "action", [0, 0, 7], 7),
    ("Z4", "one", -1, -1),
    ("Z4", "mul", [-1, 0, 0], -1),
    ("Z2-over-Z4", "action", [0, -1, 0], -1),
])
def test_validate_element_index_out_of_range_exits_2(tmp_path, entry, field,
                                                     value, index):
    # a negative index must not wrap round to another element
    path = tmp_path / "bad.json"
    catalog.dump(entry, path)
    data = json.loads(path.read_text())
    if field == "one":
        data["payload"]["one"] = value
    else:
        data["payload"][field][0] = value
    path.write_text(json.dumps(data))
    code, out = run("validate", str(path))
    assert code == 2
    assert out.startswith("input error: ")
    assert "%s: element index %d " % (field, index) in out


@pytest.mark.parametrize("entry,field", [("Z4", "mul"),
                                         ("Z2-over-Z4", "action")])
@pytest.mark.parametrize("value", [[0, 0], [0, 0, 0, 0], 5])
def test_validate_malformed_triple_exits_2(tmp_path, entry, field, value):
    path = tmp_path / "bad.json"
    catalog.dump(entry, path)
    data = json.loads(path.read_text())
    data["payload"][field][0] = value
    path.write_text(json.dumps(data))
    code, out = run("validate", str(path))
    assert code == 2
    assert out.startswith("input error: %s: entry %r " % (field, value))


def test_unknown_catalog_name_exits_2():
    code, out = run("cohomology", "--space", "nope", "--coef", "Z2")
    assert code == 2


def test_resource_cap_exits_3(monkeypatch):
    monkeypatch.setenv("GW_ELEMENT_CAP", "10")
    code, out = run("resolve", "--ring", "Z4", "--module", "Z2",
                    "--length", "1")
    assert code == 3
    assert "resource cap" in out


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "1.5", ""])
def test_invalid_element_cap_is_an_input_error(monkeypatch, cap):
    monkeypatch.setenv("GW_ELEMENT_CAP", cap)
    code, out = run("resolve", "--ring", "Z4", "--module", "Z2",
                    "--length", "1")
    assert code == 2
    assert out.startswith("input error: GW_ELEMENT_CAP")


def test_ore_failure_prints_witness_and_exits_1():
    code, out = run("ore", "--category", "cospan", "--sigma", "l<=c")
    assert code == 1
    assert "('OreSquare', 'r<=c', 'l<=c')" in out
    code, out = run("ore", "--category", "walking-arrow", "--sigma", "a")
    assert code == 0


def test_les_verified():
    code, out = run("les", "--space", "interval-3", "--kind", "const",
                    "--d", "2", "--e", "2", "--max-degree", "1")
    assert code == 0
    assert "H^0(F) = Z/4" in out
    assert "verified" in out


def test_les_readme_example_pinned():
    code, out = run("les", "--space", "interval-3", "--kind", "const",
                    "--d", "2", "--e", "2", "--max-degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "0 -> Z/2 -> Z/4 -> Z/2 -> 0 (const)",
        "H^0(F') = Z/2", "H^0(F) = Z/4", "H^0(F'') = Z/2",
        "H^1(F') = 0", "H^1(F) = 0", "H^1(F'') = 0",
        "H^2(F') = 0", "H^2(F) = 0", "H^2(F'') = 0",
        "long exact sequence verified through degree 2"]


def test_les_header_prints_free_groups_as_z():
    code, out = run("les", "--space", "interval-3", "--kind", "const",
                    "--d", "0", "--e", "2", "--max-degree", "1")
    assert code == 0
    assert out.splitlines()[:4] == [
        "0 -> Z -> Z -> Z/2 -> 0 (const)",
        "H^0(F') = Z", "H^0(F) = Z", "H^0(F'') = Z/2"]


def test_les_header_prints_trivial_groups_as_0():
    code, out = run("les", "--space", "interval-3", "--kind", "const",
                    "--d", "1", "--e", "2", "--max-degree", "0")
    assert code == 0
    assert out.splitlines()[:2] == [
        "0 -> 0 -> Z/2 -> Z/2 -> 0 (const)", "H^0(F') = 0"]


def test_les_seeded_is_deterministic():
    a = run("les", "--space", "interval-3", "--seed", "5",
            "--max-degree", "1")
    b = run("les", "--space", "interval-3", "--seed", "5",
            "--max-degree", "1")
    assert a == b and a[0] == 0


def test_cech_two_arc_cover():
    code, out = run("cech", "--space", "pseudo-circle", "--coef", "Z3",
                    "--cover", "a,b,c", "--cover", "a,b,d",
                    "--max-degree", "1")
    assert code == 0
    assert out == "Hcech^0 = Z/3\nHcech^1 = Z/3\n"


def test_cech_free_coefficients_print_z():
    code, out = run("cech", "--space", "pseudo-circle", "--coef", "Z0",
                    "--cover", "a,b,c", "--cover", "a,b,d",
                    "--max-degree", "1")
    assert code == 0
    assert out == "Hcech^0 = Z\nHcech^1 = Z\n"
    code, out = run("cech", "--space", "pseudo-circle", "--coef", "Z0+Z2",
                    "--cover", "a,b,c", "--cover", "a,b,d",
                    "--max-degree", "1")
    assert code == 0
    assert out == "Hcech^0 = Z/2 ⊕ Z\nHcech^1 = Z/2 ⊕ Z\n"


def test_cohomology_free_coefficients_exit_1():
    code, out = run("cohomology", "--space", "pseudo-circle", "--coef", "Z0")
    assert code == 1
    assert out == ("failure: the stalk at 'a' has a free summand Z; the "
                   "divisible route needs finite stalks\n")
    code, out = run("--format", "json", "cohomology", "--space",
                    "pseudo-circle", "--coef", "Z0")
    assert code == 1 and json.loads(out)["exit"] == 1


def test_cech_non_cover_exits_1():
    code, out = run("cech", "--space", "pseudo-circle", "--coef", "Z3",
                    "--cover", "a,b,c", "--max-degree", "1")
    assert code == 1


def test_sheafify_and_is_sheaf():
    code, out = run("sheafify", "--site", "square-site",
                    "--presheaf", "square-presheaf")
    assert code == 0
    assert "unit F -> aF is iso: yes" in out
    code, out = run("is-sheaf", "--site", "square-site",
                    "--presheaf", "square-presheaf")
    assert code == 0


def test_yoneda_check():
    code, out = run("yoneda-check", "--category", "square-poset",
                    "--object", "1")
    assert code == 0
    assert "round-trip bijection verified" in out


def test_baer_verdicts():
    assert run("baer", "--ring", "Z4", "--module", "regular")[0] == 0
    code, out = run("baer", "--ring", "Z4", "--module", "Z2")
    assert code == 1
    assert "witness ideal" in out


def test_mtt_check_exit_codes(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("forall x in A. x = x\n# comment\nexists y in A. y in A\n")
    assert run("mtt", "check", str(good), "--delta0")[0] == 0
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("exists y. y in A\n")
    code, out = run("mtt", "check", str(mixed), "--delta0")
    assert code == 1 and "not Delta0" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("forall x in\n")
    assert run("mtt", "check", str(bad))[0] == 2


def test_mtt_abstract_mode(tmp_path):
    f = tmp_path / "terms.txt"
    f.write_text("{x | x in1 A3 and x in1 B3}\n")
    code, out = run("mtt", "check", str(f), "--abstract")
    assert code == 0 and "Class" in out


def test_catalog_subcommand(tmp_path):
    code, out = run("catalog", "list")
    assert code == 0
    assert "pseudo-circle" in out.splitlines()
    code, out = run("catalog", "show", "Z4")
    assert code == 0 and "kind: ring" in out
    dest = tmp_path / "z4.json"
    code, out = run("catalog", "dump", "Z4", str(dest))
    assert code == 0 and dest.exists()


def test_catalog_dump_of_unknown_name_leaves_destination_alone(tmp_path):
    dest = tmp_path / "important.json"
    dest.write_bytes(b"{}\n")
    code, out = run("catalog", "dump", "zz", str(dest))
    assert code == 2 and "input error" in out
    assert dest.read_bytes() == b"{}\n"


def test_json_format_matches_text_content():
    for argv in [["cohomology", "--space", "pseudo-circle",
                  "--coef", "Z2", "--max-degree", "1"],
                 ["localize", "--category", "walking-arrow",
                  "--sigma", "a"],
                 ["ore", "--category", "cospan", "--sigma", "l<=c"]]:
        code_t, text = run(*argv)
        code_j, blob = run("--format", "json", *argv)
        data = json.loads(blob)
        assert code_j == code_t == data["exit"]
        assert data["lines"] == text.splitlines()


def test_identical_invocations_are_byte_identical():
    argv = ["ext", "--ring", "F2x", "--module", "Z2", "--against", "Z2",
            "--max-degree", "2"]
    assert run(*argv) == run(*argv)


MISSING_ARGUMENTS = [
    (["catalog", "show"], "catalog show needs an entry name"),
    (["catalog", "dump"], "catalog dump needs an entry name"),
    (["catalog", "dump", "Z2"], "catalog dump needs a destination path"),
    (["cohomology", "--max-degree", "1"],
     "give --sheaf, or --space with --coef"),
    (["cohomology", "--space", "pseudo-circle"],
     "give --sheaf, or --space with --coef"),
    (["cech", "--space", "pseudo-circle", "--cover", "a,b,c"],
     "give --sheaf, or --space with --coef"),
    (["les", "--space", "interval-3", "--kind", "const", "--d", "2"],
     "--kind needs both --d and --e"),
]


@pytest.mark.parametrize("argv,message", MISSING_ARGUMENTS,
                         ids=[" ".join(a) for a, _ in MISSING_ARGUMENTS])
def test_missing_argument_is_an_input_error(argv, message):
    assert run(*argv) == (2, "input error: %s\n" % message)
    code, blob = run("--format", "json", *argv)
    assert code == 2
    assert json.loads(blob) == {"exit": 2,
                                "lines": ["input error: %s" % message]}


NEGATIVE_COUNTS = [
    ["cohomology", "--space", "pseudo-circle", "--coef", "Z2",
     "--max-degree", "-1"],
    ["cech", "--space", "pseudo-circle", "--coef", "Z2", "--cover", "a,b,c",
     "--max-degree", "-1"],
    ["les", "--space", "interval-3", "--max-degree", "-1"],
    ["ext", "--ring", "Z4", "--module", "Z2", "--against", "Z2",
     "--max-degree", "-1"],
    ["resolve", "--ring", "Z4", "--module", "Z2", "--length", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS, ids=[a[0] for a in
                                                       NEGATIVE_COUNTS])
def test_negative_degree_or_length_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        run(*argv)
    assert e.value.code == 2
    assert "'-1' is not a non-negative integer" in capsys.readouterr().err


def test_mtt_set_theoretic_sees_subset_inside_separation(tmp_path):
    f = tmp_path / "collection.txt"
    f.write_text("(x in {y in a | Y sub Z}) and (U in2 Y) and (U in2 Z)\n")
    assert run("mtt", "check", str(f), "--set-theoretic") == \
        (1, "line 1: not set-theoretic\n")


def test_mtt_abstract_unknown_sort_is_a_parse_error(tmp_path):
    f = tmp_path / "terms.txt"
    f.write_text("{x:Foo | x = x}\n")
    assert run("mtt", "check", str(f), "--abstract") == \
        (2, "input error: unknown sort 'Foo'\n")


# -- malformed payloads and files ---------------------------------------------


def write_entry(path, name, mutate):
    data = json.loads(catalog._resource(name).read_text())
    mutate(data["payload"])
    path.write_text(json.dumps(data))


MALFORMED_PAYLOADS = [
    ("walking-arrow", lambda p: p["arrows"].__setitem__(0, "x"),
     "arrows: entry 'x' "),
    ("walking-arrow", lambda p: p["compose"][0].pop(),
     "compose: entry ['a', 'id0'] "),
    ("pseudo-circle", lambda p: p.__setitem__("opens", 5),
     "opens: entry 5 "),
    ("Z2", lambda p: p.__setitem__("invariant_factors", "x"),
     "invariant_factors: entry 'x' "),
    ("skyscraper-Z4-pseudo-circle", lambda p: p.__setitem__("point", "zz"),
     "point: entry 'zz' "),
    ("square-site", lambda p: p["covers"]["1"][0].__setitem__(0, "nope"),
     "covers: entry 'nope' "),
    ("walking-arrow", lambda p: p.pop("objects"), "objects: missing field"),
    ("yoneda-presheaf", lambda p: p.__setitem__("over", "nope"),
     "over: entry 'nope' "),
    ("Z2-over-Z4", lambda p: p.__setitem__("ring", "nope"),
     "ring: entry 'nope' "),
    ("Z2-over-Z4", lambda p: p.__setitem__("ring", "pseudo-circle"),
     "ring: entry 'pseudo-circle' "),
    ("constant-Z3-pseudo-circle", lambda p: p.__setitem__("space", "nope"),
     "space: entry 'nope' "),
    ("constant-Z3-pseudo-circle",
     lambda p: p.__setitem__("construction", "zz"),
     "construction: entry 'zz' "),
]


@pytest.mark.parametrize("name,mutate,message", MALFORMED_PAYLOADS,
                         ids=[m for _, _, m in MALFORMED_PAYLOADS])
def test_validate_malformed_payload_exits_2(tmp_path, name, mutate,
                                            message):
    path = tmp_path / "bad.json"
    write_entry(path, name, mutate)
    code, out = run("validate", str(path))
    assert (code, out[:len("input error: ") + len(message)]) == \
        (2, "input error: " + message)


def test_validate_incomplete_action_table_exits_1(tmp_path):
    """A well-shaped module payload missing any one action entry is a
    semantic failure, whether or not the entry acts on a generator."""
    path = tmp_path / "cut.json"
    table = catalog.load("Z2-over-Z4").payload["action"]
    for r, m, _ in table:
        write_entry(path, "Z2-over-Z4",
                    lambda p: p["action"].remove(next(
                        e for e in p["action"] if e[:2] == [r, m])))
        assert run("validate", str(path)) == \
            (1, "failure: action table incomplete at ((%d,), (%d,))\n"
             % (r, m))


def test_validate_top_level_array_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run("validate", str(path)) == \
        (2, "input error: %s: not an entry object\n" % path)


def test_presheaf_file_of_wrong_shape_exits_2(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"fibers": 5}))
    assert run("sheafify", "--site", "square-site", "--presheaf",
               str(path)) == \
        (2, "input error: fibers: entry 5 is not an object\n")


def test_presheaf_file_is_read_over_the_site_category(tmp_path):
    # a bare payload without "over", and a dumped entry envelope
    bare = tmp_path / "bare.json"
    payload = catalog.load("square-presheaf").payload
    bare.write_text(json.dumps({k: v for k, v in payload.items()
                                if k != "over"}))
    dumped = tmp_path / "dumped.json"
    catalog.dump("square-presheaf", dumped)
    for path in (bare, dumped):
        code, out = run("sheafify", "--site", "square-site", "--presheaf",
                        str(path))
        assert code == 0 and "unit F -> aF is iso: yes" in out


@pytest.mark.parametrize("argv", [
    ["cohomology", "--space", "pseudo-circle", "--coef", "Z2",
     "--skyscraper", "zz"],
    ["cech", "--space", "pseudo-circle", "--coef", "Z2",
     "--skyscraper", "zz", "--cover", "a,b,c"],
    ["les", "--space", "interval-3", "--kind", "sky", "--d", "2",
     "--e", "2", "--point", "zz"],
], ids=["cohomology", "cech", "les"])
def test_unknown_point_exits_2(argv):
    assert run(*argv) == (2, "input error: unknown point 'zz'\n")


@pytest.mark.parametrize("flag", ["--d", "--e"])
def test_les_negative_factor_exits_2(flag, capsys):
    argv = {"--d": "2", "--e": "2", flag: "-2"}
    with pytest.raises(SystemExit) as e:
        run("les", "--space", "interval-3", "--kind", "const",
            *[a for item in argv.items() for a in item])
    assert e.value.code == 2
    assert "'-2' is not a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["validate", "{dir}"],
                                  ["catalog", "dump", "Z2", "{dir}"]],
                         ids=["validate", "dump"])
def test_directory_path_is_an_input_error(tmp_path, argv):
    code, out = run(*[a.format(dir=tmp_path) for a in argv])
    assert code == 2
    assert out.startswith("input error: [Errno 21] Is a directory")


# -- the exit code is the kind of the package's exception ---------------------


UNKNOWN_NAMES = [
    (["localize", "--category", "walking-arrow", "--sigma", "zz"],
     "unknown arrow 'zz'"),
    (["ore", "--category", "walking-arrow", "--sigma", "zz"],
     "unknown arrow 'zz'"),
    (["ore", "--category", "walking-arrow", "--sigma", "a,zz"],
     "unknown arrow 'zz'"),
    (["cech", "--space", "pseudo-circle", "--coef", "Z2", "--cover", "a,zz"],
     "unknown point 'zz'"),
    (["cech", "--space", "pseudo-circle", "--coef", "Z2",
      "--cover", "a,b,c", "--cover", "zz"], "unknown point 'zz'"),
    (["catalog", "show", "zz"], "unknown catalog entry 'zz'"),
    (["ext", "--ring", "Z4", "--module", "zz", "--against", "Z2"],
     "unknown catalog entry 'zz'"),
]


@pytest.mark.parametrize("argv,message", UNKNOWN_NAMES,
                         ids=[" ".join(a) for a, _ in UNKNOWN_NAMES])
def test_unknown_name_is_an_input_error(argv, message):
    assert run_both(*argv) == (2, "input error: %s\n" % message)


def test_unknown_arrow_is_still_an_ore_failure_for_library_callers():
    with pytest.raises(OreFailure, match="unknown arrow 'zz'"):
        normalize_arrow_class(catalog.load("walking-arrow").value, {"zz"})


@pytest.mark.parametrize("cover,message", [
    ("c", "['c'] is not open"),
    ("a,b", "the given opens do not cover the space"),
])
def test_cover_of_known_points_that_fails_exits_1(cover, message):
    assert run_both("cech", "--space", "pseudo-circle", "--coef", "Z2",
                    "--cover", cover) == (1, "failure: %s\n" % message)


def test_resource_cap_message_pinned(monkeypatch):
    monkeypatch.setenv("GW_ELEMENT_CAP", "100")
    assert run_both("resolve", "--ring", "Z4", "--module", "regular") == \
        (3, "resource cap exceeded: coinduced module would exceed 100 "
         "elements\n")


@pytest.mark.parametrize("entry", ["Z4", "Z2-over-Z4"])
def test_validate_infinite_additive_group_exits_1(tmp_path, entry):
    path = tmp_path / "infinite.json"
    write_entry(path, entry,
                lambda p: p.__setitem__("invariant_factors", [0]))
    assert run_both("validate", str(path)) == \
        (1, "failure: additive group must be finite\n")


@pytest.mark.parametrize("entry,field", [
    ("Z4", "invariant_factors"),
    ("Z2-over-Z4", "invariant_factors"),
    ("constant-Z3-pseudo-circle", "factors"),
    ("skyscraper-Z4-pseudo-circle", "factors"),
])
def test_validate_negative_factor_exits_2(tmp_path, entry, field):
    path = tmp_path / "negative.json"
    write_entry(path, entry, lambda p: p.__setitem__(field, [-3]))
    assert run_both("validate", str(path)) == \
        (2, "input error: %s: entry -3 is not a non-negative integer\n"
         % field)


@pytest.mark.parametrize("argv", [
    ["validate", "{file}"],
    ["mtt", "check", "{file}"],
    ["sheafify", "--site", "square-site", "--presheaf", "{file}"],
], ids=["validate", "mtt", "sheafify"])
def test_file_that_is_not_utf8_is_an_input_error(tmp_path, argv):
    path = tmp_path / "latin-1.json"
    path.write_bytes('{"note": "caf\xe9"}'.encode("latin-1"))
    code, out = run_both(*[a.format(file=path) for a in argv])
    assert code == 2
    assert out.startswith("input error: 'utf-8' codec can't decode byte "
                          "0xe9 in position 13")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("error", [ValueError, AssertionError, RuntimeError])
def test_internal_error_propagates_and_reports_nothing(monkeypatch, fmt,
                                                       error):
    def broken(*args):
        raise error("internal")
    monkeypatch.setattr(cli, "sheaf_cohomology", broken)
    out = io.StringIO()
    with pytest.raises(error, match="internal"):
        main(["--format", fmt, "cohomology", "--space", "pseudo-circle",
              "--coef", "Z2"], out=out)
    assert out.getvalue() == ""


# A mutation of a shipped payload: drop a field, give a value of another
# JSON type, cut a list entry, wrap a value in a list, or rename a name
# to one the payload does not define.  All but a cut leave the payload
# mis-shaped; a cut does too when it shortens a three-entry list.
MAPS = ("identities", "fibers", "covers")    # objects keyed by names
TRIPLES = ("compose", "mul", "action")       # lists of three-entry lists
MUTATIONS = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def json_type(value):
    return type(value).__name__


def nodes(value, path=()):
    """(path, value) for every node of a JSON tree, root first."""
    yield path, value
    items = enumerate(value) if isinstance(value, list) else \
        value.items() if isinstance(value, dict) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def mutation_sites(payload):
    sites = []
    for path, value in nodes(payload):
        sites += [("retype", path), ("wrap", path)]
        if isinstance(value, dict) and not (path and path[-1] in MAPS):
            sites += [("drop", path + (k,)) for k in value]
        if isinstance(value, dict) and path and path[-1] in MAPS:
            sites += [("rename-key", path + (k,)) for k in value]
        if isinstance(value, list):
            sites += [("cut", path + (i,)) for i in range(len(value))]
        if isinstance(value, str) and path[-1] != "ring_name":
            sites.append(("rename", path))
    return sites


@st.composite
def mutated(draw, payload):
    """(mutated copy of payload, whether it is mis-shaped)."""
    payload = copy.deepcopy(payload)
    how, path = draw(st.sampled_from(mutation_sites(payload)))
    parent, key = None, None
    value = payload
    for key in path:
        parent, value = value, value[key]
    if how == "retype":
        value = draw(st.sampled_from(
            [v for v in (7, "x", [], {}, None, True, 1.5)
             if json_type(v) != json_type(value)]))
    elif how == "wrap":
        value = [value]
    elif how == "rename":
        value = "zz-undefined"
    elif how == "rename-key":
        parent["zz-undefined"] = parent.pop(key)
    else:       # drop or cut
        del parent[key]
    if how in ("retype", "wrap", "rename"):
        if parent is None:
            payload = value
        else:
            parent[key] = value
    shortened = how == "cut" and len(path) == 3 and path[0] in TRIPLES
    return payload, how != "cut" or shortened


def assert_exit(result, mis_shaped):
    code, out = result
    if mis_shaped or code == 2:
        assert code == 2 and out.startswith("input error: "), out
    else:
        assert code in (0, 1) and (code == 0 or out.startswith("failure: "))


@MUTATIONS
@given(st.data())
def test_mutated_entry_validates_or_exits_2(tmp_path_factory, data):
    name = data.draw(st.sampled_from(catalog.list()))
    entry = catalog.load(name)
    payload, mis_shaped = data.draw(mutated(entry.payload))
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps({"kind": entry.kind, "payload": payload}))
    assert_exit(run("validate", str(path)), mis_shaped)


@MUTATIONS
@given(st.data())
def test_mutated_presheaf_file_sheafifies_or_exits_2(tmp_path_factory, data):
    bare = {k: v for k, v in catalog.load("square-presheaf").payload.items()
            if k != "over"}
    payload, mis_shaped = data.draw(mutated(bare))
    path = tmp_path_factory.getbasetemp() / "mutant-presheaf.json"
    path.write_text(json.dumps(payload))
    assert_exit(run("sheafify", "--site", "square-site", "--presheaf",
                    str(path)), mis_shaped)


# -- catalog names in every name-taking option -------------------------------


@pytest.mark.parametrize("argv,message", [
    (["sheafify", "--site", "square-site", "--presheaf", "yoneda-presheaf"],
     "presheaf 'yoneda-presheaf' is over 'walking-arrow', not 'square-poset'"),
    (["is-sheaf", "--site", "square-site", "--presheaf", "yoneda-presheaf"],
     "presheaf 'yoneda-presheaf' is over 'walking-arrow', not 'square-poset'"),
    (["yoneda-check", "--category", "square-poset", "--object", "0",
      "--presheaf", "yoneda-presheaf"],
     "presheaf 'yoneda-presheaf' is over 'walking-arrow', not 'square-poset'"),
    (["yoneda-check", "--category", "walking-arrow", "--object", "0",
      "--presheaf", "square-presheaf"],
     "presheaf 'square-presheaf' is over 'square-poset', not 'walking-arrow'"),
])
def test_presheaf_over_another_category_exits_2(argv, message):
    assert run_both(*argv) == (2, "input error: %s\n" % message)


KINDS = {name: catalog.load(name).kind for name in catalog.list()}


# each command with its catalog-name options given by the entry kind they
# expect (None for any entry)
NAME_TAKING = [
    ["yoneda-check", "--category", ("category",), "--object", "0"],
    ["yoneda-check", "--category", ("category",), "--object", "0",
     "--presheaf", ("presheaf",)],
    ["sheafify", "--site", ("site",), "--presheaf", ("presheaf",)],
    ["is-sheaf", "--site", ("site",), "--presheaf", ("presheaf",)],
    ["cohomology", "--sheaf", ("sheaf",), "--max-degree", "1"],
    ["cohomology", "--space", ("space",), "--coef", "Z2",
     "--max-degree", "1"],
    ["cech", "--space", ("space",), "--coef", "Z2", "--cover", "a,b"],
    ["les", "--space", ("space",), "--kind", "const", "--d", "2",
     "--e", "2", "--max-degree", "1"],
    ["ext", "--ring", ("ring",), "--module", ("module",),
     "--against", ("module",), "--max-degree", "1"],
    ["resolve", "--ring", ("ring",), "--module", ("module",),
     "--length", "1"],
    ["baer", "--ring", ("ring",), "--module", ("module",)],
    ["localize", "--category", ("category",), "--sigma", "a"],
    ["ore", "--category", ("category",), "--sigma", "a"],
    ["catalog", "show", (None,)],
]
NAMES = {kind: [n for n, k in KINDS.items() if kind in (None, k)]
         for kind in set(KINDS.values()) | {None}}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_catalog_names_in_every_option_end_in_an_exit_code(data):
    """A sample of the sweep that puts every catalog name into every
    name-taking option, mostly names of the kind the option expects: each
    run ends in 0-3 with no exception, and the JSON report says the same
    as the text one."""
    def name(slot):     # one draw in four takes a name of any kind
        kind = slot[0] if data.draw(st.integers(0, 3)) else None
        return data.draw(st.sampled_from(NAMES[kind]))

    argv = [name(a) if type(a) is tuple else a
            for a in data.draw(st.sampled_from(NAME_TAKING))]
    code, _ = run_both(*argv)
    assert code in (0, 1, 2, 3)


# the heaviest `les` invocation, pinned byte for byte: its report must not
# depend on which kernel bases and preimages the group layer chooses
LES_PSEUDO_SPHERE_6 = """\
0 -> Z/2 -> Z/4 -> Z/2 -> 0 (const)
H^0(F') = Z/2
H^0(F) = Z/4
H^0(F'') = Z/2
H^1(F') = 0
H^1(F) = 0
H^1(F'') = 0
H^2(F') = Z/2
H^2(F) = Z/4
H^2(F'') = Z/2
H^3(F') = 0
H^3(F) = 0
H^3(F'') = 0
long exact sequence verified through degree 3
"""


def test_les_on_pseudo_sphere_6_to_degree_3_pinned():
    assert run("les", "--space", "pseudo-sphere-6", "--kind", "const",
               "--d", "2", "--e", "2", "--max-degree", "3") == \
        (0, LES_PSEUDO_SPHERE_6)
