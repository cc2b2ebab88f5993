import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import weylsplit
from weylsplit.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_char_table_g2_w1(capsys):
    rc, out, _ = run(capsys, "char", "--diagram", "G2", "--weight", "1,0")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.endswith(" 1") for l in lines)


def test_char_json_sorted(capsys):
    rc, out, _ = run(capsys, "char", "--diagram", "G2", "--weight", "0,1",
                     "--json")
    data = json.loads(out)
    weights = [tuple(t["weight"]) for t in data["terms"]]
    assert weights == sorted(weights)
    assert sum(t["mult"] for t in data["terms"]) == 14


def test_char_methods_agree(capsys):
    rc1, out1, _ = run(capsys, "char", "--diagram", "B3", "--weight", "1,0,0",
                       "--method", "freudenthal", "--json")
    rc2, out2, _ = run(capsys, "char", "--diagram", "B3", "--weight", "1,0,0",
                       "--method", "kostant", "--json")
    assert rc1 == rc2 == 0 and out1 == out2


def test_numbers_game_all(capsys):
    rc, out, _ = run(capsys, "numbers-game", "--diagram", "C2",
                     "--position", "1,1", "--strategy", "all")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("terminal -1,-1" in l for l in lines)
    # a game that ends at exactly the cap is terminal, not diverged
    rc, out, _ = run(capsys, "numbers-game", "--diagram", "A1",
                     "--position", "1", "--cap", "1", "--strategy", "all")
    assert rc == 0 and out == "fired 1  terminal -1\n"


def test_numbers_game_json_schema(capsys):
    rc, out, _ = run(capsys, "numbers-game", "--diagram", "G2",
                     "--position", "1,1", "--strategy", "1,2,1,2,1,2", "--json")
    rec = json.loads(out)[0]
    assert rec["initial"] == [1, 1]
    assert rec["fired"] == [1, 2, 1, 2, 1, 2]
    assert len(rec["trace"]) == 7
    assert rec["terminal"] == [-1, -1]


def test_usage_error_exit_2(capsys):
    rc, _, err = run(capsys, "char", "--diagram", "A-3", "--weight", "1,0")
    assert rc == 2
    # a spec that parses but names no finite type is a domain error
    rc, _, err = run(capsys, "char", "--diagram", "X9", "--weight", "1,0")
    assert rc == 1 and err.startswith("NotFiniteType:")
    rc, _, err = run(capsys, "char", "--diagram", "G2", "--weight", "1,0,0")
    assert rc == 2


@pytest.mark.parametrize("weight", ["1,,0", "1,0,", ",1,0"])
def test_empty_weight_field_is_a_usage_error(capsys, weight):
    """Every --weight field is read: an empty one is not skipped."""
    rc, out, err = run(capsys, "char", "--diagram", "A2", "--weight", weight)
    assert rc == 2 and out == "" and err.startswith("usage error:")
    # whitespace around a field is still accepted
    assert run(capsys, "char", "--diagram", "A2", "--weight", " 1 , 0 ") \
        == run(capsys, "char", "--diagram", "A2", "--weight", "1,0")


@pytest.mark.parametrize("weight", ["1,,0", "1,0,", "1,0", "1,0,0,0"])
def test_lattice_weight_is_read_by_the_weight_parser(capsys, weight):
    """lattice --weight is read by cartan.parse_weight over n - 1 fields: an
    empty field or a wrong length is a usage error."""
    rc, out, err = run(capsys, "lattice", "--family", "gt", "--n", "4", "--weight", weight)
    assert rc == 2 and out == "" and err.startswith("usage error:")
    rc, out, _ = run(capsys, "lattice", "--family", "gt", "--n", "4", "--weight", " 1 ,0, 2")
    assert rc == 0 and out == run(capsys, "lattice", "--family", "gt", "--n", "4",
                                  "--weight", "1,0,2")[1]


def test_domain_error_exit_1(capsys):
    rc, _, err = run(capsys, "info", "--diagram", "cartan:[[2,-2],[-2,2]]")
    assert rc == 1
    assert "NotFiniteType" in err
    rc, out, err = run(capsys, "char", "--diagram", "G2", "--weight=-1,0")
    assert rc == 1 and out == "" and err.startswith("NotDominant:")


@pytest.mark.parametrize("text", ["[[2,-1.5],[-1,2]]", "[[2.9]]",
                                  '[["2","-1"],["-1","2"]]', "[2,2]",
                                  "[[2,null],[0,2]]"])
def test_cartan_entries_must_be_ints(capsys, text):
    rc, out, err = run(capsys, "info", "--diagram", "cartan:" + text)
    assert rc == 1 and out == "" and err.startswith("NotGCM:")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_numbers_game_cap_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["numbers-game", "--diagram", "G2", "--position", "1,1", "--cap", cap])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "below 1" in out.err


def test_decompose_and_branch(capsys):
    rc, out, _ = run(capsys, "decompose", "--diagram", "G2",
                     "--lhs", "1,0", "--rhs", "1,0")
    assert rc == 0
    assert out.splitlines() == ["0,0  1", "0,1  1", "1,0  1", "2,0  1"]
    rc, out, _ = run(capsys, "branch", "--diagram", "A3",
                     "--weight", "1,0,1", "--subset", "1,2")
    assert rc == 0 and len(out.splitlines()) == 4


def test_crystal_export_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, "crystal", "--diagram", "G2", "--weight", "0,1",
                     "--export", "json")
    data = json.loads(out)
    assert len(data["vertices"]) == 14
    path = tmp_path / "poset.json"
    path.write_text(out)
    rc, out2, _ = run(capsys, "verify", "--diagram", "G2",
                      "--poset", str(path), "--targets", "0,1")
    assert rc == 0 and "splitting: ok" in out2
    rc, out3, _ = run(capsys, "verify", "--diagram", "G2",
                      "--poset", str(path), "--targets", "1,0")
    assert rc == 1 and "FAIL" in out3


def test_umax_dot(capsys):
    rc, out, _ = run(capsys, "umax", "--diagram", "G2", "--weight", "0,1",
                     "--export", "dot")
    assert rc == 0
    assert out.count("->") == 18 and out.count('label="') >= 14


def test_lattice_and_rgf(capsys):
    rc, out, _ = run(capsys, "lattice", "--family", "gt", "--n", "3",
                     "--weight", "1,2", "--verify", "--rgf")
    assert rc == 0
    assert "splitting: ok" in out and "subblock coloring: ok" in out
    assert "rgf: [1, 2, 3, 3, 3, 2, 1]" in out
    rc, out, _ = run(capsys, "rgf", "--diagram", "G2", "--weight", "0,1")
    assert out.strip() == "1 1 1 1 2 2 2 1 1 1 1"


def test_repeat_runs_identical(capsys):
    outs = set()
    for _ in range(3):
        rc, out, _ = run(capsys, "crystal", "--diagram", "C2",
                         "--weight", "1,1", "--export", "json")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_info_and_roots(capsys):
    rc, out, _ = run(capsys, "info", "--diagram", "A3+A1")
    assert rc == 0 and "weyl order: 48" in out
    rc, out, _ = run(capsys, "roots", "--diagram", "G2")
    assert rc == 0 and len(out.splitlines()) == 6
    assert sum(1 for l in out.splitlines() if l.endswith("short")) == 3


def test_expand_and_alternant(capsys):
    rc, out, _ = run(capsys, "expand", "--diagram", "G2",
                     "--weights", "1,0", "1,0")
    assert rc == 0 and len(out.splitlines()) == 4
    rc, out, _ = run(capsys, "alternant", "--diagram", "A2", "--weight", "1,1")
    assert rc == 0 and len(out.splitlines()) == 6
    rc, out, _ = run(capsys, "alternant", "--diagram", "A2", "--weight", "1,0")
    assert rc == 0 and out.strip() == ""


def test_experiment(capsys):
    rc, out, _ = run(capsys, "experiment", "--diagram", "A2", "--weight", "1,1")
    assert rc == 0 and "R(lambda): 8 vertices" in out


def test_orbit_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_ORBIT_CAP", "2")
    rc, _, err = run(capsys, "char", "--diagram", "A3", "--weight", "1,0,1")
    assert rc == 1 and "OrbitTooLarge" in err


def test_verify_coloring_witness(capsys, tmp_path):
    import weylsplit.crystal as cr
    import weylsplit.ecposet as ec
    from weylsplit import build_diagram
    g2 = build_diagram("G2")
    q = cr.quasi_minuscule_poset(g2)
    pj = tmp_path / "qm.json"
    pj.write_text(ec.export_poset(q))
    w = cr.quasi_minuscule_tau_kappa(g2, q)
    wj = tmp_path / "wit.json"
    wj.write_text(json.dumps({
        "J": [1, 2], "nu": [0, 0], "S": sorted(w.S),
        "kappa": {str(k): v for k, v in w.kappa.items()},
        "tau": {str(k): v for k, v in w.tau.items()}}))
    rc, out, _ = run(capsys, "verify", "--diagram", "G2", "--poset", str(pj),
                     "--targets", "1,0", "--coloring", str(wj))
    assert rc == 0 and "splitting: ok" in out and "tau-kappa: ok" in out


def test_weyl_group_cap(capsys):
    import pytest as _pytest
    from weylsplit import build_diagram, wsf
    from weylsplit.errors import OrbitTooLarge
    e6 = build_diagram("E6")   # |W| = 51840 > 1152
    with _pytest.raises(OrbitTooLarge):
        wsf.alternant(e6, e6.rho())
    with _pytest.raises(OrbitTooLarge):
        wsf.kostant_multiplicity(e6, e6.omega(1), e6.omega(1))
    # freudenthal remains available beyond the cap
    f = wsf.freudenthal(e6, e6.omega(1))
    assert sum(f.terms.values()) == 27


def test_lattice_eo_cli(capsys):
    rc, out, _ = run(capsys, "lattice", "--family", "eo", "--n", "4",
                     "--m", "1", "--node", "n", "--verify")
    assert rc == 0 and "splitting: ok" in out
    rc, out, _ = run(capsys, "lattice", "--family", "oo", "--n", "3", "--m", "2")
    assert rc == 0 and "vertices" in out
    rc, _, err = run(capsys, "lattice", "--family", "oo", "--n", "2", "--m", "1")
    assert rc == 1 and "InvalidFamilyParams" in err


def test_verify_subblock_witness_cli(capsys, tmp_path):
    from weylsplit import patternlat as pl
    import weylsplit.ecposet as ec
    lat = pl.gt_lattice(3, (1, 2))
    pj = tmp_path / "gt.json"
    pj.write_text(ec.export_poset(lat.poset))
    kap = lat.slantwise_coloring()
    wj = tmp_path / "wit.json"
    wj.write_text(json.dumps({
        "J": [1, 2], "nu": [0, 0], "S": [lat.index[lat.max_pattern]],
        "kappa": {str(k): v for k, v in kap.items()}}))
    rc, out, _ = run(capsys, "verify", "--diagram", "A2", "--poset", str(pj),
                     "--coloring", str(wj))
    assert rc == 0 and "subblock coloring: ok" in out


def test_verify_subblock_rejects_non_chain_product(capsys, tmp_path):
    """M3, three atoms under one top: three 1-chains, but 5 vertices, not 8."""
    import weylsplit.ecposet as ec
    from weylsplit import build_diagram
    m3 = ec.build_poset([(0, a, 1) for a in (1, 2, 3)] + [(a, 4, 1) for a in (1, 2, 3)],
                        1, diagram=build_diagram("A1"))
    pj = tmp_path / "m3.json"
    pj.write_text(ec.export_poset(m3))
    wj = tmp_path / "wit.json"
    wj.write_text(json.dumps({"J": [1], "nu": [0], "S": [4],
                              "kappa": {"0": 1, "1": 1, "2": 1, "3": 1}}))
    rc, out, err = run(capsys, "verify", "--diagram", "A1", "--poset", str(pj),
                       "--coloring", str(wj))
    assert (rc, out, err) == (1, "", "NotChainProduct: component is not a chain product\n")


def _cli(*argv, optimize=False):
    src = str(Path(weylsplit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "weylsplit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_crystal_of_a_long_expression():
    """A 1 999-letter expression: no search or walk recurses once per letter."""
    from weylsplit import crystal, ecposet
    res = _cli("crystal", "--diagram", "A1", "--weight", "1999")
    assert (res.returncode, res.stderr) == (0, "")
    want = ecposet.export_poset(crystal.build_crystal(weylsplit.build_diagram("A1"), (1999,)))
    assert res.stdout == want + "\n"


@pytest.mark.parametrize("argv", [
    ("char", "--diagram", "G2", "--weight", "1,1"),
    ("char", "--diagram", "B3", "--weight", "0,1,0", "--method", "kostant"),
])
def test_optimized_run_identical(argv):
    plain = _cli(*argv)
    optimized = _cli(*argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


def test_optimized_run_rejects_non_dominant():
    res = _cli("char", "--diagram", "G2", "--weight=-1,0", optimize=True)
    assert res.returncode == 1
    assert res.stdout == "" and "NotDominant:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, error", [
    (("decompose", "--diagram", "G2", "--lhs=-1,0", "--rhs", "1,0"), "NotDominant"),
    (("crystal", "--diagram", "G2", "--weight=-1,0"), "NotDominant"),
    (("branch", "--diagram", "G2", "--weight=-1,0", "--subset", "1"), "NotDominant"),
    (("experiment", "--diagram", "G2", "--weight=-1,0"), "NotDominant"),
    (("rgf", "--diagram", "G2", "--weight=-1,0"), "NotDominant"),
    (("verify", "--diagram", "A2", "--poset", "{sparse}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{keyless}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{no_s}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{listed}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{str_key}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{str_rank}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{float_from}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{str_from}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{neg_rank}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{short_wt}", "--targets", "1,0"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{rank_3}", "--targets", "1,0"),
     "DiagramMismatch"),
    (("verify", "--diagram", "A2", "--poset", "{truncated}", "--targets", "1,0"),
     "MalformedPoset"),
    # node 0 would read the last Cartan row, node 5 past the end
    (("numbers-game", "--diagram", "A2", "--position", "1,1", "--strategy", "0"),
     "NotGCM"),
    (("numbers-game", "--diagram", "A2", "--position", "1,1", "--strategy", "5"),
     "NotGCM"),
    (("branch", "--diagram", "A2", "--weight", "1,1", "--subset", "0"), "NotGCM"),
    (("branch", "--diagram", "A2", "--weight", "1,1", "--subset", "5"), "NotGCM"),
    (("lattice", "--family", "gt", "--n", "3"), "InvalidFamilyParams"),
    # rank above cartan.MAX_RANK: no n x n matrix, no recursion past the bound
    (("info", "--diagram", "A99999999999999"), "DiagramTooLarge"),
    (("info", "--diagram", "A1200"), "DiagramTooLarge"),
    (("info", "--diagram", "A40+D25"), "DiagramTooLarge"),
    (("info", "--diagram", "cartan:" + json.dumps([[2 * (i == j) for j in range(65)]
                                                   for i in range(65)])),
     "DiagramTooLarge"),
    # J and nu are read once, by cartan.sub_weight inside either coloring verifier
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{short_nu}"),
     "DiagramMismatch"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{empty_nu}"),
     "DiagramMismatch"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{empty_nu_tau}"),
     "DiagramMismatch"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{long_nu}"),
     "DiagramMismatch"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{bool_j}"),
     "NotGCM"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{float_nu}"),
     "NotAWeight"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{j5}"), "NotGCM"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{j5_tau}"), "NotGCM"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{neg_nu}"),
     "NotDominant"),
    # a float kappa used to index a list; a bool read as node or vertex 1
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{float_kappa}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{bool_kappa}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{bool_tau}"),
     "MalformedPoset"),
    # S, kappa keys and tau hold vertex ids of the 3-vertex poset
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{s99_tau}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{s_negative}"),
     "MalformedPoset"),
    (("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{kappa_7}"),
     "MalformedPoset"),
])
def test_bad_input_exit_1_under_optimize(argv, error, tmp_path, capsys):
    from weylsplit import crystal as cr, ecposet as ec, build_diagram
    good = ec.export_poset(cr.minuscule_poset(build_diagram("A2"), (1, 0)))
    data = json.loads(good)
    data["vertices"][0]["id"] = 7
    files = {"good": good, "sparse": json.dumps(data),
             "no_s": '{"kappa": {}}', "listed": "[1, 2]",
             "str_key": '{"S": [2], "kappa": {"a": 1}}',
             "str_rank": good.replace('"rank_n":2', '"rank_n":"2"'),
             "float_from": good.replace('"from":0', '"from":0.9'),
             "str_from": good.replace('"from":0', '"from":"x"'),
             "neg_rank": '{"rank_n":-1,"vertices":[{"id":0,"wt":[]}],"edges":[]}',
             "short_wt": '{"rank_n":2,"vertices":[{"id":0,"wt":[0]}],"edges":[]}',
             "rank_3": '{"rank_n":3,"vertices":[{"id":0,"wt":[0,0,0]}],"edges":[]}',
             "truncated": '{"rank_n":2,'}
    witnesses = {"short_nu": {"J": [1, 2], "nu": [0]}, "empty_nu": {"J": [1], "nu": []},
                 "empty_nu_tau": {"J": [1], "nu": [], "tau": {"0": 1, "1": 0}},
                 "long_nu": {"J": [1, 2], "nu": [0, 0, 5]}, "bool_j": {"J": [True]},
                 "float_nu": {"J": [1, 2], "nu": [0, 1.0]}, "j5": {"J": [5]},
                 "j5_tau": {"J": [5], "tau": {"0": 1, "1": 0}},
                 "neg_nu": {"J": [1], "nu": [-1]},
                 "float_kappa": {"kappa": {"0": 1.0, "1": 2}},
                 "bool_kappa": {"kappa": {"0": True, "1": 2}},
                 "bool_tau": {"J": [1, 2], "kappa": {"0": 1, "1": 2},
                              "tau": {"0": True, "1": 0}},
                 "s99_tau": {"S": [99], "kappa": {"0": 1, "1": 1, "2": 1},
                             "tau": {"0": 0, "1": 1, "2": 2}},
                 "s_negative": {"S": [0, 1, 2, -1], "kappa": {}},
                 "kappa_7": {"S": [0, 1, 2], "kappa": {"7": 1}}}
    for name, fields in witnesses.items():
        files[name] = json.dumps(dict({"S": [2], "kappa": {"0": 1, "1": 1}}, **fields))
    del data["edges"]
    files["keyless"] = json.dumps(data)
    for name, text in files.items():
        (tmp_path / (name + ".json")).write_text(text)
    argv = [a.format(**{name: tmp_path / (name + ".json") for name in files})
            for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and err.startswith(error + ":")
    optimized = _cli(*argv, optimize=True)
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (rc, out, err)
    assert "Traceback" not in optimized.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--diagram", "A2", "--poset", "{missing}", "--targets", "1,0"),
    ("verify", "--diagram", "A2", "--poset", "{good}", "--coloring", "{missing}"),
])
def test_missing_file_exit_2_under_optimize(argv, tmp_path, capsys):
    from weylsplit import crystal as cr, ecposet as ec, build_diagram
    good = tmp_path / "good.json"
    good.write_text(ec.export_poset(cr.minuscule_poset(build_diagram("A2"), (1, 0))))
    missing = tmp_path / "missing.json"
    argv = [a.format(good=good, missing=missing) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and str(missing) in err
    assert err.count("\n") == 1
    optimized = _cli(*argv, optimize=True)
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (rc, out, err)


def test_cli_import_loads_only_cartan_and_errors():
    """Each subcommand imports its own layers; the module itself loads two."""
    code = ("import json, sys; before = set(sys.modules); import weylsplit.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(weylsplit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    added = set(json.loads(res.stdout))
    ours = {m for m in added if m.split(".")[0] == "weylsplit"}
    assert ours == {"weylsplit", "weylsplit.cartan", "weylsplit.errors", "weylsplit.cli"}
    assert not added & {"dataclasses", "inspect"}


# rank <= 3 and entries <= 2 keep every valid call small
FUZZ_SPECS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A1+A1": 2, "A3": 3, "A1+A2": 3}
FUZZ_BAD_SPECS = ["", "Q2", "A0", "E9", "G3", "A2+", "A-1", "cartan:[[2]]",
                  "cartan:[[2,-2],[-2,2]]", "cartan:[[2,-1]]", "-A2"]


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(["umax", "experiment", "char", "numbers-game",
                                "branch", "lattice"]))
    if cmd == "lattice":
        # n <= 4 keeps every family at rank <= 3, except eo at D4
        argv = ["lattice", "--family", draw(st.sampled_from(["gt", "sp", "oo", "eo"])),
                "--n", str(draw(st.integers(-1, 4)))]
        if draw(st.booleans()):
            lam = draw(st.lists(st.integers(-1, 2), max_size=4))
            argv.append("--weight=" + ",".join(map(str, lam)))
        if draw(st.booleans()):
            argv.append("--m=%d" % draw(st.integers(-1, 2)))
        return argv + draw(st.sampled_from([[], ["--node", "n"], ["--rgf"],
                                            ["--verify"]]))
    spec = draw(st.sampled_from(sorted(FUZZ_SPECS)) | st.sampled_from(FUZZ_BAD_SPECS))
    rank = FUZZ_SPECS.get(spec, 2)
    small = st.integers(0, 2)
    entries = draw(st.one_of(
        st.lists(small, min_size=rank, max_size=rank).map(lambda w: list(map(str, w))),
        st.lists(small, max_size=rank - 1).map(lambda w: list(map(str, w))),   # short
        st.lists(small, min_size=rank + 1, max_size=rank + 2).map(
            lambda w: list(map(str, w))),                                      # long
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(
            lambda w: min(w) < 0).map(lambda w: list(map(str, w))),           # negative
        st.lists(st.sampled_from(["1.5", "x", "", " 1", "1e0", "½"]),
                 min_size=1, max_size=rank),                                  # non-integer
    ))
    weight = ",".join(entries)
    # "--weight=-1,0" reaches the weight parser; "--weight -1,0" is an argparse error
    flag = "--position" if cmd == "numbers-game" else "--weight"
    argv = [cmd, "--diagram", spec] + draw(st.sampled_from(
        [[flag + "=" + weight], [flag, weight]]))
    # node lists reach past both ends of 1..rank
    nodes = ",".join(map(str, draw(st.lists(st.integers(-1, rank + 2),
                                            min_size=1, max_size=3))))
    if cmd == "numbers-game":
        argv += ["--strategy=" + draw(st.sampled_from(["first", "all", nodes]))]
    if cmd == "branch":
        argv += ["--subset=" + nodes]
    if cmd == "umax":
        argv += draw(st.sampled_from([[], ["--export", "dot"]]))
    if cmd == "char":
        argv += draw(st.sampled_from([[], ["--json"], ["--method", "kostant"]]))
    return argv


@settings(max_examples=60, deadline=None)
@given(_fuzz_argv())
@example(["numbers-game", "--diagram", "A2", "--position", "1,1", "--strategy=0"])
@example(["numbers-game", "--diagram", "A2", "--position", "1,1", "--strategy=1,5"])
@example(["branch", "--diagram", "A2", "--weight", "1,1", "--subset=-1"])
@example(["branch", "--diagram", "A2", "--weight", "1,1", "--subset=5"])
@example(["lattice", "--family", "gt", "--n", "3"])
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:      # argparse rejects the command line
            assert e.code == 2
            return
    # 0 success, 1 a domain error, 2 a usage error caught by main
    assert rc in (0, 1, 2)
    assert (err.getvalue() == "") == (rc == 0)
    assert "Traceback" not in err.getvalue()
