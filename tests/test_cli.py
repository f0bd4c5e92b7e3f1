import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HEXAGON_DOC = {"generators": [[1, 0], [0, 1], [1, 1]]}
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # The child imports the package from this checkout, as the tests do.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "zonoehrhart.cli", *args],
                          capture_output=True, text=True, env=env)


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_ehrhart_formula(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    proc = run_cli("ehrhart", path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["coefficients"] == [1, 3, 3]
    assert out["input"]["generators"] == [[1, 0], [0, 1], [1, 1]]


def test_ehrhart_both_agree(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    proc = run_cli("ehrhart", path, "--method", "both")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["agree"] is True
    assert out["coefficients"] == [1, 3, 3]
    assert out["counts"] == [1, 7, 19, 37]


def test_ehrhart_oracle_only(tmp_path):
    path = write_doc(tmp_path, {"generators": [[1, 1], [1, -1]]})
    proc = run_cli("ehrhart", path, "--method", "oracle")
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["coefficients"] == [1, 2, 2]


def test_determinism(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    first = run_cli("hstar", path, "--diagnostics")
    second = run_cli("hstar", path, "--diagnostics")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_hstar_with_diagnostics(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    proc = run_cli("hstar", path, "--diagnostics")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["hstar"] == [1, 4, 1]
    diag = out["diagnostics"]
    assert diag["bases"] == [[1, 2], [1, 3], [2, 3]]
    assert diag["internally_passive"] == [[], [3], [2, 3]]
    assert diag["eulerian_multiplicities"] == [1, 1, 1]
    assert diag["box_table"]["[]"] == 1


def test_hstar_unit_cube_d3(tmp_path):
    path = write_doc(tmp_path, {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    proc = run_cli("hstar", path)
    out = json.loads(proc.stdout)
    assert out["hstar"] == [1, 4, 1, 0]


def test_hstar_type_b(tmp_path):
    path = write_doc(tmp_path, {"generators": [[1, 0], [0, 1]], "mode": "typeB"})
    proc = run_cli("hstar", path)
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["hstar"] == [1, 6, 1]


def test_hstar_rank_deficient_exits_1(tmp_path):
    path = write_doc(tmp_path, {"generators": [[1, 0], [2, 0]]})
    proc = run_cli("hstar", path)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["code"] == "not-full-dimensional"


def test_oracle_compiles_once_per_document(tmp_path, monkeypatch, capsys):
    from zonoehrhart import cli, oracle

    compiles = []
    compile_rows = oracle._Membership.__init__

    def counted(self, z):
        compiles.append(z)
        compile_rows(self, z)

    monkeypatch.setattr(oracle._Membership, "__init__", counted)
    # counts holds E(0..r+1), read from the oracle's polynomial.
    segment = {"generators": [[1, 2, 0], [0, 0, 0], [2, 4, 0]], "mode": "typeB"}
    for doc, counts in ((HEXAGON_DOC, [1, 7, 19, 37]), (segment, [1, 7, 13])):
        path = write_doc(tmp_path, doc)
        for method in ("oracle", "both"):
            compiles.clear()
            assert cli.main(["ehrhart", path, "--method", method]) == 0
            assert len(compiles) == 1, (doc, method)
            assert json.loads(capsys.readouterr().out)["counts"] == counts


def test_oracle_reaches_d5(tmp_path, capsys):
    # The second full-rank draw of random.Random(7) at d=5, n=7, entries in
    # [-1, 1], whose dilate-6 box holds 13.6 M points: past the 10^7 guard
    # for counting dilates 0..d+1, in reach of reciprocity.
    from zonoehrhart import cli

    generators = [[-1, 1, -1, 0, 0], [-1, 1, -1, 1, 0], [1, 1, -1, -1, 1], [1, 1, -1, 0, -1],
                  [1, 1, -1, 1, -1], [1, -1, 0, 1, 1], [0, 0, 0, 1, 0]]
    assert cli.main(["ehrhart", write_doc(tmp_path, {"generators": generators}),
                     "--method", "both"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agree"] is True
    assert out["counts"][0] == 1 and len(out["counts"]) == 7


def test_resource_guard_exits_2(tmp_path):
    path = write_doc(tmp_path, {"generators": [[4000, 0], [0, 4000]]})
    proc = run_cli("ehrhart", path, "--method", "oracle")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["code"] == "resource-limit"


@pytest.mark.parametrize("doc", [
    {"generators": [], "dim": -1},
    {"generators": [], "dim": "2"},
    {"generators": [], "dim": True},
    {"generators": [], "dim": 2.0},
    {"generators": [[1, 0], [0, 1]], "dim": 3},
])
def test_bad_dim_exits_1(tmp_path, capsys, doc):
    from zonoehrhart import cli
    assert cli.main(["matroid", write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "bad-input"


def test_enumeration_guard_exits_2_before_enumerating(tmp_path, capsys):
    import random
    import time

    from zonoehrhart import cli

    rng = random.Random(12)
    doc = {"generators": [[rng.randint(-2, 2) for _ in range(12)] for _ in range(60)]}
    path = write_doc(tmp_path, doc)
    for command in ("matroid", "hstar"):
        start = time.perf_counter()
        assert cli.main([command, path]) == 2
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().err)["code"] == "resource-limit"


def test_check_literal_hvector():
    proc = run_cli("check", "--hvector", "1,4,1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    results = out["results"]
    assert all(results[name]["value"] for name in
               ("real-rooted", "unimodal", "alt-inc", "palindromic", "reflexive", "cone"))
    assert results["unimodal"]["peaks"] == [1]
    assert results["cone"]["eulerian_coordinates"] == [1, 1, 1]


def test_check_witnesses():
    proc = run_cli("check", "--hvector", "1,0,1", "--properties", "unimodal,cone")
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["results"]["unimodal"]["value"] is False
    assert out["results"]["unimodal"]["witness_index"] == 2
    assert out["results"]["cone"]["value"] is False
    assert out["results"]["cone"]["eulerian_coordinates"] == [1, -1, 1]


def test_check_from_file(tmp_path):
    path = write_doc(tmp_path, {"generators": [[4, 0], [0, 1]]})
    proc = run_cli("check", path, "--properties", "cone,palindromic")
    out = json.loads(proc.stdout)
    assert out["hstar"] == [1, 7, 0]
    assert out["results"]["cone"]["value"] is True
    assert out["results"]["cone"]["eulerian_coordinates"] == [1, 3, 0]
    assert out["results"]["palindromic"]["value"] is False


def test_check_computes_the_coordinates_once(tmp_path, monkeypatch, capsys):
    from zonoehrhart import cli, polycore, zonotope

    calls = {"coordinates": 0, "ehrhart_from_hstar": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    coordinates = counted("coordinates", polycore.express_in_shifted_power_basis)
    to_ehrhart = counted("ehrhart_from_hstar", polycore.ehrhart_from_hstar)
    for module in (polycore, zonotope):
        monkeypatch.setattr(module, "express_in_shifted_power_basis", coordinates)
        monkeypatch.setattr(module, "ehrhart_from_hstar", to_ehrhart)
    path = write_doc(tmp_path, {"generators": [[2, 1, 0], [0, 1, 0], [1, 1, 3], [1, 0, 1]]})
    assert cli.main(["check", path]) == 0
    assert calls == {"coordinates": 1, "ehrhart_from_hstar": 1}
    results = json.loads(capsys.readouterr().out)["results"]
    assert set(results) == {"real-rooted", "unimodal", "alt-inc", "palindromic",
                            "reflexive", "cone"}
    assert results["reflexive"]["shifted_power_coordinates"] == \
        results["cone"]["eulerian_coordinates"]


def test_eulerian_command():
    proc = run_cli("eulerian", "--family", "A", "--d", "3", "--index", "2")
    assert json.loads(proc.stdout)["coefficients"] == [0, 2]
    proc = run_cli("eulerian", "--family", "B", "--d", "2")
    assert json.loads(proc.stdout)["coefficients"] == [1, 6, 1]
    proc = run_cli("eulerian", "--family", "A", "--d", "1", "--index", "1")
    assert json.loads(proc.stdout)["coefficients"] == [1]
    for method in ("enumerate", "identity"):
        proc = run_cli("eulerian", "--family", "B", "--d", "3", "--index", "2",
                       "--method", method)
        assert json.loads(proc.stdout)["coefficients"] == [0, 6, 2], method


def test_eulerian_method_validation():
    proc = run_cli("eulerian", "--family", "A", "--d", "3", "--method", "identity")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "bad-input"


def test_matroid_command(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    proc = run_cli("matroid", path)
    out = json.loads(proc.stdout)
    assert out["bases"] == [[1, 2], [1, 3], [2, 3]]
    assert out["internally_passive"] == [[], [3], [2, 3]]
    assert out["coloop_free"] is True

    path = write_doc(tmp_path, {"generators": [[1, 0], [0, 1]]}, "cube.json")
    out = json.loads(run_cli("matroid", path).stdout)
    assert out["coloop_free"] is False

    path = write_doc(tmp_path, {"generators": [[0, 0]]}, "loops.json")
    out = json.loads(run_cli("matroid", path).stdout)
    assert out["rank"] == 0
    assert out["bases"] == [[]]


def test_box_table_override(tmp_path):
    doc = {"generators": [[1, 1], [1, -1]], "box_table": {"[1,2]": "0"}}
    path = write_doc(tmp_path, doc)
    out = json.loads(run_cli("hstar", path).stdout)
    assert out["hstar"] == [1, 1, 0]
    # rational values survive the round trip
    doc = {"generators": [[1, 1], [1, -1]], "box_table": {"[1,2]": "1/2"}}
    path = write_doc(tmp_path, doc, "rat.json")
    out = json.loads(run_cli("hstar", path).stdout)
    assert out["hstar"] == [1, "3/2", "1/2"]


def test_float_table_rejected(tmp_path):
    doc = {"generators": [[1, 0], [0, 1]], "box_table": {"[1,2]": 0.5}}
    path = write_doc(tmp_path, doc)
    proc = run_cli("hstar", path)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "bad-input"


def test_bad_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("ehrhart", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "bad-input"


def test_output_round_trips(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    out = json.loads(run_cli("ehrhart", path).stdout)
    assert [int(c) for c in out["coefficients"]] == [1, 3, 3]


def test_big_integers_serialize_as_strings():
    from zonoehrhart.cli import _jsonable
    assert _jsonable(2**53) == 2**53
    assert _jsonable(2**53 + 1) == str(2**53 + 1)
    assert _jsonable(-(2**60)) == str(-(2**60))


def test_method_both_never_disagrees(tmp_path):
    import random

    from zonoehrhart.matroid import VectorConfiguration

    rng = random.Random(977)
    for case in range(8):
        d = rng.randint(1, 2)
        while True:
            config = VectorConfiguration(
                [tuple(rng.randint(-3, 3) for _ in range(d))
                 for _ in range(rng.randint(d, 4))], d)
            if config.full_rank == d:
                break
        mode = rng.choice(["standard", "typeB"])
        path = write_doc(tmp_path, {"generators": [list(v) for v in config.vectors],
                                    "mode": mode}, f"corpus{case}.json")
        proc = run_cli("ehrhart", path, "--method", "both")
        assert proc.returncode == 0, (proc.stderr, config, mode)
        assert json.loads(proc.stdout)["agree"] is True
    # Below full rank, and with loops: a point in Z^3, segments in Z^1 and
    # Z^2 (d - r = 0 and 1), a flat hexagon in Z^3 (d - r = 1), and two
    # full-rank bodies with a loop.
    for case, (generators, mode) in enumerate((
            ([[0, 0, 0]], "standard"),
            ([[2], [0], [-1]], "typeB"),
            ([[1, -2], [0, 0], [-2, 4]], "standard"),
            ([[1, 0, 1], [0, 1, -1], [1, 1, 0]], "typeB"),
            ([[0, 0], [1, 2], [-1, 1]], "standard"),
            ([[1, 0, 0], [0, 0, 0], [0, 1, 1], [1, -1, 1]], "typeB"))):
        path = write_doc(tmp_path, {"generators": generators, "mode": mode}, f"low{case}.json")
        proc = run_cli("ehrhart", path, "--method", "both")
        assert proc.returncode == 0, (proc.stderr, generators, mode)
        assert json.loads(proc.stdout)["agree"] is True


def test_ordering_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    from zonoehrhart import cli
    from zonoehrhart.errors import InternalDisagreementError
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.zonotope import ZonotopeSpec, default_box_table, hstar_zonotope

    generators = [[2, 1], [0, 1], [1, 1]]
    config = VectorConfiguration(generators)
    table = default_box_table(config)  # built, and cached, on the full domain
    complete = config.independent_sets()
    dropped = next(s for s in complete if s and table.value(s) != 0)
    # Only the independent-set-major ordering reads independent_sets(); the
    # basis-major one walks the subsets of bases(), so the two now disagree.
    monkeypatch.setattr(VectorConfiguration, "independent_sets",
                        lambda self: tuple(s for s in complete if s != dropped))
    with pytest.raises(InternalDisagreementError):
        hstar_zonotope(ZonotopeSpec(config))

    path = write_doc(tmp_path, {"generators": generators})
    assert cli.main(["hstar", path]) == 3
    assert json.loads(capsys.readouterr().err)["code"] == "disagreement"
