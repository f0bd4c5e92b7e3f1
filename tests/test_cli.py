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


def test_diagnostics_show_the_double_sums_histogram(tmp_path, capsys, monkeypatch):
    # `eulerian_multiplicities` is the histogram c that h* is assembled from,
    # read from one double sum per document: the coordinates of h* in the
    # A_j(r+1) family in standard mode and in the B_j(r+1) family in typeB.
    import random
    from fractions import Fraction

    from zonoehrhart import cli, matroid
    from zonoehrhart.eulerian import b_l_polynomial_via_a
    from zonoehrhart.polycore import HStarVector
    from zonoehrhart.zonotope import express_in_eulerian_basis

    calls = []
    real_double_sum = matroid._double_sum
    monkeypatch.setattr(matroid, "_double_sum",
                        lambda *args: calls.append(1) or real_double_sum(*args))
    cli._slot.reset()  # no configuration with a histogram already summed
    rng = random.Random(22)
    for case in range(16):
        d = rng.randint(1, 4)
        generators = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + rng.randint(0, 2))]
        doc = {"generators": generators, "dim": d, "mode": ("standard", "typeB")[case % 2]}
        if case % 4 >= 2:  # a rational custom table on the sets of size <= 1
            doc["box_table"] = {"[]": f"{rng.randint(1, 3)}/{rng.randint(1, 3)}"}
            for i in range(1, len(generators) + 1):
                if any(generators[i - 1]):
                    doc["box_table"][f"[{i}]"] = str(rng.randint(-2, 4))
        path = write_doc(tmp_path, doc, f"doc{case}.json")
        calls.clear()
        assert cli.main(["hstar", path, "--diagnostics"]) == 0
        assert len(calls) == 1, doc
        out = json.loads(capsys.readouterr().out)
        h = HStarVector([Fraction(x) for x in out["hstar"]], out["degree"])
        c = [Fraction(x) for x in out["diagnostics"]["eulerian_multiplicities"]]
        r = h.d
        assert len(c) == r + 1
        if doc["mode"] == "standard":
            assert c == list(express_in_eulerian_basis(h)), doc
        else:
            total = [0] * (r + 1)
            for l, cj in enumerate(c):
                for i, x in enumerate(b_l_polynomial_via_a(r, l).coeffs):
                    total[i] += cj * x
            assert total == list(h.h), doc


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


def test_hstar_rank_deficient_answers_at_its_rank(tmp_path):
    # The segment from 0 to (3, 0) in Z^2: h* of degree r = 1, not d = 2.
    path = write_doc(tmp_path, {"generators": [[1, 0], [2, 0]]})
    proc = run_cli("hstar", path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["hstar"] == [1, 2]
    assert out["degree"] == 1


@pytest.mark.parametrize("mode", ["standard", "typeB"])
def test_rank_deficient_documents(tmp_path, capsys, mode):
    # hstar and check answer at the rank r < d: a flat parallelogram and a
    # flat hexagon in Z^3, a segment in Z^2 with a loop, and a point in Z^3.
    from zonoehrhart import cli
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.polycore import hstar_from_ehrhart
    from zonoehrhart.zonotope import ZonotopeSpec, ehrhart

    for generators, dim, rank in (([[1, 2, 0], [2, 1, 0]], 3, 2),
                                  ([[1, 0, 1], [0, 1, -1], [1, 1, 0]], 3, 2),
                                  ([[1, -2], [0, 0], [-2, 4]], 2, 1),
                                  ([], 3, 0)):
        z = ZonotopeSpec(VectorConfiguration(generators, dim), mode)
        expected = list(hstar_from_ehrhart(ehrhart(z), rank).h)
        path = write_doc(tmp_path, {"generators": generators, "dim": dim, "mode": mode})
        assert cli.main(["hstar", path, "--diagnostics"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["hstar"], out["degree"]) == (expected, rank), (generators, out)
        diag = out["diagnostics"]
        assert diag["bases"] and all(len(b) == rank for b in diag["bases"])
        assert len(diag["eulerian_multiplicities"]) == rank + 1
        assert cli.main(["check", path]) == 0
        check = json.loads(capsys.readouterr().out)
        assert (check["hstar"], check["degree"]) == (expected, rank)
        results = check["results"]
        assert set(results) == set(cli._PROPERTIES)
        assert results["real-rooted"]["value"] and results["cone"]["value"], generators
        assert len(results["cone"]["eulerian_coordinates"]) == rank + 1
        values = [results[name]["value"] for name in cli._PROPERTIES]
        if not generators:
            assert expected == [1] and all(values)
        elif mode == "standard" and len(generators) == 2:
            # 1 + 3t + 2t^2 = (1 + t)(1 + 2t), neither palindromic nor reflexive.
            assert expected == [1, 3, 2]
            assert values == [True, True, True, False, False, True]
            assert results["cone"]["eulerian_coordinates"] == [1, 0, 2]


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
    {"generators": [[1, 0], [1]]},
])
def test_bad_dim_exits_1(tmp_path, capsys, doc):
    from zonoehrhart import cli
    assert cli.main(["matroid", write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "bad-input"


def test_echo_is_an_input_document(tmp_path, capsys):
    # The echo keeps a given "dim", which an empty generator list needs, and
    # adds none to a document without one.
    from zonoehrhart import cli
    for doc, echo in (({"generators": [], "dim": 2},
                       {"generators": [], "dim": 2, "mode": "standard"}),
                      ({"generators": [[1, 0]], "dim": None, "mode": "typeB"},
                       {"generators": [[1, 0]], "mode": "typeB"}),
                      (HEXAGON_DOC, {**HEXAGON_DOC, "mode": "standard"})):
        assert cli.main(["hstar", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["input"] == echo
        assert cli.main(["hstar", write_doc(tmp_path, echo, "echo.json")]) == 0
        assert json.loads(capsys.readouterr().out) == out


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


def test_eulerian_guard_exits_2_before_enumerating(monkeypatch, capsys):
    from math import factorial

    from zonoehrhart import cli

    def refuse(*_):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr("zonoehrhart.eulerian.permutations", refuse)
    assert cli.main(["eulerian", "--family", "B", "--d", "8", "--method", "enumerate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == "resource-limit"
    assert f"enumerating {2**8 * factorial(8)} words" in error["error"]


def test_recurrence_guard_exits_2_at_once(capsys):
    import time

    from zonoehrhart import cli

    start = time.perf_counter()
    assert cli.main(["eulerian", "--family", "A", "--d", "1100", "--index", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == "resource-limit"
    assert "A_j(1100, t)" in error["error"]


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


def test_box_table_keys_outside_the_sets_exit_1(tmp_path):
    for key, named in (("[1,1]", "(1, 1)"), ("[-1]", "(-1,)")):
        path = write_doc(tmp_path, {**HEXAGON_DOC, "box_table": {key: 1}})
        proc = run_cli("hstar", path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": f"{named} is not an independent set of the configuration",
            "code": "math-precondition"}


def test_float_table_rejected(tmp_path):
    doc = {"generators": [[1, 0], [0, 1]], "box_table": {"[1,2]": 0.5}}
    path = write_doc(tmp_path, doc)
    proc = run_cli("hstar", path)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "bad-input"


def test_box_table_naming_a_set_twice_exits_1(tmp_path, capsys):
    # Whichever spelling comes last, the document is refused, not read as it;
    # so is one key written twice, which json.load alone reads last-wins.  Of
    # two keys written twice, the message names the one repeated first.
    from zonoehrhart import cli
    for table, named in (('{"[1,2]": 3, "[2,1]": 5}', "(1, 2) twice"),
                         ('{"[2,1]": 5, "[1,2]": 3}', "(1, 2) twice"),
                         ('{"[1,2]": 3, "[1, 2]": 5}', "(1, 2) twice"),
                         ('{"[1,2]": 3, "[1,2]": 5}', "'[1,2]' twice"),
                         ('{"[1,2]": 3, "[1,3]": 1, "[1,3]": 2, "[1,2]": 5}', "'[1,3]' twice"),
                         ('{"[1,2]": 3, "[1,3]": 1, "[1,2]": 5, "[1,3]": 2}', "'[1,2]' twice")):
        path = tmp_path / "input.json"
        path.write_text('{"generators": [[1, 0], [0, 1], [1, 1]], "box_table": %s}' % table,
                        encoding="utf-8")
        assert cli.main(["hstar", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["code"] == "bad-input" and named in err["error"], err


def test_bad_json_exits_1(tmp_path):
    # Broken JSON, and a document that is not UTF-8.
    path = tmp_path / "broken.json"
    for body in (b"{not json", '{"generators": [[1]], "mode": "\u00e9"}'.encode("latin-1")):
        path.write_bytes(body)
        proc = run_cli("ehrhart", str(path))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["code"] == "bad-input"


def test_output_round_trips(tmp_path):
    path = write_doc(tmp_path, HEXAGON_DOC)
    out = json.loads(run_cli("ehrhart", path).stdout)
    assert [int(c) for c in out["coefficients"]] == [1, 3, 3]


def test_big_integers_serialize_as_strings():
    # `_dumps` writes json.dumps(indent=2)'s layout of the value with every
    # integer beyond 2^53 in magnitude, and every non-integral Fraction, as a
    # string; booleans and integers up to 2^53 stay as they are, at any depth.
    # _Sets, the spellings of index sets, are laid out as the lists they name.
    from fractions import Fraction

    from zonoehrhart.cli import _dumps, _Sets
    from zonoehrhart.polycore import HStarVector, Poly

    big = 2**60
    for value, plain in (
            (2**53, 2**53), (-(2**53), -(2**53)),
            (2**53 + 1, str(2**53 + 1)), (-(2**60), str(-(2**60))),
            (True, True), (False, False), (None, None), ("p/q", "p/q"),
            (Fraction(big), str(big)), (Fraction(big, 3), f"{big}/3"),
            (Fraction(-6, 3), -2), (Fraction(1, 2), "1/2"),
            ([], []), ({}, {}), ((1, (2,)), [1, [2]]),
            ([1, [2**53, [-(2**53) - 1, True]], {"a": [False, Fraction(big)]}],
             [1, [2**53, [str(-(2**53) - 1), True]], {"a": [False, str(big)]}]),
            ({"x": {"y": [big, Fraction(5, big)], "z": {}}, "w": "\u00e9\n"},
             {"x": {"y": [str(big), f"5/{big}"], "z": {}}, "w": "\u00e9\n"}),
            (Poly([1, big]), [1, str(big)]),
            (HStarVector([1, Fraction(1, 2), 0], 2), [1, "1/2", 0]),
            (_Sets(), []), ({"s": [_Sets(["[]", "[1,10]", "[12]", "[]"])]},
                            {"s": [[[], [1, 10], [12], []]]})):
        assert _dumps(value) == json.dumps(plain, indent=2), value
    with pytest.raises(TypeError, match="float"):
        _dumps([1, 0.5])

    # Seeded nested values of every kind, an _Echo among them at depth 1 and 2
    # and one _Echo written at several depths: an _Echo's kept layout must not
    # be written at an indent other than its own.
    import random

    from zonoehrhart.cli import _Echo

    rng = random.Random(71)
    leaves = ((0, 0), (-3, -3), (2**53, 2**53), (big, str(big)), (-big, str(-big)),
              (True, True), (None, None), ("aé\"", "aé\""),
              (Fraction(big, 7), f"{big}/7"), (Fraction(8, 4), 2),
              (Poly([1, -big]), [1, str(-big)]), (HStarVector([1, 2, 1], 2), [1, 2, 1]),
              (_Sets(["[]", "[1,2]", "[10]"]), [[], [1, 2], [10]]))

    def nested(depth):
        """A (value, plain) pair of at most `depth` levels."""
        shape = rng.randrange(4) if depth else 0
        if shape == 0:
            return rng.choice(leaves)
        pairs = [nested(depth - 1) for _ in range(rng.randrange(4))]
        if shape == 1:
            return [v for v, _ in pairs], [p for _, p in pairs]
        if shape == 2:
            return tuple(v for v, _ in pairs), [p for _, p in pairs]
        keys = [f"k{i}" for i in range(len(pairs))]
        return dict(zip(keys, (v for v, _ in pairs))), dict(zip(keys, (p for _, p in pairs)))

    def echo(depth):
        value, plain = nested(depth)
        return _Echo(generators=value, mode="typeB"), {"generators": plain, "mode": "typeB"}

    for _ in range(200):
        inner, inner_plain = echo(3)
        value, plain = nested(2)
        outer, outer_plain = echo(2)
        outer["box_table"], outer_plain["box_table"] = inner, inner_plain
        for wrapped, wrapped_plain in (
                ({"input": outer}, {"input": outer_plain}),              # depths 1 and 2
                ([value, {"input": inner}], [plain, {"input": inner_plain}]),  # 2 again
                ([[inner], inner], [[inner_plain], inner_plain]),       # 2, then 1
                (inner, inner_plain), ({"input": outer}, {"input": outer_plain})):
            assert _dumps(wrapped) == json.dumps(wrapped_plain, indent=2), wrapped_plain


# CLI calls pinned byte for byte: exit code, stdout and stderr.  A dict
# stands for the stdout json.dumps(dict, indent=2) + "\n", the CLI's layout;
# the `check` output is spelled out in full.
PINNED_DOCS = {
    "hex.json": HEXAGON_DOC,
    "hexB.json": {**HEXAGON_DOC, "mode": "typeB"},
    "table.json": {"generators": [[1, 1], [1, -1]],
                   "box_table": {"[1,2]": "1/2", "[1]": 9007199254740993}},
    "segment.json": {"generators": [[1, -2], [0, 0], [-2, 4]]},
    "outside.json": {**HEXAGON_DOC, "box_table": {"[1,1]": 1}},
    "huge.json": {"generators": [[4000, 0], [0, 4000]]},
}
HEXAGON_DIAGNOSTICS = {
    "bases": [[1, 2], [1, 3], [2, 3]], "internally_passive": [[], [3], [2, 3]],
    "box_table": {"[]": 1, "[1]": 0, "[2]": 0, "[3]": 0, "[1,2]": 0, "[1,3]": 0, "[2,3]": 0},
    "eulerian_multiplicities": [1, 1, 1]}
PINNED = [
    (["hstar", "hex.json", "--diagnostics"], 0,
     {"command": "hstar", "input": {"generators": [[1, 0], [0, 1], [1, 1]], "mode": "standard"},
      "hstar": [1, 4, 1], "degree": 2, "diagnostics": HEXAGON_DIAGNOSTICS}, ""),
    (["hstar", "hexB.json", "--diagnostics"], 0,
     {"command": "hstar", "input": {"generators": [[1, 0], [0, 1], [1, 1]], "mode": "typeB"},
      "hstar": [1, 16, 7], "degree": 2, "diagnostics": HEXAGON_DIAGNOSTICS}, ""),
    (["hstar", "table.json", "--diagnostics"], 0,
     {"command": "hstar",
      "input": {"generators": [[1, 1], [1, -1]], "mode": "standard",
                "box_table": {"[1,2]": "1/2", "[1]": "9007199254740993"}},
      "hstar": [1, "36028797018963975/2", "1/2"], "degree": 2,
      "diagnostics": {"bases": [[1, 2]], "internally_passive": [[]],
                      "box_table": {"[]": 1, "[1]": "9007199254740993", "[2]": 0, "[1,2]": "1/2"},
                      "eulerian_multiplicities": [1, "9007199254740993", "1/2"]}}, ""),
    (["check", "--hvector", "9007199254740993,1", "--degree", "1", "--properties", "unimodal"], 0,
     '{\n  "command": "check",\n  "source": "literal",\n  "hstar": [\n    "9007199254740993",\n'
     '    1\n  ],\n  "degree": 1,\n  "results": {\n    "unimodal": {\n      "value": true,\n'
     '      "peaks": [\n        0\n      ]\n    }\n  }\n}\n', ""),
    (["matroid", "segment.json"], 0,
     {"command": "matroid", "input": {"generators": [[1, -2], [0, 0], [-2, 4]], "mode": "standard"},
      "n": 3, "dim": 2, "rank": 1, "independent_sets": [[], [1], [3]], "bases": [[1], [3]],
      "internally_passive": [[], [3]], "coloop_free": True}, ""),
    (["eulerian", "--family", "A", "--d", "3", "--index", "2", "--method", "enumerate"], 0,
     {"command": "eulerian", "family": "A", "d": 3, "index": 2, "method": "enumerate",
      "coefficients": [0, 2]}, ""),
    (["hstar", "outside.json"], 1, None,
     '{"error": "(1, 1) is not an independent set of the configuration", '
     '"code": "math-precondition"}\n'),
    (["ehrhart", "huge.json", "--method", "oracle"], 2, None,
     '{"error": "bounding box holds 16008001 integer points, above the 10000000 '
     'enumeration guard", "code": "resource-limit"}\n'),
]


def test_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    from zonoehrhart import cli

    monkeypatch.chdir(tmp_path)
    for name, doc in PINNED_DOCS.items():
        write_doc(tmp_path, doc, name)
    for argv, code, out, err in PINNED:
        assert cli.main(argv) == code, argv
        captured = capsys.readouterr()
        if out is None:
            out = ""
        elif not isinstance(out, str):
            out = json.dumps(out, indent=2) + "\n"
        assert (captured.out, captured.err) == (out, err), argv


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # `main` builds its parser on the first call and reuses it; no call may
    # leave a trace in it.  Alternate commands and flags, with a refused flag
    # in between, and match each call against a fresh process.
    from zonoehrhart import cli

    monkeypatch.chdir(tmp_path)
    for name, doc in PINNED_DOCS.items():
        write_doc(tmp_path, doc, name)
    calls = (["hstar", "hex.json", "--diagnostics"], ["hstar", "hex.json"],
             ["hstar", "hex.json", "--bogus"],
             ["check", "hex.json", "--properties", "unimodal"], ["check", "hex.json"],
             ["ehrhart", "table.json", "--method", "both"], ["ehrhart", "table.json"],
             ["hstar", "hexB.json", "--diagnostics"])
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        proc = run_cli(*argv)
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert cli._parser.cache_info().currsize == 1


def test_reused_configuration_leaks_nothing_between_documents(tmp_path, monkeypatch, capsys):
    # Documents on one set of generators share a configuration, and nothing
    # else: no table, two tables, no table again; both modes; with and
    # without "dim", whose echo keeps or omits it; and a table naming a
    # dependent set in the middle.  Then, once the configuration's key map is
    # built, tables that spell keys another way ("[2,1]", "[1, 4]") beside
    # the CLI's own ("[]", "[3]"), and tables with a good key followed by a
    # dependent set, a float value or the same set spelled again, and a last
    # `matroid` after the diagnostics.  Every call matches the same call made
    # with an empty slot, which holds no map; from there, only a `matroid` or
    # diagnostics that succeeds builds the map's inverse, and `check` never does.
    from zonoehrhart import cli

    monkeypatch.chdir(tmp_path)
    generators = [[2, 1], [0, 1], [1, 1], [1, -1]]
    docs = {
        "plain.json": {"generators": generators},
        "t1.json": {"generators": generators, "box_table": {"[1,2]": 3, "[4]": "1/2"}},
        "t2.json": {"generators": generators, "mode": "typeB",
                    "box_table": {"[1,2]": -1, "[]": 2}},
        "dependent.json": {"generators": generators, "box_table": {"[1,2,3]": 1}},
        "dim.json": {"generators": generators, "dim": 2, "mode": "typeB"},
        "plainB.json": {"generators": generators, "mode": "typeB"},
        "spellings.json": {"generators": generators,
                           "box_table": {"[2,1]": 3, "[1, 4]": "1/2", "[]": 2, "[3]": -1}},
        "mixed.json": {"generators": generators, "box_table": {"[1,2]": 3, "[1,2,3]": 1}},
        "float.json": {"generators": generators, "box_table": {"[1,2]": 3, "[4]": 0.5}},
        "twice.json": {"generators": generators, "box_table": {"[1,2]": 3, "[2, 1]": 4}},
    }
    for name, doc in docs.items():
        write_doc(tmp_path, doc, name)
    calls = [["hstar", "plain.json", "--diagnostics"], ["check", "t1.json"],
             ["hstar", "t1.json", "--diagnostics"], ["matroid", "t2.json"],
             ["hstar", "t2.json", "--diagnostics"], ["hstar", "dependent.json"],
             ["check", "dependent.json"], ["ehrhart", "dim.json", "--method", "both"],
             ["hstar", "dim.json", "--diagnostics"], ["matroid", "dim.json"],
             ["hstar", "plainB.json", "--diagnostics"], ["ehrhart", "t1.json"],
             ["hstar", "plain.json", "--diagnostics"], ["check", "plain.json"],
             ["hstar", "spellings.json", "--diagnostics"], ["matroid", "spellings.json"],
             ["hstar", "mixed.json"], ["check", "float.json"],
             ["hstar", "twice.json", "--diagnostics"], ["hstar", "spellings.json", "--diagnostics"],
             ["matroid", "plain.json"]]
    cli._slot.reset()
    in_sequence, held = [], []
    for argv in calls:
        code = cli.main(argv)
        in_sequence.append((code, *capsys.readouterr()))
        held.append((cli._slot.config, cli._slot.keys, cli._slot.names))
    config, keys, names = held[-1]
    assert all(c is config for c, _, _ in held)  # one configuration, built by the first call
    assert keys is not None and names is not None
    assert all(k in (None, keys) and m in (None, names) for _, k, m in held)  # each built once
    for argv, seen in zip(calls, in_sequence):
        cli._slot.reset()
        assert cli._slot.keys is cli._slot.names is cli._slot.text is None
        code = cli.main(argv)
        assert (code, *capsys.readouterr()) == seen, argv
        lists = code == 0 and (argv[0] == "matroid" or "--diagnostics" in argv)
        assert (cli._slot.names is not None) == lists, argv
    codes = [code for code, _, _ in in_sequence]
    assert codes == [0] * 5 + [1, 1] + [0] * 7 + [0, 0, 1, 1, 1, 0, 0]
    errors = [json.loads(err)["code"] for _, _, err in in_sequence[-5:-2]]
    assert errors == ["math-precondition", "bad-input", "bad-input"]
    table = json.loads(in_sequence[-2][1])["diagnostics"]["box_table"]
    assert (table["[1,2]"], table["[1,4]"], table["[]"], table["[3]"]) == (3, "1/2", 2, -1)
    echoes = {argv[1]: json.loads(out)["input"] for argv, (_, out, _) in zip(calls, in_sequence)
              if out}
    assert echoes["dim.json"]["dim"] == 2 and "dim" not in echoes["plainB.json"]
    assert "box_table" not in echoes["plain.json"]


def test_reuse_keeps_at_most_one_configuration(tmp_path, capsys):
    # The slot holds one configuration: a document on other generators lets
    # the previous one go, and its spellings, their inverse and the kept
    # document with it, without the cyclic collector.  A configuration over
    # the enumeration guard is refused on every call, not only the first.
    import gc
    import random
    import weakref

    from zonoehrhart import cli
    from zonoehrhart.matroid import VectorConfiguration

    first = [[2, 1, 0], [0, 1, 1], [1, 1, -1], [1, 0, 3]]
    path_a = write_doc(tmp_path, {"generators": first, "box_table": {"[1,2]": 3}}, "a.json")
    path_b = write_doc(tmp_path, {"generators": HEXAGON_DOC["generators"]}, "b.json")
    gc.disable()
    try:
        assert cli.main(["hstar", path_a, "--diagnostics"]) == 0
        config, (spec, table, echo) = cli._slot.config, cli._slot.loaded
        assert "_minor_gcds" in vars(config)  # the one the call enumerated
        assert spec.config is table.config is config and "_histogram" in vars(table)
        refs = [weakref.ref(x) for x in (config, spec, table)]
        held = [cli._slot.keys, cli._slot.names, cli._slot.text, cli._slot.loaded]
        alone, lone = [{}, {}, str(object()), tuple([None])], {}  # referred to only here
        del config, spec, table
        assert None not in [ref() for ref in refs]
        assert all(map(int.__gt__, map(sys.getrefcount, held), map(sys.getrefcount, alone)))
        assert cli.main(["matroid", path_b]) == 0
        assert list(map(sys.getrefcount, held)) == list(map(sys.getrefcount, alone))
        del held  # the kept document held the spec, the table and the echo
        assert [ref() for ref in refs] == [None] * 3
        assert sys.getrefcount(echo) == sys.getrefcount(lone)
    finally:
        gc.enable()
    assert cli._slot.config == VectorConfiguration(HEXAGON_DOC["generators"])
    capsys.readouterr()

    rng = random.Random(12)
    doc = {"generators": [[rng.randint(-2, 2) for _ in range(12)] for _ in range(60)]}
    path = write_doc(tmp_path, doc, "over.json")
    for _ in range(2):
        assert cli.main(["hstar", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "resource-limit"


def test_a_document_read_again_is_parsed_and_summed_once(tmp_path, monkeypatch, capsys):
    # The slot keeps the last document that loaded: the same text, at its own
    # path or another, is not parsed, read key by key or checked again, and
    # its table keeps the double sum's histogram, so no later command on it
    # takes a double sum.  Each output is byte for byte the one a call with an
    # empty slot writes.
    from zonoehrhart import cli, matroid, zonotope

    monkeypatch.chdir(tmp_path)
    generators = [[2, 1, 0], [0, 1, 1], [1, 1, -1], [1, 0, 3], [1, 1, 1]]
    docs = {"plain.json": {"generators": generators},
            "table.json": {"generators": generators, "mode": "typeB",
                           "box_table": {"[2, 1]": "1/2", "[3]": -1, "[]": 2}}}
    for name, doc in docs.items():
        write_doc(tmp_path, doc, name)
    write_doc(tmp_path, docs["table.json"], "copy.json")
    calls = {}
    for module, name in ((json, "loads"), (zonotope, "_checked"), (matroid, "_double_sum")):
        seen, real = calls.setdefault(name, []), getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, seen=seen, real=real, **kwargs:
                            seen.append(1) or real(*args, **kwargs))

    def call(argv):
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    for name in docs:
        argvs = [["check", name], ["hstar", name, "--diagnostics"], ["matroid", name],
                 ["hstar", name], ["ehrhart", name], ["check", name, "--properties", "cone"]]
        if name == "table.json":
            argvs.append(["hstar", "copy.json", "--diagnostics"])
        expected = [cli._slot.reset() or call(argv) for argv in argvs]
        cli._slot.reset()
        for k, argv in enumerate(argvs):
            for seen in calls.values():
                seen.clear()
            assert call(argv) == expected[k], argv
            counts = {key: len(seen) for key, seen in calls.items()}
            if k == 0:
                assert counts["loads"] >= 1 and counts["_double_sum"] == 1, counts
                assert counts["_checked"] == ("box_table" in docs[name]), counts
            else:
                assert counts == dict.fromkeys(calls, 0), (argv, counts)
        assert [code for code, _, _ in expected] == [0] * len(argvs)


def test_a_rewritten_or_failed_document_is_read_anew(tmp_path, monkeypatch, capsys):
    # The slot keeps a document by its text, not by its path: the same path
    # rewritten with another table gives that table's output.  A document
    # that fails to load is not kept, so it fails again on the next call, and
    # a good document on the same generators after it still reuses the
    # configuration.  Each output is the one a call with an empty slot writes.
    from zonoehrhart import cli

    monkeypatch.chdir(tmp_path)
    generators = [[2, 1], [0, 1], [1, 1], [1, -1]]
    versions = [{"generators": generators, "box_table": {"[1,2]": 3}},
                {"generators": generators, "box_table": {"[1,2]": 5, "[4]": "1/2"}},
                {"generators": generators, "box_table": {"[1,2]": 5, "[1,2,3]": 1}},
                {"generators": generators, "box_table": {"[1,2]": 3, "[4]": 0.5}},
                {"generators": generators, "box_table": {"[1,2]": 3, "[2,1]": 5}},
                {"generators": generators},
                {"generators": generators, "box_table": {"[1,2]": 3}}]
    argv = ["hstar", "doc.json", "--diagnostics"]

    def call():
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    expected = []
    for doc in versions:
        write_doc(tmp_path, doc, "doc.json")
        cli._slot.reset()
        expected.append(call())
    assert [code for code, _, _ in expected] == [0, 0, 1, 1, 1, 0, 0]
    assert len({out for _, out, _ in expected[:2]}) == 2
    cli._slot.reset()
    config = None
    for doc, seen in zip(versions, expected):
        write_doc(tmp_path, doc, "doc.json")
        for _ in range(2):
            assert call() == seen, doc
            config = config or cli._slot.config
            assert cli._slot.config is config, doc
    (tmp_path / "doc.json").write_text("{", encoding="utf-8")
    for _ in range(2):
        code, out, err = call()
        assert (code, out, json.loads(err)["code"]) == (1, "", "bad-input")
    write_doc(tmp_path, versions[1], "doc.json")
    assert call() == expected[1] and cli._slot.config is config


def test_a_documents_echo_is_laid_out_once(tmp_path, monkeypatch, capsys):
    # `check`, `hstar --diagnostics` and `matroid` on one document lay out its
    # echo once, counted as the calls that lay out its generators.  The same
    # path rewritten with another mode, then with a "dim", is a new document on
    # the same configuration: its echo is laid out once more, and each output is
    # the one a call with an empty slot writes.  A failed load lays out no echo
    # and keeps none of its own, and a document on other generators frees the
    # kept text without the cyclic collector.
    import gc

    from zonoehrhart import cli

    monkeypatch.chdir(tmp_path)
    generators, table = [[2, 1, 0], [0, 1, 1], [1, 1, -1], [1, 0, 3]], {"[1,2]": 3, "[4]": "1/2"}
    versions = [{"generators": generators, "box_table": table},
                {"generators": generators, "mode": "typeB", "box_table": table},
                {"generators": generators, "dim": 3, "mode": "typeB", "box_table": table}]
    argvs = [["check", "doc.json"], ["hstar", "doc.json", "--diagnostics"],
             ["matroid", "doc.json"]]

    def call(argv):
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    expected = []
    for doc in versions:
        write_doc(tmp_path, doc, "doc.json")
        expected.append([cli._slot.reset() or call(argv) for argv in argvs])
    assert [code for outs in expected for code, _, _ in outs] == [0] * 9
    assert len({out for outs in expected for _, out, _ in outs}) == 9

    laid_out, dumps = [], cli._dumps

    def counting(value, newline="\n"):
        if cli._slot.loaded is not None and value is cli._slot.loaded[2]["generators"]:
            laid_out.append(newline)
        return dumps(value, newline)

    monkeypatch.setattr(cli, "_dumps", counting)
    cli._slot.reset()
    config = None
    for doc, seen in zip(versions, expected):
        write_doc(tmp_path, doc, "doc.json")
        laid_out.clear()
        assert [call(argv) for argv in argvs] == seen, doc
        assert laid_out == ["\n    "], doc
        config = config or cli._slot.config
        assert cli._slot.config is config, doc
    kept = cli._slot.loaded
    for bad in ({"generators": generators, "box_table": {"[1,2]": 0.5}},
                {"generators": generators, "mode": "typeC"}):
        write_doc(tmp_path, bad, "doc.json")
        laid_out.clear()
        assert call(argvs[1])[0] == 1 and not laid_out, bad
        assert cli._slot.loaded is kept and cli._slot.config is config, bad
    write_doc(tmp_path, {"generators": [[1, 0], [0, 1]], "box_table": {"[1]": 0.5}}, "doc.json")
    assert call(argvs[0])[0] == 1 and cli._slot.loaded is None and not laid_out
    write_doc(tmp_path, versions[0], "doc.json")
    assert [call(argv) for argv in argvs] == expected[0]
    assert laid_out == ["\n    "]

    write_doc(tmp_path, HEXAGON_DOC, "hex.json")
    gc.disable()
    try:
        text, lone = cli._slot.loaded[2].laid_out[1], str(object())  # lone: referred to only here
        assert sys.getrefcount(text) > sys.getrefcount(lone)
        assert call(["matroid", "hex.json"])[0] == 0
        assert sys.getrefcount(text) == sys.getrefcount(lone)
    finally:
        gc.enable()


def test_integers_past_the_conversion_limit_are_json_errors(tmp_path, capsys):
    # Python refuses to convert an int of more digits than its limit to or
    # from a string.  An input integer that long is bad input (exit 1), in a
    # generator, a box-table key or a box-table value; a result integer that
    # long cannot be written and hits a resource guard (exit 2).
    from zonoehrhart import cli

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string conversion limit")
    digits = "1" * (limit + 700)
    nines = "9" * limit  # within the limit; two of them sum past it
    for text, exit_code, code in (
            ('{"generators": [[%s]]}' % digits, 1, "bad-input"),
            ('{"generators": [[1]], "box_table": {"[%s]": 1}}' % digits, 1, "bad-input"),
            ('{"generators": [[1]], "box_table": {"[ %s]": 1}}' % digits, 1, "bad-input"),
            ('{"generators": [[1]], "box_table": {"[1]": %s}}' % digits, 1, "bad-input"),
            ('{"generators": [[1, 0], [0, 1], [1, 1]], "box_table": {"[1,2]": %s, "[1,3]": %s}}'
             % (nines, nines), 2, "resource-limit")):
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["hstar", str(path)]) == exit_code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == code


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
    from zonoehrhart import cli, matroid
    from zonoehrhart.errors import InternalDisagreementError
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.zonotope import (ZonotopeSpec, default_box_table,
                                      hstar_halfopen_parallelepiped, hstar_zonotope)

    generators = [[2, 1], [0, 1], [1, 1]]
    dropped = matroid._mask((1, 2))
    assert default_box_table(VectorConfiguration(generators)).value((1, 2)) != 0
    # The set-major ordering sums b(I) by the groups of sets that share a
    # multiplicity vector m_I, for the configuration's own box counts, a
    # passed table and the one piece of `hstar_halfopen_parallelepiped`
    # (here on [1, 2]) alike.  The basis-major ordering walks the submasks of
    # the bases, so a sum that drops one set, or groups that drop one (I, B)
    # pair of a set whose value is nonzero, make the two orderings disagree.
    real_group, real_grouped_sum = matroid._group, matroid._grouped_sum

    def sum_dropping_one_set(groups, values, r):
        assert sorted(m for _, masks in groups for m in masks) == sorted(complete)
        return real_grouped_sum([(m, [s for s in masks if s != dropped]) for m, masks in groups],
                                values, r)

    def group_dropping_one_pair(sets, pieces, r):
        groups = []
        for m, masks in real_group(sets, pieces, r):
            if dropped in masks:
                j = next(j for j, k in enumerate(m) if k)
                groups.append((m[:j] + (m[j] - 1,) + m[j + 1:], [dropped]))
                masks = [s for s in masks if s != dropped]
            groups.append((m, masks))
        return tuple(groups)

    cases = (("own", generators, lambda config: hstar_zonotope(ZonotopeSpec(config)), {}),
             ("passed", generators,
              lambda config: hstar_zonotope(ZonotopeSpec(config), default_box_table(config)),
              {"box_table": {"[]": 2}}),
             ("piece", generators[:2],
              lambda config: hstar_halfopen_parallelepiped(ZonotopeSpec(config)), None))
    for name, mutant in (("_grouped_sum", sum_dropping_one_set),
                         ("_group", group_dropping_one_pair)):
        for case, vectors, call, doc in cases:
            complete = {matroid._mask(s) for s in VectorConfiguration(vectors).independent_sets()}
            with monkeypatch.context() as patch:
                patch.setattr(matroid, name, mutant)
                fresh = VectorConfiguration(vectors)  # nothing summed or grouped yet
                with pytest.raises(InternalDisagreementError, match="double sums disagree"):
                    call(fresh)
                if doc is None:
                    continue
                cli._slot.reset()
                path = write_doc(tmp_path, {"generators": vectors, **doc}, f"{name}-{case}.json")
                assert cli.main(["hstar", path]) == 3, (name, case)
                captured = capsys.readouterr()
                assert captured.out == "" and json.loads(captured.err)["code"] == "disagreement"


def test_basis_major_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # The other ordering: the basis-major walk reads b(I) for every submask I
    # of every basis.  One nonzero read coming back 0 skips that (B, I) pair,
    # as if the walk had stepped over the submask, and the set-major sum,
    # which reads b(I) by the groups of the enumerated sets, then disagrees
    # with it.
    from zonoehrhart import cli, matroid
    from zonoehrhart.errors import InternalDisagreementError
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.zonotope import ZonotopeSpec, hstar_zonotope

    generators = [[2, 1], [0, 1], [1, 1]]
    real_basis_major, skipped = matroid._basis_major, []

    class SkipOneSubmask(dict):
        def __getitem__(self, mask):
            b = dict.__getitem__(self, mask)
            if mask and b != 0 and not skipped:
                skipped.append(mask)
                return 0
            return b

    monkeypatch.setattr(matroid, "_basis_major",
                        lambda values, pieces, r: real_basis_major(SkipOneSubmask(values), pieces, r))
    with pytest.raises(InternalDisagreementError, match="double sums disagree"):
        hstar_zonotope(ZonotopeSpec(VectorConfiguration(generators)))
    assert skipped
    skipped.clear()
    cli._slot.reset()  # no configuration with a histogram already summed
    path = write_doc(tmp_path, {"generators": generators})
    assert cli.main(["hstar", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["code"] == "disagreement"
    assert skipped


def test_rank_and_fold_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # Enumeration folds every set the rank test accepts; a zero step on one
    # of them means the two independence tests disagree.
    from zonoehrhart import _linalg, cli
    from zonoehrhart.errors import InternalDisagreementError
    from zonoehrhart.matroid import VectorConfiguration

    generators = [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 0], [2, 0, 1, 1]]
    real_fold, zeroed = _linalg.fold, []

    def zero_on_one_basis(v, columns):
        step, rest, pivot = real_fold(v, columns)
        if len(columns) == 1 and not zeroed:  # the last element of a basis at d = 4
            zeroed.append(v)
            return 0, columns, None
        return step, rest, pivot

    monkeypatch.setattr(_linalg, "fold", zero_on_one_basis)
    with pytest.raises(InternalDisagreementError, match="fold step is 0"):
        VectorConfiguration(generators).independent_sets()
    assert zeroed
    zeroed.clear()
    cli._slot.reset()  # no configuration already enumerated
    path = write_doc(tmp_path, {"generators": generators})
    assert cli.main(["matroid", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["code"] == "disagreement"


def _seeded_documents():
    """(name, document) pairs on d = 0..4: plain draws, a loop, a repeated
    generator, a rank-deficient draw and an empty list with "dim"; each with
    no table, a partial integer table and a rational one, in either mode."""
    import random

    from zonoehrhart.matroid import VectorConfiguration

    rng = random.Random(2611)
    for d in range(5):
        for shape in ("plain", "loop", "repeat", "deficient", "empty"):
            n = rng.randint(max(d - 1, 1), d + 2)
            generators = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            if shape == "loop":
                generators.insert(rng.randint(0, n), [0] * d)
            elif shape == "repeat":
                generators.insert(rng.randint(0, n), list(rng.choice(generators)))
            elif shape == "deficient":
                for v in generators:
                    v[-1:] = [0] * min(d, 1)
            elif shape == "empty":
                generators = []
            sets = VectorConfiguration(generators, d).independent_sets()
            for table in ("none", "integer", "rational"):
                doc = {"generators": generators, "mode": rng.choice(("standard", "typeB"))}
                if shape == "empty" or rng.random() < 0.3:
                    doc["dim"] = d
                if table != "none":
                    chosen = rng.sample(sets, rng.randint(1, len(sets)))
                    doc["box_table"] = {
                        json.dumps(list(s), separators=(",", ":")):
                            rng.randint(-3, 5) if table == "integer"
                            else f"{rng.randint(-3, 5)}/{rng.randint(1, 4)}"
                        for s in chosen}
                yield f"d{d}-{shape}-{table}.json", doc


def _unimodular_draws():
    """Seeded configurations for `hstar_totally_unimodular`: the hexagon and
    {-1, 0, 1} draws at d = 0..4, some of them not unimodular."""
    import random

    rng = random.Random(2612)
    yield [[1, 0], [0, 1], [1, 1]], 2
    for d in range(5):
        for _ in range(4):
            n = rng.randint(max(d - 1, 0), d + 2)
            yield [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)], d


def _output_records(tmp_path, capsys):
    """One line per call: the CLI's (exit code, stdout, stderr) on every seeded
    document through `matroid`, `hstar` and `hstar --diagnostics`, then
    `hstar_totally_unimodular`'s value or error in both modes."""
    from zonoehrhart import cli
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.zonotope import MODES, ZonotopeSpec, hstar_totally_unimodular

    cli._slot.reset()
    records = []
    for name, doc in _seeded_documents():
        write_doc(tmp_path, doc, name)
        for argv in (["matroid", name], ["hstar", name], ["hstar", name, "--diagnostics"]):
            code = cli.main(argv)
            out, err = (s.replace(str(tmp_path), "<tmp>") for s in capsys.readouterr())
            records.append(json.dumps([argv, code, out, err]))
    for generators, d in _unimodular_draws():
        for mode in MODES:
            try:
                h = hstar_totally_unimodular(ZonotopeSpec(VectorConfiguration(generators, d), mode))
                result = [h.d, [str(x) for x in h.h]]
            except Exception as exc:
                result = [type(exc).__name__, str(exc)]
            records.append(json.dumps([generators, d, mode, result]))
    return records


# The sha256 of the records, and the first four hex digits of each record's
# own sha256, which locate the first record that moved.  A change that moves
# an output on purpose updates both and says which records moved and why.
OUTPUT_DIGEST = "1e33454dfc5a730db5f1b076cab5e6b254548afd87f016db4087b06a6749fd55"
RECORD_DIGESTS = """
b1d9 e24e 0278 6557 6905 3ec9 ed99 1c8b c87c 4642 be6b 0d5a f90e 71d0 0211 9f1a a8bf
8994 51d1 8417 e78d 7d01 6cd7 3897 8e9d 0889 fc8c 70db 8738 8b56 6aa4 c66b 559d 9781
ee7a 0aaa b103 6f8d a96d 3bb0 d22c 151b 4020 ac75 dc4a 85e1 3a36 7a77 04cd ff52 795a
170f 79ae 7794 8631 725d ea3a 8393 1ee0 7d00 8cc0 f05a 2af1 e959 8a81 1d21 791d baad
2925 505d 088b cf6b b3a6 74af a06b 3a3f 6b6e 4324 84a7 e69f 96b8 48ae 2544 44b6 a1ef
18e0 4a71 b7dc cc4c 8843 db51 49ae c1b5 91d1 6602 8835 7bc7 9f8f 09ed d851 292d 6742
eb15 da7d e51e f332 3bd1 09c2 90f0 0f45 e7c1 7203 3539 1aff 335a 54bd 4e54 fa27 250a
1708 8fd5 cae4 f1db 712c 44b0 b2b6 4c74 7800 7e82 e6d7 206c 1145 f525 8c68 a4f3 4671
7738 61e7 b35b 6a39 18a1 2b7a 0c1c 20e3 8a59 2e6d 1ff0 f1de 253c 44f3 c7e5 ed7c 3d71
4302 85bd d180 f358 cb8b 032a d4b9 ebad f383 f15c 944e 34b5 bea5 628a d4c8 42b2 5547
d784 5e4b 07f2 7afe f80a b14b 3904 136b a376 c772 dbe4 1c82 a0dc 6eb9 7aa2 4a05 8fa6
43d7 ab30 4824 17e1 9680 7268 27a5 f91a b9f9 3972 ae32 948e b247 2d48 3761 1369 9e5c
3515 5e17 191d cb56 8a92 3751 d39e 00c9 8c21 4d65 947e bfea a8d7 1dd0 526d d40a e8bc
abdb a4c1 b4f6 19c1 5e73 d616 e697 af3c bfa9 c18f 3f07 df99 e697 af3c 64f5 8000 7b02
572f 593c ea8a 354d f6d9 7107 6a17 d876 93fe 61f1 70f0 780b 1ca8 bac0 209f 44cb f542
68b0 6899 be2b 2126 428d 491a 66bf 2483 386a 12e4 305c c712
"""


def _match_digest(records, digest, record_digests):
    """Fail, naming the first record that moved, unless the records hash to the digest."""
    import hashlib

    if hashlib.sha256("\n".join(records).encode()).hexdigest() != digest:
        short = [hashlib.sha256(r.encode()).hexdigest()[:4] for r in records]
        pinned = record_digests.split()
        first = next((i for i, (a, b) in enumerate(zip(short, pinned)) if a != b),
                     min(len(short), len(pinned)))
        shown = records[first][:600] if first < len(records) else "(no record)"
        pytest.fail(f"{len(records)} records (pinned {len(pinned)}); the first that "
                    f"differs is record {first}: {shown}")


def test_outputs_match_their_digest(tmp_path, monkeypatch, capsys):
    # Every output of `matroid`, `hstar`, `hstar --diagnostics` and
    # hstar_totally_unimodular on the seeded inputs is pinned byte for byte.
    monkeypatch.chdir(tmp_path)
    _match_digest(_output_records(tmp_path, capsys), OUTPUT_DIGEST, RECORD_DIGESTS)


def _bad_table_documents():
    """(name, document) pairs whose box table the CLI refuses, or, for "4/2",
    reads as 2.  Each fault alone, among seeded good entries, on the hexagon,
    a configuration with a parallel pair and seeded draws at d = 3 and 4; two
    faults of different kinds in both orders, on the hexagon and the d = 4
    draw; and a configuration over the enumeration guard, where a fault in
    reading the table is named before the guard and a dependent set after it."""
    import random
    from itertools import combinations, permutations

    from zonoehrhart.matroid import VectorConfiguration

    rng = random.Random(2813)
    configurations = [HEXAGON_DOC["generators"], [[1, 0], [0, 1], [2, 0], [1, 1]]]
    configurations += [[[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + 2)]
                       for d in (3, 4)]
    for c, generators in enumerate(configurations):
        config = VectorConfiguration(generators)
        n, sets = config.n, config.independent_sets()
        dependent = next(s for k in range(2, n + 1) for s in combinations(range(1, n + 1), k)
                         if s not in sets and s != (1, 2))
        faults = {
            "dependent": [(json.dumps(list(dependent), separators=(",", ":")), 1)],
            "repeat": [("[1,1]", 1)], "negative": [("[-1]", 1)], "zero": [("[0]", 1)],
            "past-n": [(f"[{n + 1}]", 1)], "not-a-list": [("1", 1)],
            "not-json": [("[1", 1)], "fraction-index": [("[1.5]", 1)],
            "bool-index": [("[true]", 1)], "twice": [("[2,1]", 5), ("[1,2]", 3)],
            "twice-then-float": [("[1,2]", 3), ("[2,1]", 0.5)],
            "spaced-twice": [("[1,1]", 3), ("[1, 1]", 5)],
            "float": [("[1]", 0.5)], "zero-denominator": [("[2]", "1/0")],
            "not-rational": [("[3]", "1/2/3")], "bool-value": [("[1]", True)],
            "null-value": [("[2]", None)], "four-halves": [("[3]", "4/2")],
        }
        used = {(1,), (2,), (3,), (1, 2), dependent}
        good = [s for s in sets if s not in used]
        cases = [[kind] for kind in faults]
        if c in (0, 3):
            cases += [list(pair) for pair in permutations(
                ("dependent", "repeat", "past-n", "not-a-list", "fraction-index", "twice",
                 "float", "zero-denominator"), 2)]
        for kinds in cases:
            entries = [(json.dumps(list(s), separators=(",", ":")), rng.randint(-3, 5))
                       for s in rng.sample(good, rng.randint(0, min(4, len(good))))]
            for kind in kinds:
                for entry in faults[kind]:
                    entries.insert(rng.randint(0, len(entries)), entry)
            assert len(dict(entries)) == len(entries)  # no key is written twice
            yield f"c{c}-{'-'.join(kinds)}.json", {"generators": generators,
                                                   "box_table": dict(entries)}
    over = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(60)]
    for kind, table in (("float", {"[2]": 1, "[1]": 0.5}), ("repeat", {"[2]": 1, "[1,1]": 1}),
                        ("twice", {"[2,1]": 5, "[1,2]": 3}), ("repeat-float", {"[1,1]": 1, "[1]": 0.5})):
        yield f"over-{kind}.json", {"generators": over, "box_table": table}


def _error_records(tmp_path, capsys):
    """One line per `check` on every seeded document, then one per bad-table
    document with its `hstar`, `check` and `matroid` calls."""
    from zonoehrhart import cli

    def call(argv):
        code = cli.main(argv)
        return [code, *(s.replace(str(tmp_path), "<tmp>") for s in capsys.readouterr())]

    cli._slot.reset()
    records = []
    for name, doc in _seeded_documents():
        write_doc(tmp_path, doc, name)
        records.append(json.dumps([name, call(["check", name])]))
    for name, doc in _bad_table_documents():
        write_doc(tmp_path, doc, name)
        records.append(json.dumps([name, *(call([cmd, name]) for cmd in ("hstar", "check", "matroid"))]))
    return records


# Taken, as OUTPUT_DIGEST was, on the tree before the CLI read box-table keys
# straight to masks: that change moves no error message, exit code or its order.
ERROR_DIGEST = "0431c8c5e30bb8e08dcce006a3bbed9f8e552c584e80ad81411f27d48486ca33"
ERROR_RECORD_DIGESTS = """
2768 8d8f 9ed6 097f 7805 e62f a3b2 93bc f956 0826 7929 8a6c e198 f91f b50a 805f 35ee
1f62 72eb 2974 5858 e48a 8377 c616 d5ad 7c96 3ab2 2f11 9cc2 827c fcfd b184 bb1f 9325
0f19 52c0 83bb 05ec b2d5 a0c1 66f8 17ed 96ff fad2 2a48 af25 9bef a9c4 53a1 3699 7b24
2640 c44c 1dea b927 6cd7 c486 218d 5765 db95 ffe3 ba98 835b fedb ff1b 490a a004 11fa
b30c e015 1983 580f 9d8b 8c8d 9741 8412 aef0 7df0 c6e3 77cb da3a d6e9 cb30 7842 a27d
b863 f088 5c13 0710 dfe4 d691 b9aa 2e8d e172 aebb b345 ed9f 48dd 2f8f e220 6060 ece4
138a fc5a 2596 1372 eb62 60d0 c1f5 cc6d 579d a01f 643c 16e6 c751 d831 5e7a 8c75 b8f7
949c 92c7 9627 a681 9116 38dd 8f19 8bf6 5c7f 7004 2b42 c0ff 09c2 8523 f8de 9b57 bde3
4694 e9ef feb7 abe5 b09e be1d b439 7959 8932 1339 e48a 1067 8d4a 0384 c97b 0f81 b905
1f24 92cf 7f73 16a4 81f8 ccbf b7bd 3801 0824 9dfa aaac d861 f71f 6a6e 5ec3 e2cc d70f
965b 3a05 2465 3c76 1792 3c62 811a 08bb 4deb af4c de09 1d9c a511 7ed6 1a31 efd6 4a4c
e3c4 67ac b2d0 f611 e94a 9a3b 7051 b058 797d 7281 e3fb ebc8 5b99 163b 020b 963c f9c8
c56e 5495 392f 8c38 ce3c 208f c5a5 e6f4 017d b7f2 45bc f471 a7bc 9340 fd51 1290 7e31
05f9 9a92 db66 8509 be56 9229 d3b2 f578 8548 b2d2 cc73 1e69 e314 e338 d883 31ae 4a09
e7fe c87d a35a 98b4 3f10 98d5 89c0 25a6 6cf0 da30 cc0f 695c 97cf 9eef 33de af89 7f85
162a 8fee aff2 3e6b ac60 f862 3580 6088
"""


def test_errors_match_their_digest(tmp_path, monkeypatch, capsys):
    # `check` on every seeded document, and `hstar`, `check` and `matroid` on
    # every bad-table document, pinned byte for byte: exit code, stdout and stderr.
    monkeypatch.chdir(tmp_path)
    _match_digest(_error_records(tmp_path, capsys), ERROR_DIGEST, ERROR_RECORD_DIGESTS)


def test_bases_are_read_from_the_cached_layers(tmp_path, monkeypatch, capsys):
    # `matroid`, `hstar --diagnostics` and hstar_totally_unimodular read each
    # basis, its IP(B) and its minor gcd from the layers enumeration cached:
    # with the checked per-basis calls refused, every result is unchanged.
    import random

    from zonoehrhart import cli
    from zonoehrhart.errors import LatticeMathError
    from zonoehrhart.matroid import VectorConfiguration
    from zonoehrhart.zonotope import MODES, ZonotopeSpec, hstar_totally_unimodular

    monkeypatch.chdir(tmp_path)
    rng = random.Random(26)
    draws = {}
    while len(draws) < 2:  # a unimodular {-1, 0, 1} draw of rank 3 and one that is not
        generators = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(5)]
        config = VectorConfiguration(generators)
        if config.full_rank == 3:
            try:
                hstar_totally_unimodular(ZonotopeSpec(config))
                draws.setdefault("unimodular", generators)
            except LatticeMathError:
                draws.setdefault("other", generators)
    generators = [[2, 1], [0, 1], [1, 1], [1, -1], [0, 0], [0, 1]]
    write_doc(tmp_path, {"generators": generators}, "plain.json")
    write_doc(tmp_path, {"generators": generators, "mode": "typeB",
                         "box_table": {"[1,2]": 3, "[4]": "1/2", "[]": 2}}, "table.json")

    def results():
        cli._slot.reset()
        seen = []
        for vectors in (HEXAGON_DOC["generators"], draws["unimodular"], draws["other"]):
            for mode in MODES:
                z = ZonotopeSpec(VectorConfiguration(vectors), mode)
                try:
                    seen.append(hstar_totally_unimodular(z))
                except LatticeMathError as exc:
                    seen.append(str(exc))
        for argv in (["matroid", "plain.json"], ["hstar", "plain.json", "--diagnostics"],
                     ["hstar", "table.json", "--diagnostics"], ["matroid", "table.json"]):
            seen.append((cli.main(argv), *capsys.readouterr()))
        return seen

    expected = results()
    assert "configuration is not unimodular" in expected[5]
    assert [code for code, _, _ in expected[6:]] == [0] * 4

    def refuse(*args):
        raise AssertionError("a checked per-basis call after enumeration")

    monkeypatch.setattr(VectorConfiguration, "internally_passive", refuse)
    monkeypatch.setattr(VectorConfiguration, "minor_gcd", refuse)
    assert results() == expected


def test_set_lists_keep_the_layout_past_one_digit(tmp_path, monkeypatch, capsys):
    # `matroid` and `hstar --diagnostics` lay out their set lists in bulk from
    # the configuration's spellings.  On seeded documents whose indices reach
    # two digits, one with a loop, an empty generator list and a rank-0 draw,
    # each output is json.dumps(indent=2)'s layout of itself, and its lists
    # are the public calls' lists: first with an empty slot, then on the
    # configuration the other command left in it.
    import random

    from zonoehrhart import cli
    from zonoehrhart.matroid import VectorConfiguration

    monkeypatch.chdir(tmp_path)
    rng = random.Random(32)
    docs = [{"generators": [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]}
            for d, n in ((2, 10), (2, 12), (3, 11), (3, 12))]
    docs[1]["generators"][10] = [0, 0]  # a loop
    docs += [{"generators": [], "dim": 2},
             {"generators": [[0, 0, 0]] * rng.randint(2, 4), "mode": "typeB"}]
    two_digits = 0
    for k, doc in enumerate(docs):
        path = write_doc(tmp_path, doc, f"doc{k}.json")
        config = VectorConfiguration(doc["generators"], doc.get("dim"))
        sets = [list(s) for s in config.independent_sets()]
        bases = [list(b) for b in config.bases()]
        passive = [list(config.internally_passive(b)) for b in bases]
        two_digits += any(i >= 10 for b in bases for i in b)
        seen = {}
        for first, then in ((["matroid"], ["hstar", "--diagnostics"]),
                            (["hstar", "--diagnostics"], ["matroid"])):
            cli._slot.reset()
            held = []
            for argv in (first, then):
                assert cli.main(argv[:1] + [path] + argv[1:]) == 0, (doc, argv)
                out = capsys.readouterr().out
                parsed = json.loads(out)
                assert out == json.dumps(parsed, indent=2) + "\n", (doc, argv)
                assert seen.setdefault(argv[0], out) == out, (doc, argv)
                lists = parsed.get("diagnostics", parsed)
                assert (lists["bases"], lists["internally_passive"]) == (bases, passive), doc
                if argv[0] == "matroid":
                    assert parsed["independent_sets"] == sets, doc
                else:
                    assert list(lists["box_table"]) == [
                        json.dumps(s, separators=(",", ":")) for s in sets], doc
                slot = cli._slot
                held.append((slot.config, slot.keys, slot.names, slot.loaded))
            assert all(a is b for a, b in zip(*held))  # the second call reused all of them
    assert two_digits == 4
