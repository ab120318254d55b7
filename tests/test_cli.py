"""Command-line interface: outputs, files, exit codes."""
import importlib
import json
import random
import re

import pytest

from closuretop import build_space, space_to_json
from closuretop import cli, spaces
from closuretop.cli import main
from closuretop.homology import (homology, parse_theory,
                                 singular_chain_complex)
from conftest import rand_space

# the package exports the function homology under the module's name
homology_mod = importlib.import_module("closuretop.homology")

SQUARE_CSV = ("a,b,c,d\n"
              "0,1,2,1\n"
              "1,0,1,2\n"
              "2,1,0,1\n"
              "1,2,1,0\n")

TWO_POINT_CSV = "a,b\n0,3\n3,0\n"
FIVE_POINT_CSV = "0,3\n3,0\n"


@pytest.fixture
def square_path(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text(SQUARE_CSV)
    return str(p)


@pytest.fixture
def space_path(tmp_path):
    X = build_space(["a", "b", "c"],
                    {"a": {"a", "b"}, "b": {"a", "b"}, "c": {"a", "b", "c"}})
    p = tmp_path / "space.json"
    p.write_text(space_to_json(X))
    return str(p)


def test_homology_text_output(space_path, capsys):
    assert main(["homology", space_path, "--max-dim", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "H_0 = Z^2\nH_1 = 0\n"


def test_homology_json_output(space_path, capsys):
    assert main(["homology", space_path, "--theory", "jplus-times",
                 "--coeffs", "f2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["homology"]["0"] == {"rank": 1, "torsion": []}
    assert obj["arithmetic"] == "exact-mod-2"
    assert main(["homology", space_path, "--coeffs", "z", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["arithmetic"] == "exact-integer"


def test_homology_eliminates_each_boundary_map_once(tmp_path, monkeypatch,
                                                    capsys):
    # --max-dim 2: the degree-0 map and d_1, d_2, d_3, one call each; the
    # groups equal those of per-degree homology(C, n)
    calls = []
    rank_and_invariants = homology_mod.rank_and_invariants

    def counted(cols):
        calls.append(len(cols))
        return rank_and_invariants(cols)

    monkeypatch.setattr(homology_mod, "rank_and_invariants", counted)
    rng = random.Random(211)
    path = tmp_path / "s.json"
    for _ in range(30):
        X = rand_space(rng, rng.choice((1, 2, 3, 3, 4)), p=0.3)
        path.write_text(space_to_json(X))
        for theory in ("j1-times", "j1-box", "jplus-times", "jplus-box"):
            C = singular_chain_complex(X, parse_theory(theory), 3)
            for coeffs in ("z", "q", "f2", "f3"):
                for reduced in (False, True):
                    argv = ["homology", str(path), "--theory", theory,
                            "--max-dim", "2", "--coeffs", coeffs, "--json"]
                    calls.clear()
                    assert main(argv + ["--reduced"] * reduced) == 0
                    assert len(calls) == 4
                    got = json.loads(capsys.readouterr().out)["homology"]
                    for n in range(3):
                        g = homology(C, n, coeffs, reduced)
                        assert got[str(n)] == {"rank": g.rank,
                                               "torsion": list(g.torsion)}


def test_persist_text_json_and_files(square_path, tmp_path, capsys):
    out_prefix = str(tmp_path / "diag")
    svg = str(tmp_path / "diag.svg")
    assert main(["persist", "--metric", square_path, "--max-dim", "1",
                 "--out", out_prefix, "--plot", svg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    d1 = json.loads(lines[1])
    assert d1["degree"] == 1 and d1["pairs"] == [[1.0, 2.0]]
    saved = json.loads((tmp_path / "diag_deg1.json").read_text())
    assert saved == d1
    svg_text = (tmp_path / "diag.svg").read_text()
    assert svg_text.startswith("<svg") and "circle" in svg_text
    assert main(["persist", "--metric", square_path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [d["degree"] for d in obj["diagrams"]] == [0, 1]
    assert obj["arithmetic"] == "exact-mod-2"


def test_persist_sublevel_route(space_path, tmp_path, capsys):
    sub = tmp_path / "f.csv"
    sub.write_text("a,0\nb,1\nc,2\n")
    assert main(["persist", "--space", space_path,
                 "--sublevel", str(sub)]) == 0
    d0 = json.loads(capsys.readouterr().out.splitlines()[0])
    assert [0.0, "inf"] in d0["pairs"]
    # CSV names are matched to the points' str, numeric ids included
    numeric = tmp_path / "numeric.json"
    numeric.write_text(space_to_json(build_space([0, 1], {0: {0}, 1: {1}})))
    sub.write_text("0,0\n1,2\n")
    assert main(["persist", "--space", str(numeric),
                 "--sublevel", str(sub)]) == 0
    d0 = json.loads(capsys.readouterr().out.splitlines()[0])
    assert d0["pairs"] == [[0.0, "inf"], [2.0, "inf"]]
    # a name that is not a point is refused, not dropped
    sub.write_text("0,0\n1,2\n2,1\n")
    assert main(["persist", "--space", str(numeric),
                 "--sublevel", str(sub)]) == 2
    assert capsys.readouterr().err.endswith("unknown point '2'\n")
    # so is a file that leaves a point out
    sub.write_text("0,0\n")
    assert main(["persist", "--space", str(numeric),
                 "--sublevel", str(sub)]) == 2
    assert capsys.readouterr().err.endswith("no function value for 1\n")


def test_persist_digraph_route(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("a b 1\nb a 2\n")
    assert main(["persist", "--digraph", str(g)]) == 0
    d0 = json.loads(capsys.readouterr().out.splitlines()[0])
    assert d0["pairs"] == [[0.0, 2.0], [0.0, "inf"]]


def test_persist_plot_keeps_negative_values_on_the_canvas(tmp_path, capsys):
    X = build_space(["a", "b"], {"a": {"a", "b"}, "b": {"a", "b"}})
    space = tmp_path / "s.json"
    space.write_text(space_to_json(X))
    sub = tmp_path / "f.csv"
    svg = tmp_path / "d.svg"
    for values in ("a,-3\nb,-1\n", "a,-3\nb,2\n"):
        sub.write_text(values)
        assert main(["persist", "--space", str(space), "--sublevel", str(sub),
                     "--plot", str(svg)]) == 0
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"',
                             svg.read_text())
        assert circles
        for cx, cy in circles:
            assert 0 <= float(cx) <= 400 and 0 <= float(cy) <= 400, values
    capsys.readouterr()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code


def test_conflicting_input_sources_exit_2(square_path, space_path, tmp_path,
                                          capsys):
    g = tmp_path / "g.txt"
    g.write_text("a b 1\nb a 2\n")
    sub = tmp_path / "f.csv"
    sub.write_text("a,0\nb,1\nc,2\n")
    m, s = square_path, space_path
    for argv in (["persist", "--metric", m, "--digraph", str(g)],
                 ["persist", "--metric", m, "--space", s,
                  "--sublevel", str(sub)],
                 ["persist", "--digraph", str(g), "--space", s],
                 ["persist", "--metric", m, "--sublevel", str(sub)],
                 ["persist", "--sublevel", str(sub)],
                 ["persist", "--space", s],
                 ["gh", "--metric", m, m, "--digraph", str(g), str(g)],
                 ["gh"]):
        assert _exit_code(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err, argv


def test_bottleneck_and_gh(square_path, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"degree": 0, "pairs": [[0, 4]]}')
    b.write_text('{"degree": 0, "pairs": [[1, 3]]}')
    assert main(["bottleneck", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "1.000000000\n"
    m1 = tmp_path / "m1.csv"
    m2 = tmp_path / "m2.csv"
    m1.write_text("0,2\n2,0\n")
    m2.write_text("0,5\n5,0\n")
    assert main(["gh", "--metric", str(m1), str(m2)]) == 0
    assert capsys.readouterr().out == "1.500000000\n"


def test_bottleneck_rejects_malformed_diagrams(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"degree": 0, "pairs": [[0, 1]]}')
    for text in ('{"degree": 0, "pairs": [[0, Infinity]]}',
                 '{"degree": 0, "pairs": [[NaN, 1]]}',
                 '{"degree": 0, "pairs": [[true, 1]]}',
                 '{"degree": true, "pairs": [[0, 1]]}',
                 '{"degree": 0, "pairs": 5}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["bottleneck", str(bad), str(good)]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")


def test_homotopic_command(tmp_path, capsys):
    X = build_space([0, 1], {0: {0, 1}, 1: {0, 1}})
    sp = tmp_path / "j1.json"
    sp.write_text(space_to_json(X))
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text('{"0": 0, "1": 0}')
    g.write_text('{"0": 1, "1": 1}')
    assert main(["homotopic", str(sp), str(sp), str(f), str(g)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("homotopic in 1 step(s)")
    assert "stage 0" in out and "stage 1" in out
    # two isolated points admit no homotopy between the two constants
    D = build_space([0, 1], {0: {0}, 1: {1}})
    sp2 = tmp_path / "disc.json"
    sp2.write_text(space_to_json(D))
    assert main(["homotopic", str(sp2), str(sp2), str(f), str(g),
                 "--product", "box", "--interval", "plain:2"]) == 0
    assert "not homotopic" in capsys.readouterr().out
    # tuple points are JSON lists in space files, and may be in map files
    P = build_space([(0, 0), (0, 1)], {(0, 0): {(0, 0), (0, 1)},
                                       (0, 1): {(0, 1)}})
    sp3 = tmp_path / "pair.json"
    sp3.write_text(space_to_json(P))
    f.write_text('{"(0, 0)": [0, 1], "(0, 1)": [0, 1]}')
    g.write_text('{"(0, 0)": "(0, 0)", "(0, 1)": [0, 1]}')
    assert main(["homotopic", str(sp3), str(sp3), str(f), str(g),
                 "--interval", "jplus"]) == 0
    assert capsys.readouterr().out.startswith("homotopic in 1 step(s)")


def test_bad_budgets_are_reported(space_path, square_path, tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text('{"a": "a", "b": "a", "c": "a"}')
    assert main(["homotopic", space_path, space_path, str(f), str(f),
                 "--max-steps", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: max_steps")
    for flag, argv in (
            ("--max-dim", ["homology", space_path]),
            ("--max-dim", ["persist", "--metric", square_path]),
            ("--cap", ["homology", space_path]),
            ("--cap", ["gh", "--metric", square_path, square_path]),
            ("--cap", ["homotopic", space_path, space_path, str(f), str(f)]),
            ("--max-steps",
             ["homotopic", space_path, space_path, str(f), str(f)])):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "-1"])
        assert exc.value.code == 2
        assert f"{flag}: must be nonnegative" in capsys.readouterr().err


def test_vr_and_cech_commands(space_path, capsys):
    assert main(["vr", space_path]) == 0
    vr_out = capsys.readouterr().out
    assert vr_out == "a\nb\nc\na b\n"
    assert main(["cech", space_path]) == 0
    cech_out = capsys.readouterr().out
    assert "a b c" in cech_out


def test_exit_codes(tmp_path, space_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n")
    assert main(["persist", "--metric", str(bad)]) == 2  # parse failure
    with pytest.raises(SystemExit) as exc:  # no input source
        main(["persist"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # argparse rejects one file
        main(["gh", "--metric", str(bad)])
    assert exc.value.code == 2
    assert main(["bottleneck", "/nonexistent1", "/nonexistent2"]) == 1
    assert main(["homology", space_path, "--max-dim", "9"]) == 3
    obj = tmp_path / "obj.json"
    obj.write_text('{"points": [{"a": 1}], "closure": {}}')
    for argv in (["homology", str(obj)], ["vr", str(obj)]):
        assert main(argv) == 2  # a JSON object is no point id
        assert "cannot be a JSON object" in capsys.readouterr().err
    pt = tmp_path / "pt.json"
    pt.write_text(space_to_json(build_space(["p"], {"p": {"p"}})))
    assert main(["homology", str(pt), "--max-dim", "9", "--cap", "11"]) == 0
    big = tmp_path / "big.csv"
    n = 7
    rows = [",".join(str(3 if i != j else 0) for j in range(n))
            for i in range(n)]
    big.write_text("\n".join(rows) + "\n")
    assert main(["gh", "--metric", str(big), str(big)]) == 1  # over the cap
    capsys.readouterr()


AB_SPACE = '{"points": ["a", "b"], "closure": {"a": ["a", "b"], "b": ["b"]}}'


@pytest.mark.parametrize("files, argv", [
    ({"in.json": '{"points": ["a", "b"], "closure": {"a": ["b"], "b": ["b"]}}'},
     ["homology", "in.json"]),
    ({"in.csv": "0,1,5\n1,0,1\n5,1,0\n"}, ["persist", "--metric", "in.csv"]),
    ({"in.txt": "a b 1\nb a -1\n"}, ["persist", "--digraph", "in.txt"]),
    ({"in.csv": "a,0\n"},
     ["persist", "--space", "ab.json", "--sublevel", "in.csv"]),
    ({"in.json": '{"a": "a"}'},
     ["homotopic", "ab.json", "ab.json", "in.json", "in.json"]),
    ({"in.json": '{"a": "b", "b": "a"}'},
     ["homotopic", "ab.json", "ab.json", "in.json", "in.json"]),
    ({"in.json": '{"degree": 0, "pairs": [[2, 1]]}'},
     ["bottleneck", "in.json", "in.json"]),
], ids=["non-reflexive space", "metric without triangle inequality",
        "negative digraph weight", "sublevel leaves out a point",
        "map leaves out a point", "map not continuous",
        "bar born after it dies"])
def test_every_refused_input_file_exits_2(tmp_path, capsys, files, argv):
    files = {"ab.json": AB_SPACE, **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_outputs_are_deterministic(square_path, capsys):
    runs = []
    for _ in range(2):
        assert main(["persist", "--metric", square_path, "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_reused_parser_gives_fresh_results(square_path, space_path,
                                          monkeypatch, capsys):
    calls = [["persist", "--metric", square_path, "--json"],
             ["homology", space_path, "--coeffs", "f2", "--json"],
             ["persist", "--construction", "alpha"],
             ["persist", "--metric", square_path, "--json"],
             ["persist", "--metric", square_path, "--coeffs", "q"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    reused = [run(argv) for argv in calls]
    parser = cli._PARSER
    assert parser is not None
    assert [run(argv) for argv in calls] == reused
    assert cli._PARSER is parser
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    assert fresh == reused
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    assert reused[3] == reused[0]


def _nested(depth):
    return "[" * depth + "0" + "]" * depth


@pytest.mark.parametrize("depth", [900, 5000])
def test_deeply_nested_files_are_parse_errors(tmp_path, space_path, depth,
                                              capsys):
    # a space, map or diagram file nested too deeply to read exits 2
    sp = tmp_path / "deep.json"
    sp.write_text('{"points": [%s], "closure": {}}' % _nested(depth))
    f = tmp_path / "f.json"
    f.write_text('{"a": "a", "b": "a", "c": %s}' % _nested(depth))
    good = tmp_path / "good.json"
    good.write_text('{"degree": 0, "pairs": [[0, 1]]}')
    diagrams = [tmp_path / f"d{i}.json" for i in range(3)]
    diagrams[0].write_text('{"degree": 0, "pairs": [%s]}' % _nested(depth))
    diagrams[1].write_text('{"degree": 0, "pairs": [[0, %s]]}'
                           % _nested(depth))
    diagrams[2].write_text('{"degree": %s, "pairs": []}' % _nested(depth))
    calls = ([["homology", str(sp)], ["vr", str(sp)],
              ["homotopic", space_path, space_path, str(f), str(f)]]
             + [["bottleneck", str(d), str(good)] for d in diagrams])
    for argv in calls:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200, argv


def test_shared_point_names_are_parse_errors(tmp_path, capsys):
    sp = tmp_path / "s.json"
    sp.write_text('{"points": [1, "1"], "closure": {"1": ["1"]}}')
    assert main(["homology", str(sp)]) == 2
    assert "points 1 and '1' share the name '1'" in capsys.readouterr().err


def test_numbers_beyond_float_range_are_errors(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("0,1e400\n1e400,0\n")
    one = tmp_path / "one.csv"
    one.write_text("0,1\n1,0\n")
    for argv in (["persist", "--metric", str(big)],
                 ["persist", "--metric", str(big), "--json"],
                 ["gh", "--metric", str(big), str(one)]):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.err == ("error: a value beyond the float range cannot "
                           "be printed\n"), argv


def test_interval_counts_against_the_size_cap(tmp_path, capsys,
                                              monkeypatch):
    pt = tmp_path / "pt.json"
    pt.write_text(space_to_json(build_space(["p"], {"p": {"p"}})))
    f = tmp_path / "f.json"
    f.write_text('{"p": "p"}')
    argv = ["homotopic", str(pt), str(pt), str(f), str(f), "--cap", "5"]
    assert main(argv + ["--interval", "top:4"]) == 0
    capsys.readouterr()
    # top:5 has six points, one over the cap
    assert main(argv + ["--interval", "top:5"]) == 1
    assert "exceed the size cap 5" in capsys.readouterr().err

    # the cap is checked on the name, before any interval is built:
    # leq:m alone has (m + 1)(m + 2) / 2 closure entries
    def never(m, near):
        raise AssertionError(f"an interval of length {m} was built")

    monkeypatch.setattr(spaces, "_interval", never)
    for name in ("leq:100000", "top:5", "bits:40:3"):
        assert main(argv + ["--interval", name]) == 1, name
        assert "exceed the size cap 5" in capsys.readouterr().err
