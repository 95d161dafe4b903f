"""Command-line behavior: exit codes, round trips, determinism."""

import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from denpds import cli, ff, jsonout
from denpds import coding as cd
from denpds import verify as vf
from denpds.construct import Tower, TowerParams

from conftest import assert_same_text, exchange_bits_0_and_2, transform_items

CLI = [sys.executable, "-m", "denpds.cli"]
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

_spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
_jobs = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(_jobs)


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kw
    )


def test_params_table():
    res = run("params", "-p", "2", "-m", "2", "-l", "1", "-r", "1")
    assert res.returncode == 0
    assert "(64, 18, 2, 6)" in res.stdout
    assert "(64, 45, 32, 30)" in res.stdout
    assert "negative-latin(n=8, r=2)" in res.stdout


def test_params_json():
    res = run("params", "-p", "3", "-m", "2", "-l", "1", "-r", "1", "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["primal"] == {"v": 729, "k": 168, "lambda": 27, "mu": 42}
    assert doc["code"]["primal"] == {"n": 84, "dim": 6, "w1": 63, "w2": 54}


def test_grid_rows():
    res = run("grid", "p=2", "m=2..3", "l=1", "r=all")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 3 + 4  # r ranges 0..m for m = 2 and 3
    res2 = run("params", "--grid", "p=2", "s=1", "m=2..3", "l=1", "r=all")
    assert res2.returncode == 0
    assert res2.stdout == res.stdout
    # -s 1 is the default, which --grid accepts
    assert run("params", "-s", "1", "--grid", "p=2", "m=2..3", "l=1", "r=all").stdout == res.stdout


def test_usage_errors_exit_two():
    assert run("params", "-p", "2", "-m", "2", "-l", "1", "-r", "9").returncode == 2
    assert run("params", "-p", "2", "-m", "2").returncode == 2
    assert run("construct", "-p", "2", "-m", "2", "-l", "1").returncode == 2
    assert run("nonsense").returncode == 2
    assert run("params", "-p", "2", "-m", "2").stderr == "error: missing ell, r (or use --grid)\n"
    assert run("verify", "-m", "2", "-r", "1").stderr == "error: missing p, ell (or use --set FILE)\n"
    # a bare --grid is an argparse usage error, alone or after a tower
    for argv in (["params", "--grid"], ["params", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--grid"]):
        res = run(*argv)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines()[-1].endswith("error: argument --grid: expected at least one argument")
    # the grid gives every tower: a tower flag away from its default is refused before any row
    tower = ["-p", "3", "-m", "2", "-l", "1", "-r", "1"]
    for flags, named in [(tower, "-p, -m, -l/--ell, -r"), (["-s", "2"], "-s"), (["--ell", "1"], "-l/--ell")]:
        res = run("params", *flags, "--grid", "m=2", "r=1")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: --grid takes no tower flags, got %s\n" % named


def test_construct_verify_roundtrip(tmp_path):
    out = tmp_path / "d.json"
    res = run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 18
    assert doc["claimed"] == {"v": 64, "k": 18, "lambda": 2, "mu": 6}
    ver = run("verify", "--set", str(out), "--format", "text")
    assert ver.returncode == 0
    assert "RESULT: PASS" in ver.stdout


def test_construct_dual_and_degenerate(tmp_path):
    out = tmp_path / "dd.json"
    res = run(
        "construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1",
        "--family", "dual", "-o", str(out),
    )
    assert res.returncode == 0
    assert len(json.loads(out.read_text())["elements"]) == 45
    res0 = run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "0", "-o", str(out))
    assert res0.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 3
    assert doc["degenerate"] is True


def test_verify_corrupted_file_exits_one(tmp_path):
    out = tmp_path / "d.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["elements"] = doc["elements"][1:]  # drop one element
    out.write_text(json.dumps(doc))
    ver = run("verify", "--set", str(out))
    assert ver.returncode == 1
    rep = json.loads(ver.stdout)
    assert rep["ok"] is False
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["pds-differences"] == "fail"


def test_cap_exceeded_exits_three():
    res = run(
        "construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--table-cap", "32"
    )
    assert res.returncode == 3


def _moved_set_file(tmp_path):
    """The (64,18,2,6) set file with every element moved by
    ``exchange_bits_0_and_2``: still a PDS with the same parameters, but one
    the multiplier group moves."""
    from denpds.construct import Tower, TowerParams

    out = tmp_path / "moved.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    doc = json.loads(out.read_text())
    ix = Tower(TowerParams(2, 1, 2, 1, 1)).indexer
    g = ix.from_dlog_pairs(np.array(doc["elements"]))
    doc["elements"] = ix.dlog_pairs(exchange_bits_0_and_2(g)).tolist()
    out.write_text(json.dumps(doc))
    return str(out)


def _must_not_run(*_):
    raise AssertionError("this route must not run")


def test_sets_the_multiplier_group_fixes_need_no_transform(grid, tmp_path, monkeypatch, capsys):
    """With the transform made to fail, verify and dual on 2,1,2,4,1 primal
    (v = 2^18, above the profile cap), and verify (json and text), dual,
    code and geometry on every grid set, still exit 0 and print the
    transform route's documents, or for verify what it prints unpatched:
    these sets are certified from their e + 2 orbit counts and sums."""
    from denpds import coding as cd
    from denpds import transform
    from denpds import verify as vf

    expected = []  # (argv, output file or None for stdout, text, stderr)
    tower = grid.tower(2, 1, 2, 4, 1)
    pds, R = grid.pds(2, 1, 2, 4, 1)
    report = vf.verify_pds(pds, tower, R)
    by_transform = transform_items(pds, tower, R)
    report.items = [it if it.skipped else by_transform.get(it.name, it) for it in report.items]
    flags = ["-p", "2", "-m", "2", "-l", "4", "-r", "1"]
    expected.append((["verify", *flags], None, report.to_json(), ""))
    dual = vf.delsarte_dual(pds, tower.indexer)
    out = tmp_path / "dual-large.json"
    stderr = "delsarte dual: k=%d\n" % dual.k
    expected.append((["dual", *flags, "-o", str(out)], out, dual.to_json(tower), stderr))
    for i, (tower, pds, _, _) in enumerate(grid.instances()):
        set_file = tmp_path / ("%d.json" % i)
        set_file.write_text(pds.to_json(tower))
        spectrum = grid.spectrum(pds, tower)
        dual = vf.delsarte_dual(pds, tower.indexer, spectrum)
        out = tmp_path / ("%d-dual.json" % i)
        argv = ["dual", "--set", str(set_file), "-o", str(out)]
        expected.append((argv, out, dual.to_json(tower), "delsarte dual: k=%d\n" % dual.k))
        for fmt in ("json", "text"):
            argv = ["verify", "--set", str(set_file), "--format", fmt]
            capsys.readouterr()
            assert cli.main(argv) == 0
            expected.append((argv, None, capsys.readouterr().out, ""))
        ctx = cd.CodingContext(tower)
        S = cd.to_projective_set(pds, ctx)
        for command in ("code", "geometry"):
            out = tmp_path / ("%d-%s.json" % (i, command))
            argv = [command, "--set", str(set_file), "-o", str(out)]
            assert cli.main(argv) == 0
            doc = json.loads(out.read_text())
            if command == "code":
                enum = cd.spectral_weight_enumerator(spectrum, cd.build_code(S, ctx))
                assert doc["weight_enumerator"] == {str(w): c for w, c in sorted(enum.items())}
            else:
                profile = cd.spectral_hyperplane_profile(spectrum, S)
                assert doc["hyperplane_profile"] == {str(h): c for h, c in sorted(profile.items())}
            expected.append((argv, out, out.read_text(), ""))
    capsys.readouterr()
    monkeypatch.setattr(transform, "forward", _must_not_run)
    for argv, path, text, err in expected:
        code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        assert (code, stderr) == (0, err), argv
        assert_same_text(stdout if path is None else path.read_text(), text, argv)


def test_a_moved_set_takes_the_transform_route(tmp_path, monkeypatch, capsys):
    """dual, code and geometry on a set file the multiplier group moves
    print the transform route's documents, as before, and read no orbit
    sums."""
    from denpds import coding as cd
    from denpds import verify as vf
    from denpds.construct import read_set_file

    path = _moved_set_file(tmp_path)
    with open(path, "rb") as fh:
        tower, pds = read_set_file(fh.read())
    assert not vf.check_multiplier_invariance(pds, tower).passed
    spectrum = vf.character_spectrum(pds, tower.indexer)
    ctx = cd.CodingContext(tower)
    S = cd.to_projective_set(pds, ctx)
    monkeypatch.setattr(vf, "orbit_spectrum", _must_not_run, raising=False)
    out = tmp_path / "out.json"
    assert cli.main(["dual", "--set", path, "-o", str(out)]) == 0
    dual = vf.delsarte_dual(pds, tower.indexer, spectrum)
    assert_same_text(out.read_text(), dual.to_json(tower))
    assert capsys.readouterr() == ("", "delsarte dual: k=45\n")
    assert cli.main(["code", "--set", path, "-o", str(out)]) == 0
    enum = cd.weight_enumerator(cd.build_code(S, ctx), ctx)
    doc = json.loads(out.read_text())
    assert doc["ok"] and doc["weight_enumerator"] == {str(w): c for w, c in sorted(enum.items())}
    assert cli.main(["geometry", "--set", path, "-o", str(out)]) == 0
    profile = cd.hyperplane_profile(S, ctx)
    doc = json.loads(out.read_text())
    assert doc["ok"]
    assert doc["hyperplane_profile"] == {str(h): c for h, c in sorted(profile.items())}


def test_neighbor_cap_skip_behavior(tmp_path):
    """A set the multiplier group moves fails multiplier-invariance, and its
    common-neighbors is skipped, not swept, whatever the neighbor cap; the
    other checks still decide on their own."""
    res = run("verify", "--set", _moved_set_file(tmp_path), "--neighbor-cap", "16")
    assert res.returncode == 1
    names = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    assert names["multiplier-invariance"]["status"] == "fail"
    assert names["multiplier-invariance"]["witnesses"]
    assert names["pds-differences"]["status"] == "pass"
    assert names["common-neighbors"]["status"] == "skip"
    assert names["common-neighbors"]["reason"] == "set not H-invariant"


def test_parallel_is_ignored_on_the_fallback_sweep(tmp_path):
    """--parallel is accepted and ignored.  On a set the multiplier group
    moves, --parallel 4 prints what --parallel 0 prints, exits 1 from the
    failed multiplier-invariance, and loads no thread pool."""
    path = _moved_set_file(tmp_path)
    seq = run("verify", "--set", path, "--parallel", "0")
    code = (
        "import sys; from denpds.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, 'concurrent.futures' in sys.modules, file=sys.stderr)"
    )
    args = ["verify", "--set", path, "--parallel", "4"]
    par = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert seq.returncode == 1 and par.returncode == 0
    assert par.stdout == seq.stdout
    assert par.stderr == seq.stderr + "1 False\n"


def test_common_neighbors_counts_one_target_per_orbit():
    """A constructed set takes the orbit route: no multiplier-invariance
    line (it is listed only when it fails), and 5 counts cover all 63
    targets, unsampled also under a neighbor cap of 16."""
    for extra in ([], ["--neighbor-cap", "16"]):
        res = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", *extra)
        assert res.returncode == 0
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        assert "multiplier-invariance" not in checks
        want = {"pairs_checked": 63, "degree": 18}
        assert checks["common-neighbors"]["details"] == want


def test_dual_subcommand(tmp_path):
    out = tmp_path / "dual.json"
    res = run("dual", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"] == "delsarte-dual"
    assert len(doc["elements"]) == 45
    ver = run("verify", "--set", str(out))
    assert ver.returncode == 0


def test_code_and_geometry(tmp_path):
    code_out = tmp_path / "code.json"
    mat_out = tmp_path / "gm.txt"
    res = run(
        "code", "-p", "2", "-m", "2", "-l", "1", "-r", "1",
        "-o", str(code_out), "--matrix-out", str(mat_out),
    )
    assert res.returncode == 0
    doc = json.loads(code_out.read_text())
    assert doc["ok"] and doc["weight_enumerator"] == {"0": 1, "8": 45, "12": 18}
    rows = mat_out.read_text().strip().splitlines()
    assert len(rows) == 6 and all(len(r.split()) == 18 for r in rows)
    geo = run("geometry", "-p", "3", "-m", "2", "-l", "1", "-r", "1")
    assert geo.returncode == 0
    gdoc = json.loads(geo.stdout)
    assert gdoc["hyperplane_profile"] == {"21": 84, "30": 280}
    assert len(gdoc["points"]) == 84  # ternary digits, space separated
    assert all(set(pt.split()) <= {"0", "1", "2"} for pt in gdoc["points"])


def test_export_graph_formats(tmp_path):
    res = run("export-graph", "-p", "2", "-m", "2", "-l", "1", "-r", "0")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "64 96"
    assert len(lines) == 97
    u, w = map(int, lines[1].split())
    assert u < w
    dim = run(
        "export-graph", "-p", "2", "-m", "2", "-l", "1", "-r", "0",
        "--graph-format", "dimacs",
    )
    dlines = dim.stdout.strip().splitlines()
    assert dlines[0] == "p edge 64 96"
    assert dlines[1].startswith("e ")


def test_stdout_holds_the_bytes_of_the_output_file(tmp_path):
    """On one grid job, each document command writes the same bytes to
    stdout as to its -o file."""
    set_file = tmp_path / "set.json"
    build = ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--family", "dual"]
    argvs = {"construct": ["construct", *build]}
    for command in ("dual", "verify", "code", "geometry"):
        argvs[command] = [command, "--set", str(set_file)]
    for command, argv in argvs.items():
        out = set_file if command == "construct" else tmp_path / command
        to_file = subprocess.run(CLI + argv + ["-o", str(out)], capture_output=True)
        to_stdout = subprocess.run(CLI + argv, capture_output=True)
        assert to_file.returncode == to_stdout.returncode == 0, command
        assert to_file.stdout == b"" and to_stdout.stdout == out.read_bytes(), command


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, read", [
    (["construct", "-p", "2", "-m", "2", "-l", "4", "-r", "1"], 100),
    (["dual", "-p", "2", "-m", "2", "-l", "4", "-r", "1"], 100),
    (["export-graph", "-p", "2", "-s", "2", "-m", "2", "-l", "1", "-r", "1"], 100),
    (["params", "-p", "2", "-m", "2", "-l", "1", "-r", "1"], 0),
    (["verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--profile-cap", "1", "--spectrum-cap", "1"], 0),
    (["grid", "p=2", "m=1..30", "l=1..10", "--format", "json"], 100),
], ids=["construct", "dual", "export-graph", "params", "verify-inconclusive", "grid"])
def test_a_closed_stdout_ends_the_command_quietly(argv, read, unbuffered):
    """A reader that closes stdout after 100 bytes (of the 2.9 MB set file
    of 2,1,2,4,1, of its 5.9 MB Delsarte dual, of an 18 MB edge list, of a
    4.4 MB grid that goes out in one write), or before the first (of a
    short table that stdout still buffers at exit, of an INCONCLUSIVE
    verify report that stdout still buffers when the cap error is raised),
    ends the command with status 141, 128 + SIGPIPE, and nothing on stderr,
    with stdout buffered or not.  Unbuffered, stdout's raw file takes a
    write that the close cuts short for a whole one, so the CLI writes
    through a buffered writer that retries the rest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert len(head) == read and err == b""


@pytest.mark.parametrize("slice_values", [1, 5, 4096])
@pytest.mark.parametrize("tp, family", [((2, 1, 2, 1, 1), "dual"), ((3, 1, 2, 1, 1), "primal")])
def test_edge_lists_and_matrix_text_in_many_slices(tmp_path, monkeypatch, tp, family, slice_values):
    """``export-graph`` (edge list and DIMACS) and ``code --matrix-out``,
    with the edges in chunks of a few vertices and every array in slices
    of 1 or 5 values (rows cut) or 4096 (rows whole, and the token table
    for the matrix), write one line per edge and per matrix row."""
    tower = Tower(TowerParams(*tp))
    pds = tower.build_D() if family == "primal" else tower.build_D_dual()
    edges = vf.cayley_edges(pds, tower.indexer).tolist()
    ctx = cd.CodingContext(tower)
    mat = cd.build_code(cd.to_projective_set(pds, ctx), ctx).mat
    v = tower.params.v
    head = "%d %d\n" % (v, len(edges))
    want = {
        "edgelist": head + "".join("%d %d\n" % (u, w) for u, w in edges),
        "dimacs": "p edge " + head + "".join("e %d %d\n" % (u + 1, w + 1) for u, w in edges),
        "matrix": "".join(" ".join(map(str, row)) + "\n" for row in mat.tolist()),
    }
    monkeypatch.setattr(ff, "CHUNK_BYTES", 1 << 12)  # edge chunks of 4096 / (8 k) vertices
    monkeypatch.setattr(jsonout, "VALUE_BYTES", ff.CHUNK_BYTES // slice_values)
    build = ["-p", str(tp[0]), "-s", str(tp[1]), "-m", str(tp[2]), "-l", str(tp[3]), "-r", str(tp[4]),
             "--family", family]
    for fmt in ("edgelist", "dimacs"):
        out = tmp_path / fmt
        assert cli.main(["export-graph", *build, "--graph-format", fmt, "-o", str(out)]) == 0
        assert_same_text(out.read_text(), want[fmt], fmt)
    out = tmp_path / "matrix"
    assert cli.main(["code", *build, "-o", str(tmp_path / "code.json"), "--matrix-out", str(out)]) == 0
    assert_same_text(out.read_text(), want["matrix"])
    assert v > 2 * (ff.CHUNK_BYTES // (8 * pds.k))  # three chunks of edges or more


@pytest.mark.parametrize("tp", [(2, 1, 2, 1, 1), (3, 1, 2, 1, 1)])
def test_symbol_matrices_take_the_byte_route(tmp_path, monkeypatch, tp):
    """The route of each slice the CLI renders: the GF(q) symbols of
    ``geometry``'s points, ``code``'s generator_rows and its --matrix-out
    are single digits and take the byte route; the set files of
    ``construct`` and ``dual`` hold -1 and take the token table or the
    format."""
    routes = []
    for name in ("_digit_text", "_table_text", "_format_text"):
        def counted(*args, _text=getattr(jsonout, name), _name=name):
            routes.append(_name)
            return _text(*args)
        monkeypatch.setattr(jsonout, name, counted)

    def taken(*argv):
        routes.clear()
        assert cli.main(list(argv)) == 0, argv
        return sorted(routes)

    build = ["-p", str(tp[0]), "-s", str(tp[1]), "-m", str(tp[2]), "-l", str(tp[3]), "-r", str(tp[4])]
    primal, dual, delsarte = (tmp_path / (name + ".json") for name in ("primal", "dual", "delsarte"))
    set_routes = (
        taken("construct", *build, "-o", str(primal)),
        taken("construct", *build, "--family", "dual", "-o", str(dual)),
        taken("dual", "--set", str(primal), "-o", str(delsarte)),
    )
    for route, path in zip(set_routes, (primal, dual, delsarte)):
        assert route and set(route) <= {"_table_text", "_format_text"}, route
        assert -1 in np.array(json.loads(path.read_text())["elements"])
    for path in (primal, dual):
        assert taken("geometry", "--set", str(path), "-o", str(tmp_path / "geometry.json")) == ["_digit_text"]
        assert taken("code", "--set", str(path), "-o", str(tmp_path / "code.json"),
                     "--matrix-out", str(tmp_path / "matrix.txt")) == ["_digit_text"] * 2


def test_export_graph_refuses_a_set_holding_zero(tmp_path):
    """The identity is no edge of a simple graph: the refusal names it as a
    fault of the input and comes before any output, with exit 1, one error
    line and no output file."""
    path, out = tmp_path / "set.json", tmp_path / "graph.txt"
    assert run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["elements"].insert(0, [-1, -1])
    path.write_text(json.dumps(doc))
    res = run("export-graph", "--set", str(path), "-o", str(out))
    want = "error: the set holds the identity (-1, -1), which is no edge of a simple graph\n"
    assert (res.returncode, res.stdout, res.stderr) == (1, "", want)
    assert not out.exists()


def test_export_graph_refuses_a_set_not_closed_under_negation(tmp_path):
    """The 3,1,2,1,1 set file without one element of a +- pair: the refusal
    names, as dlog pairs, the element left without its negative, with exit
    1, one error line and no output file."""
    path, out = tmp_path / "set.json", tmp_path / "graph.txt"
    assert run("construct", "-p", "3", "-m", "2", "-l", "1", "-r", "1", "-o", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    ix = Tower(TowerParams(3, 1, 2, 1, 1)).indexer
    gone = doc["elements"].pop(0)  # its negative stays, the one element without one
    minus = ix.dlog_pairs(ix.neg(ix.from_dlog_pairs(np.array([gone])))).tolist()[0]
    assert minus in doc["elements"]
    path.write_text(json.dumps(doc))
    res = run("export-graph", "--set", str(path), "-o", str(out))
    want = "error: the set holds (%d, %d) but not its negative (%d, %d)\n" % (*minus, *gone)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", want)
    assert not out.exists()


@pytest.mark.parametrize("command", ["code", "geometry"])
def test_code_and_geometry_refuse_a_set_holding_zero(tmp_path, command):
    """The identity is no projective point: the refusal names it as a fault
    of the input, with exit 1 and no output file."""
    path, out = tmp_path / "set.json", tmp_path / "out.json"
    assert run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["elements"] = [[-1, -1]]
    path.write_text(json.dumps(doc))
    res = run(command, "--set", str(path), "-o", str(out))
    want = "error: the set holds the identity (-1, -1), which is no projective point\n"
    assert (res.returncode, res.stdout, res.stderr) == (1, "", want)
    assert not out.exists()


def test_verify_and_dual_build_only_the_tables_they_read(grid, tmp_path, monkeypatch, capsys):
    """verify and dual on the primal set files of the two large towers
    (v = 2^18 and 7^6) read their e + 2 orbit sums: verify builds neither
    ``Tower.orbit_table`` nor ``GroupIndexer.char_index_table``, and dual
    builds the orbit table once, for the support of the positive value."""
    from denpds.construct import GroupIndexer

    paths = []
    for tp in [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)]:
        paths.append(tmp_path / ("%d.json" % tp[0]))
        paths[-1].write_text(grid.pds(*tp)[0].to_json(grid.tower(*tp)))
    builds = {}

    def counting(name, build):
        def counted(owner):
            builds[name] += 1
            return build(owner)

        return counted

    for cls, name in ((Tower, "orbit_table"), (GroupIndexer, "char_index_table")):
        table = vars(cls)[name]
        monkeypatch.setattr(table, "func", counting(name, table.func))
    for path in paths:
        out = str(tmp_path / "dual.json")
        for argv, want in ((["verify", "--set", str(path)], (0, 0)), (["dual", "--set", str(path), "-o", out], (1, 0))):
            builds.update(orbit_table=0, char_index_table=0)
            assert cli.main(argv) == 0, argv
            assert (builds["orbit_table"], builds["char_index_table"]) == want, argv
    capsys.readouterr()


def test_verify_and_dual_do_no_field_arithmetic_per_element(grid, tmp_path, monkeypatch, capsys):
    """verify and dual on the primal set files of the two large towers
    (v = 2^18 and 7^6) map the set's elements by gathers from tables over
    one field: no array that ``FiniteField.mul`` or ``ff.digitwise`` works
    on while they run has more than max(|K1|, |K2|) entries."""
    sizes = []
    mul, digitwise = ff.FiniteField.mul, ff.digitwise

    def recorded_mul(self, x, y):
        sizes.append(np.broadcast(x, y).size)
        return mul(self, x, y)

    def recorded_digitwise(a, b, sign, p, n):
        sizes.append(np.broadcast(a, b).size)
        return digitwise(a, b, sign, p, n)

    monkeypatch.setattr(ff.FiniteField, "mul", recorded_mul)
    for name, module in list(sys.modules.items()):
        if name.startswith("denpds") and getattr(module, "digitwise", None) is digitwise:
            monkeypatch.setattr(module, "digitwise", recorded_digitwise)
    for tp in [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)]:
        tower = grid.tower(*tp)
        path, out = tmp_path / "set.json", str(tmp_path / "dual.json")
        path.write_text(grid.pds(*tp)[0].to_json(tower))
        for argv in (["verify", "--set", str(path)], ["dual", "--set", str(path), "-o", out]):
            sizes.clear()
            assert cli.main(argv) == 0, argv
            assert sizes and max(sizes) <= max(tower.f1.size, tower.f2.size), (tp, argv, max(sizes))
    capsys.readouterr()


def test_byte_identical_reruns(tmp_path):
    args = ["verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1"]
    a, b = run(*args), run(*args)
    assert a.stdout == b.stdout
    par = run(*args, "--parallel", "4")
    assert par.stdout == a.stdout
    c1 = run("construct", "-p", "3", "-m", "2", "-l", "1", "-r", "1")
    c2 = run("construct", "-p", "3", "-m", "2", "-l", "1", "-r", "1")
    assert c1.stdout == c2.stdout


def test_seedless_flag_accepted():
    res = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--seedless")
    assert res.returncode == 0


def test_env_cap_override(tmp_path):
    import os

    env = dict(os.environ, DENPDS_TABLE_CAP="32")
    res = subprocess.run(
        CLI + ["construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 3


def test_subspace_flags(tmp_path):
    res = run(
        "verify", "-p", "2", "-m", "3", "-l", "1", "-r", "2",
        "--subspace-exps", "1,2", "--format", "text",
    )
    assert res.returncode == 0 and "RESULT: PASS" in res.stdout
    res2 = run(
        "verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1",
        "--subspace-coords", "0,1",
    )
    assert res2.returncode == 0


def test_verify_with_no_substantive_check_is_inconclusive():
    """Caps that skip pds-differences, two-valued-spectrum and
    common-neighbors leave nothing certified: not a PASS, exit 3."""
    argv = ["verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1",
            "--profile-cap", "1", "--spectrum-cap", "1"]
    res = run(*argv, "--format", "text")
    assert res.returncode == 3
    assert res.stdout.count("SKIP") == 5
    assert res.stdout.endswith("RESULT: INCONCLUSIVE\n")
    res = run(*argv)
    assert res.returncode == 3
    assert json.loads(res.stdout)["ok"] is False


def test_verify_swapped_element_fails_differences_and_invariance(tmp_path):
    """A set file with one element swapped for a non-element: the transform
    profile rejects it, and so does the multiplier-invariance check, since
    one swap leaves no union of H-orbits; common-neighbors is skipped."""
    out = tmp_path / "d.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    doc = json.loads(out.read_text())
    members = {tuple(e) for e in doc["elements"]}
    outsider = next(
        [i, j] for i in range(-1, 3) for j in range(-1, 15)
        if (i, j) != (-1, -1) and (i, j) not in members
    )
    doc["elements"] = doc["elements"][1:] + [outsider]
    out.write_text(json.dumps(doc))
    ver = run("verify", "--set", str(out))
    assert ver.returncode == 1
    names = {c["name"]: c["status"] for c in json.loads(ver.stdout)["checks"]}
    assert names["pds-differences"] == "fail"
    assert names["multiplier-invariance"] == "fail"
    assert names["common-neighbors"] == "skip"


def test_enum_cap_refuses_before_any_output(tmp_path):
    for cmd in ("code", "geometry"):
        out = tmp_path / ("%s.json" % cmd)
        res = run(cmd, "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--enum-cap", "32", "-o", str(out))
        assert res.returncode == 3, cmd
        assert res.stderr.startswith("resource cap exceeded: "), cmd
        assert not out.exists(), cmd


def test_zero_caps_are_honored():
    res = run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--table-cap", "0")
    assert res.returncode == 3
    ver = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--profile-cap", "0")
    assert ver.returncode == 0
    names = {c["name"]: c["status"] for c in json.loads(ver.stdout)["checks"]}
    assert names["pds-differences"] == names["common-neighbors"] == "skip"
    assert names["two-valued-spectrum"] == "pass"
    # a zero neighbor cap, by flag or by variable, skips only common-neighbors
    import os

    for flag, extra in ((["--neighbor-cap", "0"], {}), ([], {"DENPDS_NEIGHBOR_CAP": "0"})):
        ver = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", *flag,
                  env=dict(os.environ, **extra))
        assert ver.returncode == 0, (flag, extra, ver.stderr)
        checks = {c["name"]: c for c in json.loads(ver.stdout)["checks"]}
        assert checks["common-neighbors"]["status"] == "skip"
        assert checks["common-neighbors"]["reason"] == "cap"
        assert checks["pds-differences"]["status"] == "pass"


def test_bad_caps_exit_two_with_one_line(tmp_path):
    import os

    tower = ["-p", "2", "-m", "2", "-l", "1", "-r", "1"]
    cases = [
        (["verify", *tower, "--profile-cap", "-5"], {}),
        (["code", *tower, "--enum-cap", "-1"], {}),
        (["verify", *tower], {"DENPDS_PROFILE_CAP": "abc"}),
        (["construct", *tower], {"DENPDS_TABLE_CAP": "-3"}),
    ]
    for argv, extra in cases:
        res = subprocess.run(CLI + argv, capture_output=True, text=True, env=dict(os.environ, **extra))
        assert res.returncode == 2, (argv, extra)
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, extra, res.stderr)


def _set_file_variant(tmp_path, change):
    """A constructed (64,18,2,6) set file with one change applied."""
    out = tmp_path / "d.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(out))
    doc = json.loads(out.read_text())
    text = change(doc)
    out.write_text(json.dumps(doc) if text is None else text)
    return str(out)


def _drop(key):
    def change(doc):
        del doc[key]
    return change


def _first_element(value):
    return lambda doc: doc["elements"].__setitem__(0, value)


def _booleans_for_zero_and_one(doc):
    doc["elements"] = [[e if e not in (0, 1) else bool(e) for e in pair] for pair in doc["elements"]]


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda doc: '{"type": "pds-set", ', "Expecting property name"),
        (_drop("claimed"), ": missing key 'claimed'"),
        (_drop("fields"), ": missing key 'fields'"),
        (_first_element(["x", 1]), ": elements must be pairs of integer exponents"),
        (_first_element([1]), ": elements must be pairs of integer exponents"),
        (_booleans_for_zero_and_one, ": elements must be pairs of integer exponents"),
        (_first_element([3, 1]), ": element exponents out of range"),
        (lambda doc: doc.__setitem__("type", "nope"), ': type must be "pds-set", got "nope"'),
        (lambda doc: doc.__setitem__("version", 2), ": version must be the integer 1, got 2"),
        (lambda doc: doc.__setitem__("version", True), ": version must be the integer 1, got true"),
        (_drop("type"), ": missing key 'type'"),
        (lambda doc: doc.__setitem__("provenance", ["primal"]), ": unknown provenance ['primal']"),
        (lambda doc: doc["tower"].__setitem__("z", 1), ": tower must have exactly the keys p, s, m, ell, r"),
        (lambda doc: doc["tower"].__delitem__("r"), ": tower must have exactly the keys p, s, m, ell, r"),
    ],
    ids=["invalid-json", "no-claimed", "no-fields", "string-exponent", "one-exponent",
         "boolean-exponents", "exponent-out-of-range", "other-type", "version-2",
         "boolean-version", "no-type", "list-provenance", "extra-tower-key", "no-tower-r"],
)
def test_malformed_set_file_exits_two_with_one_line(tmp_path, change, message):
    res = run("verify", "--set", _set_file_variant(tmp_path, change))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: set file "), res.stderr
    assert message in lines[0]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["verify", "dual", "code"])
@pytest.mark.parametrize(
    "section,key,value,shown",
    [("claimed", "k", "x", '"x"'), ("claimed", "k", 18.0, "18.0"), ("tower", "m", True, "true")],
    ids=["string-k", "float-k", "bool-m"],
)
def test_non_integer_scalar_exits_two_naming_the_field(tmp_path, command, section, key, value, shown):
    """Tower and claimed parameters are JSON integers: a string, a float
    equal to an integer and a boolean are refused by every command."""
    path = _set_file_variant(tmp_path, lambda doc: doc[section].__setitem__(key, value))
    res = run(command, "--set", path)
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: set file %s: %s.%s must be an integer, got %s" % (path, section, key, shown)
    ]


def test_empty_set_file_round_trips_and_fails(tmp_path):
    """An empty set is written with "elements": [] and read back as an
    empty set; verify reports a failed PDS (exit 1), not a malformed file,
    and export-graph writes a graph with no edge."""
    from denpds.construct import PdsSet, Tower, TowerParams, pds_from_json_dict

    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    D = tower.build_D()
    text = PdsSet(D.params, D.provenance, [], D.claimed, D.subspace_rows).to_json(tower)
    assert json.loads(text)["elements"] == []
    _, back = pds_from_json_dict(json.loads(text))
    assert back.k == 0 and back.provenance == D.provenance
    path = tmp_path / "empty.json"
    path.write_text(text)
    res = run("verify", "--set", str(path), "--format", "text")
    assert res.returncode == 1, res.stderr
    assert res.stdout.splitlines()[-1] == "RESULT: FAIL"
    res = run("export-graph", "--set", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (0, "64 0\n", "")


def test_other_field_model_exits_one(tmp_path):
    """A set file whose field model differs is a verification failure."""
    res = run("verify", "--set", _set_file_variant(
        tmp_path, lambda doc: doc["fields"]["base"].__setitem__("primitive", [0])))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: set file uses a different field model than this build constructs"]


def _rows(rows):
    return lambda tmp_path: ["--set", _set_file_variant(tmp_path, lambda doc: doc.__setitem__("subspace_rows", rows))]


@pytest.mark.parametrize(
    "extra",
    [
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-exps", "0,0"],
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "2", "--subspace-exps", "0"],
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-coords", "0,0"],
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-coords", "1,0,1"],
        _rows([[1, 0], [1, 0]]),
        _rows([[1, 0], [0, 1]]),
        _rows([[0, 0]]),
        _rows([[1.5, 0]]),
        # coefficients are GF(p) digits, not integers to reduce mod p
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-coords", "3 0"],
        lambda tmp_path: ["-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-coords", "-1 0"],
        _rows([[3, 0]]),
        _rows([[True, False]]),
    ],
    ids=["dependent-exps", "wrong-rank-exps", "zero-coords", "long-coords",
         "dependent-rows", "wrong-rank-rows", "zero-row", "float-row",
         "coords-above-p", "negative-coords", "row-above-p", "bool-row"],
)
def test_invalid_subspace_exits_two_with_one_line(tmp_path, extra):
    res = run("verify", *extra(tmp_path))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_negative_parallel_exits_two_with_one_line():
    res = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--parallel", "-3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: --parallel must be non-negative, got -3\n"


def test_wide_primes_are_fast():
    """A 60-bit prime is recognised at once and capped by the tables; a
    characteristic of 2^64 or more is a usage error."""
    tower = ["-m", "2", "-l", "1", "-r", "1"]
    params = run("params", "-p", "1000000000000000009", *tower, timeout=30)
    assert params.returncode == 0 and "q=1000000000000000009" in params.stdout
    ver = run("verify", "-p", "1000000000000000009", *tower, timeout=30)
    assert ver.returncode == 3 and ver.stdout == ""
    assert ver.stderr.startswith("resource cap exceeded: ") and len(ver.stderr.splitlines()) == 1
    wide = run("params", "-p", str(2**64 + 13), *tower, timeout=30)
    assert wide.returncode == 2
    assert wide.stderr == "error: p must be below 2^64\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_params_past_the_digit_limit_exit_two_with_one_line(fmt):
    """Parameters with more than 4300 decimal digits cannot be printed: one
    error line and exit 2, as grid gives on the same tower."""
    res = run("params", "-p", "2", "-m", "20000", "-l", "1", "-r", "1", "--format", fmt, timeout=60)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Exceeds the limit"), res.stderr
    grid = run("grid", "p=2", "m=20000", "l=1", "r=1", "--format", fmt, timeout=60)
    assert grid.returncode == 2 and grid.stderr == res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "-p", "2", "-m", "20000", "-l", "10", "-r", "1"),
        ("params", "-p", "2", "-m", "20000", "-l", "100", "-r", "1", "--format", "json"),
        ("grid", "p=2", "m=20000", "l=100", "r=1"),
    ],
)
def test_params_far_past_the_digit_limit_fail_at_once(argv):
    """A tower whose order certainly has too many digits to print is refused
    before any closed form, with the one line of the digit limit."""
    res = run(*argv, timeout=10)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Exceeds the limit"), res.stderr


@pytest.mark.parametrize("command", ["construct", "verify", "code"])
def test_absurd_tower_hits_the_table_cap_at_once(command):
    """The table cap is compared with the group's exponent before the
    order p^dim_p is computed."""
    res = run(command, "-p", "2", "-m", "100000", "-l", "100000", "-r", "1", timeout=10)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == (
        "resource cap exceeded: group of order 2^20000100000 exceeds the table cap 4194304\n"
    )


def test_non_integer_subspace_exps_exit_two_with_one_line():
    res = run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "--subspace-exps", "a,b")
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Traceback" not in res.stderr


def test_duplicate_set_file_elements_collapse(tmp_path):
    clean = run("verify", "--set", _set_file_variant(tmp_path, lambda doc: None))
    dup = run("verify", "--set", _set_file_variant(
        tmp_path, lambda doc: doc["elements"].extend(doc["elements"][:3])))
    assert dup.returncode == clean.returncode == 0
    assert dup.stdout == clean.stdout


TOWER = ("-p", "2", "-m", "2", "-l", "1", "-r", "1")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "-p", "x", "-m", "2", "-l", "1", "-r", "1"),
         "error: argument -p: invalid int value: 'x'"),
        (("nonsense",), "error: argument command: invalid choice: 'nonsense'"),
        ((), "error: the following arguments are required: command"),
        (("verify", *TOWER, "--family", "both"), "error: argument --family: invalid choice: 'both'"),
        (("verify", *TOWER, "--profile-cap", "1e3"),
         "error: argument --profile-cap: invalid int value: '1e3'"),
        (("params", *TOWER, "--bogus"), "error: unrecognized arguments: --bogus"),
        (("grid",), "error: the following arguments are required: ranges"),
        (("verify", *TOWER, "--subspace-exps", "0", "--subspace-coords", "1,0"),
         "error: argument --subspace-coords: not allowed with argument --subspace-exps"),
    ],
    ids=["non-integer", "unknown-command", "no-command", "bad-choice", "non-integer-cap",
         "unknown-flag", "no-ranges", "both-subspace-flags"],
)
def test_parse_errors_are_one_line(argv, message):
    """Argument parsing fails like every other usage error: one line, exit 2."""
    res = run(*argv)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), res.stderr


def test_help_exits_zero():
    for argv in (("--help",), ("verify", "--help")):
        res = run(*argv)
        assert res.returncode == 0 and res.stdout.startswith("usage: denpds") and res.stderr == ""


_INT_TEXTS = ["+3", "-1", "-0", " 4", "5 ", "1_0", "1__0", "_1", "٣", "0x10", "1e3", "2.0", "",
              "x", "--1"]
_STR_TEXTS = ["", "0,1", "1,0;0,1", "a b", "-1", "-x", "--", "-h", "--set", "x=1", "d.json"]


def _values(kind, well_formed):
    """Texts for one value of an option of that kind: those argparse takes,
    signed, padded and underscored ints among them, or any."""
    if kind is int:
        ints = st.integers(-9, 300)
        good = st.one_of(ints.map(str), ints.map(" {} ".format), ints.map("+{}".format),
                         st.integers(10, 99).map(lambda n: "%d_%d" % divmod(n, 10)))
        return good if well_formed else st.one_of(good, st.sampled_from(_INT_TEXTS))
    if kind in (str, list):
        good = st.text(max_size=4).filter(lambda t: not t.startswith("-"))
        return good if well_formed else st.one_of(good, st.sampled_from(_STR_TEXTS))
    if well_formed:
        return st.sampled_from(kind)
    return st.sampled_from(list(kind) + ["", "both", "-x"])


@st.composite
def _option_tokens(draw, options, well_formed):
    """One option of the table as a user may type it: exact, or else
    abbreviated, with "=", glued to a short flag, or without a value."""
    flags, dest, kind = draw(st.sampled_from(options))[:3]
    if kind is bool:
        flag = draw(st.sampled_from(flags))
        return [flag if well_formed else draw(st.sampled_from([flag, flag[:-1], flag + "=x"]))]
    low = 1 if well_formed or not flags else 0
    values = [draw(_values(kind, well_formed)) for _ in range(draw(st.integers(low, 2)))]
    if not flags:
        return values
    flag = draw(st.sampled_from(flags))
    form = "exact" if well_formed else draw(st.sampled_from(["exact", "prefix", "equals", "glued"]))
    if form == "prefix" and flag.startswith("--"):
        flag = flag[:draw(st.integers(3, len(flag)))]
    if values and form == "equals":
        return [flag + "=" + values[0], *values[1:]]
    if values and form == "glued" and not flag.startswith("--"):
        return [flag + values[0], *values[1:]]
    return [flag, *values[:1 if kind is not list else 2]]


@st.composite
def _argvs(draw):
    """A command and its options, all well-formed or not; either may be
    followed by a stray token."""
    well_formed = draw(st.booleans())
    commands = st.sampled_from(list(cli._COMMANDS))
    if not well_formed:
        commands = st.one_of(commands, st.sampled_from(["nonsense", "-h", "--help", "ver"]))
    command = draw(commands)
    options = cli._COMMANDS.get(command, (None, None, cli._TOWER))[2]
    argv = [command] if well_formed or draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 6))):
        argv += draw(_option_tokens(options, well_formed))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--", "-h", "--help", "-", "x", "-p", "--set"])))
    return argv


def _argparse_result(argv):
    """vars of argparse's namespace of argv, or the usage error or help exit
    it ends in."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli.make_parser().parse_args(argv))
    except (cli.UsageError, SystemExit) as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_table_parser_reads_argv_as_argparse_does(argv):
    """The table parser declines argv, or reads it exactly as argparse
    does: the same command, function and value of every dest."""
    ours = cli._parse_table(argv)
    if ours is not None:
        assert vars(ours) == _argparse_result(argv), argv


@pytest.mark.parametrize("argv", [
    ["verify", *TOWER, "--format", "text", "--format", "json", "-l", "2", "--ell", "1"],
    ["code", "--set", "d.json", "--seedless", "--seedless", "--subspace-coords", "", "-o", "x"],
    ["export-graph", *TOWER, "--graph-format", "dimacs", "--parallel", " 2", "-s", "+1"],
    ["params", "-p", "1_1", "-m", "2", "-l", "1", "-r", "0", "--format", "json"],
])
def test_repeated_and_converted_values_read_as_argparse_reads_them(argv):
    ours = cli._parse_table(argv)
    assert ours is not None and vars(ours) == _argparse_result(argv)


@pytest.mark.parametrize("argv", [
    [], ["nonsense"], ["-h"], ["verify", "-h"], ["verify", "--set=d.json"],
    ["verify", "--se", "d.json"], ["verify", "-p2", *TOWER[2:]], ["verify", *TOWER, "--parallel", "-1"],
    ["verify", *TOWER, "-o"], ["verify", *TOWER, "--bogus", "1"],
    ["verify", *TOWER, "--subspace-exps", "0", "--subspace-coords", "1"],
    ["verify", *TOWER, "--family", "both"], ["verify", *TOWER, "-p", "x"], ["verify", "--", *TOWER],
    ["params", *TOWER, "--grid", "m=2"], ["params", *TOWER, "--grid", "+"], ["grid", "p=2"],
    ["construct", "--set", "d.json"],
])
def test_the_table_parser_leaves_other_argv_to_argparse(argv):
    """Help, abbreviations, "=" and glued forms, values starting with "-",
    missing values, unknown or excluded flags, bad values, ``--grid`` and
    ``grid``: argparse reads these, and alone words their help and errors."""
    assert cli._parse_table(argv) is None


def _readme_command_lines():
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines() if line.startswith("denpds ")]


def test_benchmark_and_readme_command_lines_take_the_table_path(tmp_path):
    """Every command line of the benchmark's workloads at seed 1, and of the
    README's CLI block but ``grid``, is read by the table parser as argparse
    reads it; and a fresh process that runs the self-test workload's
    commands through ``main`` never builds the argparse parser."""
    argvs = _readme_command_lines()
    assert [argv[0] for argv in argvs if cli._parse_table(argv) is None] == ["grid"]
    for workload in ("grid", "dense", "large", "selftest"):
        for job in _jobs.WORKLOADS[workload]:
            exps = _jobs.subspace_exps(Tower(TowerParams(*job.tower)), job, 1)
            argvs += _jobs.command_argvs(job, exps, "set.json", lambda cmd: cmd + ".json")
    for argv in argvs:
        if argv[0] != "grid":
            ours = cli._parse_table(argv)
            assert ours is not None and vars(ours) == _argparse_result(argv), argv
    script = """
import contextlib, importlib.util, io, sys
from denpds import cli
from denpds.construct import Tower, TowerParams
spec = importlib.util.spec_from_file_location("jobs", sys.argv[1])
jobs = sys.modules["jobs"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(jobs)
for job in jobs.WORKLOADS["selftest"]:
    exps = jobs.subspace_exps(Tower(TowerParams(*job.tower)), job, 1)
    out = sys.argv[2] + "/out"
    argvs = jobs.command_argvs(job, exps, sys.argv[2] + "/set.json", lambda cmd: out)
    with contextlib.redirect_stderr(io.StringIO()):
        assert [cli.main(argv) for argv in argvs] == [0] * 5, job
print(cli.make_parser.cache_info().misses)
"""
    res = subprocess.run([sys.executable, "-c", script, _jobs.__file__, str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0\n"


def test_a_well_formed_command_line_does_not_load_argparse(tmp_path):
    """argparse, and the gettext it imports, load only when the table
    parser declines argv: not for ``verify --set F``, but for ``--help``."""
    script = """
import contextlib, io, sys
from denpds.cli import main
path = sys.argv[1] + "/d.json"
with contextlib.redirect_stderr(io.StringIO()):
    assert main(["construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", path]) == 0
assert main(["verify", "--set", path, "-o", sys.argv[1] + "/v.json"]) == 0
print("argparse" in sys.modules, "gettext" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
print("argparse" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False False\nTrue\n"


def test_empty_subspace_exps_get_the_rank_check():
    res = run("verify", *TOWER, "--subspace-exps", "")
    assert res.returncode == 2
    assert res.stderr == "error: invalid subspace: subspace has rank 0 but the tower expects r=1\n"
    assert run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "0", "--subspace-exps", "").returncode == 0


@pytest.mark.parametrize("command", [["grid"], ["params", "--grid"]])
@pytest.mark.parametrize(
    "keys, repeated", [(["m=2", "m=3"], "m"), (["l=1", "ell=2"], "ell"), (["ell=1", "l=1"], "l")]
)
def test_a_grid_key_given_twice_exits_two(command, keys, repeated):
    res = run(*command, "p=2", *keys, "r=1")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: grid key %s given twice\n" % repeated


def test_unknown_grid_key_exits_two():
    res = run("grid", "p=2", "q=3")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: unknown grid key q\n"


@pytest.mark.parametrize(
    "ranges,rows",
    [
        (("p=2", "m=1..2", "l=1", "r=0..1000000000"), 2000000002),
        (("p=2", "m=1..1000000000", "l=1"), 500000001500000000),  # r=all: m + 1 rows each
        (("p=2", "m=1", "l=1..100000000000000000000", "r=0"), 10**20),  # past sys.maxsize
        (("p=2", "s=1..65537", "m=1", "l=1", "r=0"), 65537),
    ],
)
def test_grid_refuses_too_many_rows_before_building_one(ranges, rows):
    res = run("grid", *ranges, timeout=10)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == "resource cap exceeded: grid of %d rows above 65536\n" % rows


def test_grid_at_the_row_limit_is_built():
    """65536 rows pass the bound (the first row then fails on p = 4), and
    the 18,900 rows of m=1..60 l=1..10 print."""
    res = run("grid", "p=4", "s=1..65536", "m=1", "l=1", "r=0", timeout=10)
    assert res.returncode == 2 and res.stderr == "error: p must be prime\n"
    res = run("grid", "p=2", "m=1..60", "l=1..10", timeout=10)
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 18900


def _corrupt_set_file(tmp_path, tower) -> str:
    """An empty primal set file of the tower with [["x"]] as its elements."""
    from denpds.construct import PdsSet, Tower, TowerParams

    t = Tower(TowerParams(*tower))
    rows = tuple(map(tuple, t.default_subspace().basis_coeff_rows()))
    doc = json.loads(PdsSet(t.params, "primal", [], t.params.primal_params(), rows).to_json(t))
    doc["elements"] = [["x"]]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.mark.parametrize(
    "tower,refusals",
    [
        ((2, 1, 2, 4, 1), {"verify": 2, "dual": 2, "code": 3, "geometry": 3}),
        ((2, 1, 2, 1, 1), {"verify": 2, "dual": 2, "code": 2, "geometry": 2}),
    ],
)
def test_corrupt_elements_are_read_after_the_enum_cap(tmp_path, tower, refusals):
    """code and geometry compare q^dim with the enum cap on the header, so
    above the cap corrupt elements exit 3; below it every command reports
    the elements."""
    from denpds.coding import DEFAULT_ENUM_CAP

    path = _corrupt_set_file(tmp_path, tower)
    for command, code in refusals.items():
        res = run(command, "--set", path)
        if code == 3:
            sweep = "message sweep" if command == "code" else "hyperplane enumeration"
            line = "resource cap exceeded: %s above cap %d" % (sweep, DEFAULT_ENUM_CAP)
        else:
            line = "error: set file %s: elements must be pairs of integer exponents" % path
        assert res.returncode == code and res.stdout == "", (command, res.stderr)
        assert res.stderr.splitlines() == [line], command


def test_the_enum_cap_refuses_on_the_header_alone(tmp_path, monkeypatch, capsys):
    """code and geometry on a set file above the enum cap exit 3 with the
    element decoders made to fail: neither is called.  Below the cap the
    same file reaches the first of them."""
    from denpds import construct

    path = tmp_path / "set.json"
    assert cli.main(["construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(construct, "_pairs_from_json_text", _must_not_run)
    monkeypatch.setattr(construct, "_dlog_pair_array", _must_not_run)
    for command in ("code", "geometry"):
        assert cli.main([command, "--set", str(path), "--enum-cap", "32"]) == 3
        assert capsys.readouterr().err.startswith("resource cap exceeded: "), command
        with pytest.raises(AssertionError, match="must not run"):
            cli.main([command, "--set", str(path)])


def test_code_flags_refuse_before_building_the_set(monkeypatch, capsys):
    from denpds import cli, construct

    def built(*args):
        raise AssertionError("the set was built")

    monkeypatch.setattr(construct.Tower, "build_D", built)
    for command in ("code", "geometry"):
        assert cli.main([command, "-p", "2", "-m", "2", "-l", "4", "-r", "1"]) == 3
        assert capsys.readouterr().err.startswith("resource cap exceeded: ")


@pytest.mark.parametrize("where", ["header", "elements", "byte-order mark"])
def test_bad_bytes_in_a_set_file_exit_two_with_one_line(tmp_path, where):
    """An invalid UTF-8 byte anywhere, and a UTF-8 byte-order mark, are
    refused as the file is decoded, with one line."""
    import os

    path = tmp_path / "d.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(path))
    data = path.read_bytes()
    if where == "header":
        data = data.replace(b'"primal"', b'"prim\xffl"')
    elif where == "elements":
        digit = data.index(b"1", data.index(b'"elements"'))
        data = data[:digit] + b"\xff" + data[digit + 1:]
    else:
        data = b"\xef\xbb\xbf" + data
    path.write_bytes(data)
    res = subprocess.run(CLI + ["verify", "--set", str(path)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONUTF8="1"))
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: set file %s: " % path), res.stderr
    shown = "Unexpected UTF-8 BOM" if where == "byte-order mark" else "can't decode byte 0xff"
    assert shown in lines[0]


@pytest.mark.parametrize("key", ["tower", "claimed"])
def test_deeply_nested_set_file_exits_two_with_one_line(tmp_path, key):
    """JSON nested deeper than the parser's recursion limit, under the
    tower or another header key of a real set file, is a usage error."""
    path = tmp_path / "d.json"
    run("construct", "-p", "2", "-m", "2", "-l", "1", "-r", "1", "-o", str(path))
    nest = b"[" * 100_000 + b"]" * 100_000
    data = path.read_bytes()
    start = data.index(b'"%s": ' % key.encode()) + len(key) + 4
    end = data.index(b"}", start) + 1
    path.write_bytes(data[:start] + nest + data[end:])
    res = run("verify", "--set", str(path))
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: set file %s: " % path), res.stderr
    assert "recursion" in lines[0]


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique without return_counts imports numpy.ma (about 18 ms); no
    command calls it."""
    script = """
import contextlib, io, sys
from denpds.cli import main
tower = ["-p", "7", "-m", "2", "-l", "1", "-r", "1"]
with contextlib.redirect_stderr(io.StringIO()):
    assert main(["construct", *tower, "-o", sys.argv[1] + "/d.json"]) == 0
    for command in ("verify", "dual", "code", "geometry"):
        main([command, "--set", sys.argv[1] + "/d.json", "-o", sys.argv[1] + "/out"])
        assert "numpy.ma" not in sys.modules, command
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_importing_the_cli_defines_no_dataclass():
    """The record classes are written out: a dataclass compiles its methods
    with exec at every import, which cost most of the import time of
    ``denpds.construct``.  A fresh interpreter that imports the CLI has not
    loaded ``dataclasses``."""
    code = "import denpds.cli, sys; print('dataclasses' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _libc(calls):
    """A stand-in for ``ctypes.CDLL``: its handle records each mallopt call."""
    def mallopt(param, value):
        calls.append((param, value))
        return 1
    handle = types.SimpleNamespace(mallopt=mallopt)
    return lambda name: handle


@pytest.fixture
def fresh_policy():
    """main as on its first call in a process, and after the test too."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is set on glibc only")
def test_a_second_command_reuses_freed_heap_pages(tmp_path):
    """By default glibc unmaps a large freed block and trims the top of
    the heap, so each command faults in again what the one before it
    freed: a second ``verify`` and ``dual`` of the 2,1,2,4,1 primal set
    fault in over 3,000 pages.  With freed blocks kept in the heap the
    second pair faults in next to none."""
    script = """
import contextlib, io, resource, sys
from denpds.cli import main
path = sys.argv[1] + "/d.json"
def faults(argv):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0, argv
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
with contextlib.redirect_stderr(io.StringIO()):
    faults(["construct", "-p", "2", "-m", "2", "-l", "4", "-r", "1", "-o", path])
    pair = [[command, "--set", path, "-o", sys.argv[1] + "/out"] for command in ("verify", "dual")]
    [faults(argv) for argv in pair]
    print(*[faults(argv) for argv in pair])
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert sum(map(int, res.stdout.split())) < 100, res.stdout


def test_only_main_sets_the_allocator_policy():
    """Importing denpds and its CLI makes no mallopt call: a library must
    not change its host's allocator.  Two calls of main make the two calls
    once."""
    script = """
import ctypes, types
calls = []
def mallopt(param, value):
    calls.append((param, value))
    return 1
ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)
import denpds, denpds.cli, os
print(calls)
os.confstr = lambda name: "glibc 2.36"
for _ in range(2):
    assert denpds.cli.main(["params", "-p", "2", "-m", "2", "-l", "1", "-r", "1"]) == 0
print(calls)
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    after_import, after_main = res.stdout.splitlines()[0], res.stdout.splitlines()[-1]
    assert after_import == "[]"
    assert after_main == str([(-3, 16 << 20), (-1, 64 << 20)])


def _raise(exc):
    def fail(*_):
        raise exc
    return fail


@pytest.mark.parametrize("where, fake", [
    ("confstr", _raise(ValueError("unrecognized configuration name"))),
    ("confstr", _raise(OSError(22, "Invalid argument"))),
    ("confstr", lambda name: None),
    ("CDLL", _raise(OSError("no such library"))),
    ("CDLL", lambda name: object()),  # a handle without mallopt: AttributeError
])
def test_main_runs_the_same_where_the_policy_cannot_be_set(fresh_policy, monkeypatch, capsys,
                                                           where, fake):
    argv = ["construct", "-p", "3", "-m", "2", "-l", "1", "-r", "1", "--family", "dual"]
    assert cli.main(argv) == 0
    want = capsys.readouterr()
    cli._keep_freed_heap.cache_clear()
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", _libc(calls))
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.os if where == "confstr" else cli.ctypes, where, fake)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert calls == []
