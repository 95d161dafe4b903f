"""Command-line behavior: exit codes, round trips, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import exchange_bits_0_and_2

CLI = [sys.executable, "-m", "denpds.cli"]


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
        want = {"pairs_checked": 63, "degree": 18, "sampled": False}
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
    ],
    ids=["invalid-json", "no-claimed", "no-fields", "string-exponent", "one-exponent",
         "boolean-exponents", "exponent-out-of-range"],
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
    empty set; verify reports a failed PDS (exit 1), not a malformed file."""
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


def test_empty_subspace_exps_get_the_rank_check():
    res = run("verify", *TOWER, "--subspace-exps", "")
    assert res.returncode == 2
    assert res.stderr == "error: invalid subspace: subspace has rank 0 but the tower expects r=1\n"
    assert run("verify", "-p", "2", "-m", "2", "-l", "1", "-r", "0", "--subspace-exps", "").returncode == 0


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
