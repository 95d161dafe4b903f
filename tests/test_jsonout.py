"""The one JSON writer: its bytes are json.dumps(sort_keys=True, indent=2)'s
on set files, code and geometry documents and hand-picked arrays (random
ones in test_jsonout_hypothesis.py), and no other module of the package
pretty-prints JSON."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from denpds import cli
from denpds import coding as C
from denpds.construct import PdsSet, Tower, TowerParams, pds_from_json_dict
from denpds.jsonout import RowStrings, dumps, plain
from denpds.verify import delsarte_dual

SRC = Path(__file__).resolve().parents[1] / "src" / "denpds"


def reference(doc) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


def canonical(text: str) -> str:
    """What json.dumps makes of the document the text holds."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_set_files_match_json_dumps_on_grid(grid):
    """Primal, dual and Delsarte dual of every grid set."""
    for tower, pds, _, _ in grid.instances():
        dual = delsarte_dual(pds, grid.indexer(tower), grid.spectrum(pds, tower))
        for one in (pds, dual):
            text = one.to_json(tower)
            assert text == reference(one._json_doc(tower))
            assert text == canonical(text), (tower.params, one.provenance)


def test_empty_set_and_zero_coordinates():
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    tp, ix = tower.params, tower.indexer
    claimed = tp.primal_params()
    empty = PdsSet(tp, "primal", [], claimed)
    text = empty.to_json(tower)
    assert json.loads(text)["elements"] == []
    assert text == reference(empty._json_doc(tower))
    # (0, 1), (1, 0) and (1, 1): a zero coordinate has the dlog -1
    mixed = PdsSet(tp, "primal", ix.join(np.array([0, 1, 1]), np.array([1, 0, 1])), claimed)
    text = mixed.to_json(tower)
    assert json.loads(text)["elements"] == [[-1, 0], [0, -1], [0, 0]]
    assert text == reference(mixed._json_doc(tower))


def test_set_file_round_trip_is_byte_identical(grid):
    for tower, pds, _, _ in grid.instances():
        text = pds.to_json(tower)
        tower2, back = pds_from_json_dict(json.loads(text))
        assert back.to_json(tower2) == text


def test_code_and_geometry_documents_on_grid(grid, tmp_path):
    """The CLI's code and geometry files are json.dumps of their documents,
    whose matrix and points are the library's."""
    for tower, pds, _, family in grid.instances():
        tp = tower.params
        set_file = tmp_path / "set.json"
        set_file.write_text(pds.to_json(tower))
        ctx = C.CodingContext(tower)
        S = C.to_projective_set(pds, ctx)
        for command in ("code", "geometry"):
            out = tmp_path / command
            assert cli.main([command, "--set", str(set_file), "-o", str(out)]) == 0, tp
            text = out.read_text()
            assert text == canonical(text), (tp, family, command)
            doc = json.loads(text)
            if command == "code":
                assert doc["generator_rows"] == C.build_code(S, ctx).mat.tolist()
            else:
                assert doc["points"] == [" ".join(map(str, r)) for r in S.points.tolist()]


def test_writer_shapes_and_row_strings():
    for shape in [(0,), (1,), (4,), (0, 2), (3, 0), (1, 1), (5, 2), (2, 3, 2)]:
        a = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) - 2
        doc = {"b": [a, {"c": a}], "a": a, "e": {}, "f": [], "s": 'x"\n', "0-d": np.array(-7)}
        assert dumps(doc) == reference(doc), shape
    rows = RowStrings(np.array([[1, 0, 2], [0, 0, 1]]))
    doc = {"points": rows, "n": 2}
    assert json.loads(dumps(doc))["points"] == ["1 0 2", "0 0 1"]
    assert dumps(doc) == reference(doc)
    for empty in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        doc = {"points": RowStrings(empty)}
        assert dumps(doc) == reference(doc)
    with pytest.raises(TypeError):
        dumps({"x": np.zeros(2)})
    with pytest.raises(ValueError):
        dumps({"x": "\0" + "0\0", "y": np.zeros(2, dtype=np.int64)})


def test_no_other_pretty_printer():
    """json.dumps with ``indent`` is called only in the writer."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "jsonout.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
