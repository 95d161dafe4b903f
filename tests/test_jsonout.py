"""The one JSON writer: its bytes are json.dumps(sort_keys=True, indent=2)'s
on set files, code and geometry documents and hand-picked arrays (random
ones in test_jsonout_hypothesis.py), and no other module of the package
pretty-prints JSON."""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from denpds import cli
from denpds import coding as C
from denpds.construct import PdsSet, Tower, TowerParams, pds_from_json_dict
from denpds.jsonout import RowStrings, dumps, plain
from denpds.verify import delsarte_dual

from conftest import assert_same_text

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
            assert_same_text(text, reference(one.json_doc(tower)), tower.params, one.provenance)
            assert_same_text(text, canonical(text), tower.params, one.provenance)


@pytest.mark.parametrize("tp, families", [((2, 1, 2, 4, 1), ("primal", "delsarte-dual")),
                                          ((7, 1, 2, 1, 1), ("delsarte-dual",))])
def test_set_files_match_json_dumps_at_scale(grid, tp, families):
    """The set files of the benchmark's large towers, v = 2^18 and 7^6, with
    k = 87,210 and 174,933 at p = 2 and 103,200 at p = 7: json.dumps's
    bytes, and elements in strictly increasing lexicographic order."""
    tower = grid.tower(*tp)
    pds, _ = grid.pds(*tp, "primal")
    sets = {"primal": pds,
            "delsarte-dual": delsarte_dual(pds, grid.indexer(tower), grid.spectrum(pds, tower))}
    for family in families:
        doc = sets[family].json_doc(tower)
        assert_same_text(sets[family].to_json(tower), reference(doc), family)
        pairs = plain(doc)["elements"]
        assert len(pairs) == sets[family].k
        assert all(a < b for a, b in zip(pairs, pairs[1:])), family


def test_empty_set_and_zero_coordinates():
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    tp, ix = tower.params, tower.indexer
    claimed = tp.primal_params()
    empty = PdsSet(tp, "primal", [], claimed)
    text = empty.to_json(tower)
    assert json.loads(text)["elements"] == []
    assert_same_text(text, reference(empty.json_doc(tower)))
    # (0, 1), (1, 0) and (1, 1): a zero coordinate has the dlog -1
    mixed = PdsSet(tp, "primal", ix.join(np.array([0, 1, 1]), np.array([1, 0, 1])), claimed)
    text = mixed.to_json(tower)
    assert json.loads(text)["elements"] == [[-1, 0], [0, -1], [0, 0]]
    assert_same_text(text, reference(mixed.json_doc(tower)))


def test_the_cli_writer_holds_no_whole_document(grid, tmp_path):
    """The Delsarte dual of the 2,1,2,4,1 primal set, 5,858,134 bytes of
    text, written to a file by the CLI's writer: the writer's tracemalloc
    peak stays under half the text, as it holds one slice of the elements
    at a time, and the file holds the text of to_json."""
    tower = grid.tower(2, 1, 2, 4, 1)
    pds, _ = grid.pds(2, 1, 2, 4, 1, "primal")
    dual = delsarte_dual(pds, grid.indexer(tower), grid.spectrum(pds, tower))
    doc, out = dual.json_doc(tower), tmp_path / "dual.json"
    tracemalloc.start()
    try:
        cli._dump(doc, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size == 5858134
    assert peak <= size / 2, (peak, size)
    assert_same_text(out.read_text(), dual.to_json(tower))


def test_set_file_round_trip_is_byte_identical(grid):
    for tower, pds, _, _ in grid.instances():
        text = pds.to_json(tower)
        tower2, back = pds_from_json_dict(json.loads(text))
        assert_same_text(back.to_json(tower2), text, tower.params)


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
            assert_same_text(text, canonical(text), tp, family, command)
            doc = json.loads(text)
            if command == "code":
                assert doc["generator_rows"] == C.build_code(S, ctx).mat.tolist()
            else:
                assert doc["points"] == [" ".join(map(str, r)) for r in S.points.tolist()]


def test_writer_shapes_and_row_strings():
    for shape in [(0,), (1,), (4,), (0, 2), (3, 0), (1, 1), (5, 2), (2, 3, 2)]:
        a = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) - 2
        doc = {"b": [a, {"c": a}], "a": a, "e": {}, "f": [], "s": 'x"\n', "0-d": np.array(-7)}
        assert_same_text(dumps(doc), reference(doc), shape)
    rows = RowStrings(np.array([[1, 0, 2], [0, 0, 1]]))
    doc = {"points": rows, "n": 2}
    assert json.loads(dumps(doc))["points"] == ["1 0 2", "0 0 1"]
    assert_same_text(dumps(doc), reference(doc))
    for empty in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        doc = {"points": RowStrings(empty)}
        assert_same_text(dumps(doc), reference(doc))
    # a string that held the parent writer's array stand-in, beside an array
    doc = {"x": "\0" + "0\0", "y": np.zeros(2, dtype=np.int64)}
    assert_same_text(dumps(doc), reference(doc))


@pytest.mark.parametrize(
    "obj", [np.int64(3), np.zeros(2), {1, 2}, {"x": [{(1, 2): 0}]}],
    ids=["numpy-scalar", "float-array", "set", "tuple-key"],
)
def test_unsupported_objects_raise_type_error(obj):
    """What json.dumps refuses with TypeError, the writer refuses too; a
    float array is no integer array it renders."""
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps(obj)


def test_no_other_pretty_printer():
    """No module of the package calls json.dumps with ``indent``, the
    writer included: it writes every byte itself."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
