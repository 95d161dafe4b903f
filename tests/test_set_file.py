"""Reading set files from bytes: ``read_set_file`` must give what
``json.loads`` and ``pds_from_json_dict`` give, the same set or the same
error, and must decode every set file the program writes without falling
back to ``json``."""

import json

import numpy as np
import pytest

from denpds.construct import (
    PdsSet,
    Tower,
    TowerParams,
    _pairs_from_json_text,
    _split_elements,
    pds_from_json_dict,
    read_set_file,
)
from denpds.verify import delsarte_dual


def _outcome(read):
    """What a reader gives: the set's fields, or the error a CLI line shows."""
    try:
        _, pds = read()
    except (KeyError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return pds.params, pds.provenance, pds.elements.tolist(), pds.claimed, pds.subspace_rows


def assert_same(data: bytes):
    """The bytes route and the whole-document route agree on data."""
    by_bytes = _outcome(lambda: read_set_file(data))
    by_json = _outcome(lambda: pds_from_json_dict(json.loads(data.decode())))
    assert by_bytes == by_json
    return by_bytes


def test_every_grid_set_is_read_from_bytes(grid):
    """Every grid set, its complement and its Delsarte dual, as written and
    as one line: the split and the decoder both accept, and the set read
    back is the one written."""
    for tower, pds, R, family in grid.instances():
        dual = delsarte_dual(pds, grid.indexer(tower), grid.spectrum(pds, tower))
        for one in (pds, tower.complement(pds), dual):
            text = one.to_json(tower)
            for data in (text.encode(), json.dumps(json.loads(text)).encode()):
                split = _split_elements(data)
                assert split is not None, (tower.params, one.provenance)
                assert _pairs_from_json_text(split[1]) is not None, (tower.params, one.provenance)
                got = assert_same(data)
                assert np.array_equal(got[2], one.elements), (tower.params, one.provenance)


@pytest.fixture(scope="module")
def small_file() -> str:
    """The (64,18,2,6) set file, whose exponents lie in [-1, 3) x [-1, 15)."""
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    return tower.build_D().to_json(tower)


def _with_elements(text: str, value: str) -> bytes:
    """The set file text with value as the text of its elements."""
    doc = json.loads(text)
    doc["elements"] = "@"
    return json.dumps(doc, sort_keys=True, indent=2).replace('"@"', value).encode()


# (elements text, whether the bytes decoder reads it)
ELEMENT_TEXTS = [
    ("[[1,0],[2,14]]", True),
    ("[ [ 1 , 0 ] ,\n\t[ 2 ,\r\n 14 ] ]", True),
    ("[[-1,-1]]", True),
    ("[[-0,0]]", True),
    ("[]", True),
    ("[ \n ]", True),
    ("[[123456789012345678,0]]", True),  # 18 digits: decoded, then out of range
    ("[[1234567890123456789,0]]", False),  # 19 digits: left to json
    ("[[01,0]]", False),
    ("[[1,00]]", False),
    ("[[-01,0]]", False),
    ("[[1 2,0]]", False),
    ("[[1,\n2]]", True),
    ("[[1,-\n2]]", False),
    ("[[- 1,0]]", False),
    ("[[1-2,0]]", False),
    ("[[--1,0]]", False),
    ("[[-,0]]", False),
    ("[[1,-]]", False),
    ("[[1.0,0]]", False),
    ("[[1e2,0]]", False),
    ("[[+1,0]]", False),
    ("[[true,0]]", False),
    ("[[1,null]]", False),
    ("[[9223372036854775808,0]]", False),
    ("[[-9223372036854775809,0]]", False),
    ("[[99999999999999999999999999,0]]", False),
    ("[[1,0],]", False),
    ("[[1,0],[2,3]", False),
    ("[[1,0]]]", False),
    ("[[1,0]", False),
    ("[[1,0,2]]", False),
    ("[[1]]", False),
    ("[[,0]]", False),
    ("[[1,]]", False),
    ("[[[1,0]]]", False),
    ("[[1,[0]]]", False),
    ("[5[1,0]]", False),
    ("[[1,0]5]", False),
    ("[[1,0],7,[2,3]]", False),
    ("[[1,0]5,[,3]]", False),
    ("[[1,0],5[,3]]", False),
    ("[[,0],[1 2,3]]", False),
    ("-[[1,0]]", False),
    ('[["1",0]]', False),
    ('[[1,0],"x"]', False),
    ("[[1,\x0b0]]", False),
    ("[[1,0]] 5", False),
    ("{}", False),
    ("", False),
]


@pytest.mark.parametrize("value,decoded", ELEMENT_TEXTS, ids=[repr(v) for v, _ in ELEMENT_TEXTS])
def test_element_text_is_read_as_json_reads_it(small_file, value, decoded):
    data = _with_elements(small_file, value)
    assert_same(data)
    split = _split_elements(data)
    read = split is not None and _pairs_from_json_text(split[1]) is not None
    assert read == decoded


def test_only_the_top_level_elements_count(small_file):
    """A nested "elements" key, a repeated top-level one, and the name as a
    string value: the split declines and json's reading holds."""
    doc = json.loads(small_file)
    nested = dict(doc, claimed=dict(doc["claimed"], elements=[[2, 3]]))
    repeated = small_file.rstrip()[:-1] + ',\n  "elements": [[2, 3]]\n}\n'
    named = {"provenance": "elements", **{k: v for k, v in doc.items() if k != "provenance"}}
    for data in (json.dumps(nested).encode(), repeated.encode(), json.dumps(named).encode()):
        assert _split_elements(data) is None
        assert_same(data)
    assert len(assert_same(repeated.encode())[2]) == 1  # the last one, as json reads it


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_other_json_constants_leave_the_header_to_json(small_file, constant):
    data = small_file.replace('"k": 18', '"k": %s' % constant).encode()
    assert _split_elements(data) is None
    assert assert_same(data) == (ValueError, "claimed.k must be an integer, got %s" % constant)


def test_header_checks_come_before_any_element(small_file):
    """check(tower, provenance) runs on the header: whatever it raises
    comes before the elements are read, on either route."""
    doc = json.loads(small_file)
    doc["elements"] = [["x"]]

    class Refused(Exception):
        pass

    def refuse(tower, provenance):
        assert provenance == "primal" and tower.params.v == 64
        raise Refused

    for data in (json.dumps(doc).encode(), _with_elements(small_file, "[[1 2,0]]")):
        with pytest.raises(Refused):
            read_set_file(data, check=refuse)
        with pytest.raises(ValueError):
            read_set_file(data)


def test_bad_header_bytes_take_the_whole_file_route(small_file):
    """A byte-order mark or a non-ASCII header is left to the whole-file
    route, which decodes the file as open() does: the mark is refused as
    json refuses it in a str."""
    data = small_file.encode()
    with pytest.raises(ValueError, match="Unexpected UTF-8 BOM"):
        read_set_file(b"\xef\xbb\xbf" + data)
    assert _split_elements(data.replace(b'"primal"', '"primäl"'.encode())) is None
    with pytest.raises(UnicodeDecodeError):
        read_set_file(data.replace(b'"primal"', b'"prim\xffl"'))
    digit = data.index(b"1", data.index(b'"elements"'))
    with pytest.raises(UnicodeDecodeError):
        read_set_file(data[:digit] + b"\xff" + data[digit + 1:])


def test_empty_elements_read_from_bytes():
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    D = tower.build_D()
    text = PdsSet(D.params, D.provenance, [], D.claimed, D.subspace_rows).to_json(tower)
    _, back = read_set_file(text.encode())
    assert back.k == 0 and back.elements.dtype == np.int64
