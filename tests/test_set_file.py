"""Reading set files from bytes: ``read_set_file`` must give what
``json.loads`` and ``pds_from_json_dict`` give, the same set or the same
error, and must decode every set file the program writes without falling
back to ``json``, in slices of a bounded number of bytes."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from denpds import construct, ff
from denpds.construct import (
    PdsSet,
    Tower,
    TowerParams,
    _dlog_pair_array,
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
                assert _pairs_from_json_text(data, *split[1]) is not None, (tower.params, one.provenance)
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
    read = split is not None and _pairs_from_json_text(data, *split[1]) is not None
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


@pytest.mark.parametrize(
    "section,change,message",
    [
        (None, lambda doc: doc.__setitem__("provenance", ["primal"]), "unknown provenance ['primal']"),
        ("tower", lambda part: part.__setitem__("z", 1), "tower must have exactly the keys p, s, m, ell, r"),
        ("tower", lambda part: part.__delitem__("r"), "tower must have exactly the keys p, s, m, ell, r"),
    ],
    ids=["list-provenance", "extra-tower-key", "no-tower-r"],
)
def test_header_fields_are_named_on_either_route(small_file, section, change, message):
    """A provenance that is no string and a tower with other keys than
    p, s, m, ell, r are refused by a ValueError naming the field, by the
    bytes reader and by the whole-document reader alike."""
    doc = json.loads(small_file)
    change(doc if section is None else doc[section])
    assert assert_same(json.dumps(doc).encode()) == (ValueError, message)


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


@pytest.fixture
def slices(monkeypatch):
    """The text of every slice the bytes decoder decodes, in order."""
    seen, decode = [], construct._decode_pairs

    def recorded(text, lead):
        seen.append(text)
        return decode(text, lead)

    monkeypatch.setattr(construct, "_decode_pairs", recorded)
    return seen


def _slice_bytes(monkeypatch, nbytes: int) -> None:
    """Slices of nbytes of element text, each stretched to the next ]."""
    monkeypatch.setattr(ff, "CHUNK_BYTES", nbytes * construct.TEXT_BYTES)


def _decoded(data: bytes):
    """The bytes decoder's pairs for the set file data, None where the
    split or the decoder declines."""
    split = _split_elements(data)
    return None if split is None else _pairs_from_json_text(data, *split[1])


def test_every_grid_set_is_read_in_slices(grid, monkeypatch, slices):
    """Every grid set file, as written and as one line, in slices of a
    quarter of its element text: three slices or more, which join to the
    element list, and the pairs json reads."""
    for tower, pds, _, _ in grid.instances():
        text = pds.to_json(tower)
        for data in (text.encode(), json.dumps(json.loads(text)).encode()):
            start, end = _split_elements(data)[1]
            _slice_bytes(monkeypatch, (end - start) // 4)
            slices.clear()
            got = _decoded(data)
            elements = json.loads(data)["elements"]
            assert len(slices) >= 3, (tower.params, pds.provenance, len(slices))
            assert json.loads(b"[" + b"".join(slices) + b"]") == elements
            assert np.array_equal(got, _dlog_pair_array(elements)), (tower.params, pds.provenance)


def _element_text(pairs: list, at: int, planted: str, sep: str = ",") -> str:
    """The text of the pairs as a JSON list, with planted put in as one
    more item before pairs[at]."""
    return "[" + sep.join(pairs[:at] + [planted] + pairs[at:]) + "]"


# each declined element text of the form [item, ...] and its items
PLANTED = [value[1:-1] for value, decoded in ELEMENT_TEXTS if not decoded and value[:1] + value[-1:] == "[]"]


def _pairs_and_cut(small_file: str, slices: list) -> tuple[list, int]:
    """The small file's 18 pairs as texts, and the first at > 1 at which
    the list of them, in slices of 16 bytes, is cut just after pairs[at - 1].
    Text put in after pairs[:at] leaves the slices before it as they are."""
    pairs = ["[%d,%d]" % tuple(pair) for pair in json.loads(small_file)["elements"]]
    slices.clear()
    assert _decoded(_with_elements(small_file, "[%s]" % ",".join(pairs))) is not None
    cuts = set(itertools.accumulate(map(len, slices)))  # offsets after the list's [
    return pairs, next(at for at in range(2, len(pairs)) if len(",".join(pairs[:at])) in cuts)


@pytest.mark.parametrize("planted", PLANTED, ids=repr)
def test_a_defect_in_any_slice_declines(small_file, monkeypatch, slices, planted):
    """Each declined element text, put among the 18 pairs of the small
    file as its first pair, just after a slice cut and as its last pair:
    the decoder declines and both routes agree."""
    _slice_bytes(monkeypatch, 16)
    pairs, at = _pairs_and_cut(small_file, slices)
    for where in (0, at, len(pairs)):
        slices.clear()
        data = _with_elements(small_file, _element_text(pairs, where, planted))
        assert _decoded(data) is None, where
        if where == at and _split_elements(data) is not None:  # a quote ends the split's value
            assert slices[-1].startswith(("," + planted).encode())
        assert_same(data)


@pytest.mark.parametrize("sep", [",", "\n ,\n", " ,", ", ", "\t,\r\n"], ids=repr)
def test_whitespace_around_a_cut_is_read(small_file, monkeypatch, slices, sep):
    """Pairs joined by JSON whitespace and a comma: every cut falls just
    after a pair, before the separator, and the pairs are read."""
    _slice_bytes(monkeypatch, 16)
    elements = json.loads(small_file)["elements"]
    data = _with_elements(small_file, "[%s]" % sep.join("[%d,%d]" % tuple(pair) for pair in elements))
    got = _decoded(data)
    assert len(slices) >= 3 and all(text.endswith(b"]") for text in slices)
    assert all(text.lstrip(b" \t\n\r").startswith(b",") for text in slices[1:])
    assert got is not None and got.tolist() == elements
    assert_same(data)


def test_a_missing_comma_at_a_cut_declines(small_file, monkeypatch, slices):
    """Two pairs with nothing or only whitespace between them, just at a
    cut: the slice after the cut lacks its comma, and json refuses."""
    _slice_bytes(monkeypatch, 16)
    pairs, at = _pairs_and_cut(small_file, slices)
    for gap in ("", " \n "):
        value = "[%s%s%s]" % (",".join(pairs[:at]), gap, ",".join(pairs[at:]))
        data = _with_elements(small_file, value)
        slices.clear()
        assert _decoded(data) is None and slices[-1].startswith((gap + pairs[at]).encode()), gap
        assert issubclass(assert_same(data)[0], ValueError)


def _traced_peak(read) -> int:
    """The tracemalloc peak of read(), after one untraced call."""
    read()
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_holds_one_slice_of_text(monkeypatch):
    """The 2,1,2,3,1 dual set file (k = 10,965, v = 2^14, 357 kB) in
    slices of 2 kB: the reader peaks within 48 bytes an element (the
    (k, 2) pairs and the index arithmetic on them), v (the indicator),
    CHUNK_BYTES (one slice's work) and 64 KiB (header and tower).  Read in
    one slice, as before slicing, it holds copies of the whole text and
    passes that bound."""
    tower = Tower(TowerParams(2, 1, 2, 3, 1))
    data = tower.build_D_dual().to_json(tower).encode()
    monkeypatch.setattr(ff, "CHUNK_BYTES", 1 << 16)
    _, pds = read_set_file(data)
    k, v = pds.k, tower.params.v
    bound = 48 * k + v + ff.CHUNK_BYTES + (64 << 10)
    assert len(data) > 3 * ff.CHUNK_BYTES // construct.TEXT_BYTES  # three slices or more
    assert _traced_peak(lambda: read_set_file(data)) <= bound
    _slice_bytes(monkeypatch, len(data))
    assert _traced_peak(lambda: read_set_file(data)) > bound


def test_dlog_pairs_become_indices_in_one_array():
    """On the 2,1,2,4,1 primal set (k = 87,210) ``from_dlog_pairs`` holds
    its output and one gather beside its input: at most 16 bytes an
    element plus 64 KiB.  Joining two gathered coordinates peaks at 24."""
    tower = Tower(TowerParams(2, 1, 2, 4, 1))
    pds = tower.build_D()
    pairs = tower.indexer.dlog_pairs(pds.elements)
    peak = _traced_peak(lambda: tower.indexer.from_dlog_pairs(pairs))
    assert peak <= 16 * pds.k + (64 << 10)
    assert np.array_equal(tower.indexer.from_dlog_pairs(pairs), pds.elements)


# -- the slice decoder against json on random element texts --

NUMBERS = st.one_of(st.integers(-1, 1100), st.integers(-(10**18 - 1), 10**18 - 1))
JSON_WS = st.text(alphabet=" \t\n\r", max_size=3)
# slices of 1 to 48 bytes of text, each stretched to the next ]
SLICE_BYTES = st.integers(1, 48)
# bytes an edit puts in: JSON's own and ones it refuses in a number or between tokens
EDIT_BYTES = "0123456789-+[],.eE \t\n\r\x0b\"xn"


@st.composite
def element_texts(draw):
    """A list of integer pairs as JSON text, with random JSON whitespace
    before every token and after the last, and the pairs."""
    pairs = draw(st.lists(st.tuples(NUMBERS, NUMBERS), max_size=24))
    tokens = ["["]
    for at, pair in enumerate(pairs):
        tokens += [","] * bool(at) + ["[", str(pair[0]), ",", str(pair[1]), "]"]
    tokens.append("]")
    return "".join(draw(JSON_WS) + token for token in tokens) + draw(JSON_WS), pairs


def _by_bytes(text: str, nbytes: int):
    """The slice decoder's pairs for the whole text as the elements value,
    in slices of nbytes, or None where it declines."""
    data = text.encode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ff, "CHUNK_BYTES", nbytes * construct.TEXT_BYTES)
        return _pairs_from_json_text(data, 0, len(data))


def _by_json(text: str):
    """json's reading of the text as an element list, None where refused."""
    try:
        return _dlog_pair_array(json.loads(text))
    except ValueError:
        return None


@settings(max_examples=150, deadline=None)
@given(element_texts(), SLICE_BYTES)
def test_random_pair_lists_decode_as_json_reads_them(drawn, nbytes):
    text, pairs = drawn
    got = _by_bytes(text, nbytes)
    assert got is not None
    assert got.tolist() == [list(pair) for pair in pairs]
    assert np.array_equal(got, _by_json(text))


@settings(max_examples=300, deadline=None)
@given(element_texts(), SLICE_BYTES, st.data())
def test_a_one_byte_edit_declines_or_reads_as_json(drawn, nbytes, data):
    """A byte replaced, put in or taken out anywhere in a valid element
    text: the decoder declines, or it reads what json reads, so it never
    accepts a text that json refuses."""
    text = drawn[0]
    at = data.draw(st.integers(0, len(text)))
    byte = data.draw(st.sampled_from(EDIT_BYTES))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "replace":
        text = text[:at] + byte + text[at + 1:]
    else:
        text = text[:at] + byte * (edit == "insert") + text[at + (edit == "delete"):]
    got = _by_bytes(text, nbytes)
    if got is not None:
        want = _by_json(text)
        assert want is not None, text
        assert np.array_equal(got, want), text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["[", "]", ",", "-", "0", "7", "19", "-3", " ", "\n", "1.5", "2e3", "true"]),
                max_size=30), SLICE_BYTES)
def test_the_decoder_never_accepts_what_json_refuses(tokens, nbytes):
    """Random runs of brackets, commas, numbers, whitespace and literals."""
    text = "".join(tokens)
    got = _by_bytes(text, nbytes)
    if got is not None:
        want = _by_json(text)
        assert want is not None, text
        assert np.array_equal(got, want), text
