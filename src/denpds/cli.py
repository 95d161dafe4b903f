"""Command-line frontend.

Subcommands: params, grid, construct, verify, dual, code, geometry,
export-graph.  Every run is deterministic: field models, subspaces and
orderings are fixed by the build rules, and nothing in the pipeline draws
randomness (there is no seed because there is nothing to seed; the
``--seedless`` flag merely asserts this contract).  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource cap exceeded, 141
(128 + SIGPIPE) stdout closed by its reader, with nothing on stderr.

The set files and the ``verify``, ``code`` and ``geometry`` documents go
out through ``jsonout.dump``, and the ``--matrix-out`` text and the edges
of ``export-graph`` through ``jsonout.slices``: their arrays one slice at
a time, to the ``-o`` file or to stdout alike.  ``params`` and ``grid``
render their small documents whole first: past the digit limit an int
cannot be printed, and that must end in a usage error before any byte is
written.

The command-line grammar lives in one option table (``_COMMANDS``).  A
command line that is a command and then flags spelled in full, each value
a word of its own that does not start with "-", is read from the table by
``_parse_table`` into the namespace argparse would make of it.  Any other
command line goes to the argparse parser that ``make_parser`` builds from
the same table: help, every malformed line, ``grid`` and ``params
--grid``.  So help and parse errors are argparse's own, and argparse is
imported only for them.

Bad input of every kind, argument parsing included, raises ``UsageError``;
``main`` alone reports it, as one ``error: ...`` line on stderr, and exits
2.  ``grid`` refuses more than ``GRID_ROWS`` rows before it builds one, and
a key given twice (``l`` and ``ell`` are one key).

On glibc, the first call of ``main`` in a process makes the allocator keep
freed blocks in the heap (``_keep_freed_heap``); importing the package
does not.

Caps may also be set through environment variables DENPDS_TABLE_CAP,
DENPDS_PROFILE_CAP, DENPDS_SPECTRUM_CAP, DENPDS_NEIGHBOR_CAP and
DENPDS_ENUM_CAP; a flag wins over its variable, and a cap that is not a
non-negative integer is a usage error.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import itertools
import math
import os
import sys
import types

from . import coding as cd
from . import params as pm
from . import verify as vf
from .construct import PdsSet, Tower, TowerParams, read_set_file
from .errors import CapExceededError, DenpdsError, NotASubspaceError
from .ff import DEFAULT_TABLE_CAP
from .jsonout import RowStrings, dump, dumps, slices

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 128 + 13  # the status of a process that SIGPIPE ends

# the most rows one grid prints; a larger grid is refused before any row is built
GRID_ROWS = 1 << 16

# glibc's mallopt(3) parameters (malloc.h) and the values main sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# blocks from 16 MiB up are still mapped on their own: at 32 MiB, code and
# geometry at v = 2^20 peaked 8 MB higher for 12-16 % fewer page faults
MMAP_THRESHOLD = 16 << 20
TRIM_THRESHOLD = 64 << 20


class UsageError(Exception):
    """Bad input: ``main`` prints the message as one line and exits 2."""


@contextlib.contextmanager
def _opened(path: str | None):
    """The text file at path, or stdout for None and "-": under
    PYTHONUNBUFFERED through a buffered writer, which retries a raw write
    that the reader's close cuts short and so raises BrokenPipeError."""
    if path is not None and path != "-":
        with open(path, "w") as fh:
            yield fh
    elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout.flush()
        with open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                  errors=sys.stdout.errors, closefd=False) as fh:
            yield fh
    else:
        yield sys.stdout


def _write(text, path: str | None) -> None:
    """Write a string, or each string of an iterable, to path or stdout."""
    with _opened(path) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _dump(doc, path: str | None) -> None:
    """Write the JSON document doc to path or stdout."""
    with _opened(path) as fh:
        dump(doc, fh)


def _cap(args, name: str, default: int) -> int:
    """The --NAME-cap flag, else DENPDS_NAME_CAP, else the default; a cap is
    a non-negative integer."""
    value = getattr(args, "%s_cap" % name, None)
    source = "--%s-cap" % name
    if value is None:
        source = "DENPDS_%s_CAP" % name.upper()
        raw = os.environ.get(source)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise UsageError("%s must be an integer, got %r" % (source, raw)) from None
    if value < 0:
        raise UsageError("%s must be non-negative, got %d" % (source, value))
    return value


def _subspace(tower: Tower, args):
    """R from --subspace-exps or --subspace-coords, else the default.  A
    basis that is not integers, or does not span a subspace of rank r, is a
    usage error."""
    try:
        if args.subspace_exps is not None:
            exps = [int(x) for x in args.subspace_exps.split(",") if x != ""]
            return tower.check_rank(tower.subspace_from_exponents(exps))
        if args.subspace_coords is not None:
            rows = [[int(x) for x in row.replace(",", " ").split()]
                    for row in args.subspace_coords.split(";") if row.strip()]
            return tower.check_rank(tower.subspace_from_coeff_rows(rows))
    except ValueError as exc:
        raise UsageError("a subspace basis is a list of integers: %s" % exc) from None
    except NotASubspaceError as exc:
        raise UsageError("invalid subspace: %s" % exc) from None
    return tower.default_subspace()


def _load_or_build(args, gate=None) -> tuple[Tower, PdsSet, object, vf.Caps, int]:
    """The set of --set FILE, else the one the tower flags build, with its
    tower, its subspace R, the verify caps and the enum cap.  A file that is
    not a well-formed set file is a usage error.  gate(args, enum_cap,
    tower, provenance), if given, runs before any element is read or built:
    for a file after the header's checks, for the flags after the table cap
    and R."""
    table_cap = _cap(args, "table", DEFAULT_TABLE_CAP)
    caps = vf.Caps(
        profile=_cap(args, "profile", vf.DEFAULT_PROFILE_CAP),
        spectrum=_cap(args, "spectrum", vf.DEFAULT_SPECTRUM_CAP),
        neighbor=_cap(args, "neighbor", vf.DEFAULT_NEIGHBOR_CAP),
    )
    enum_cap = _cap(args, "enum", cd.DEFAULT_ENUM_CAP)
    check = None if gate is None else functools.partial(gate, args, enum_cap)
    path = getattr(args, "set_file", None)
    if not path:
        try:
            tp = TowerParams(args.p, args.s, args.m, args.ell, args.r)
        except ValueError as exc:
            raise UsageError(exc) from None
        tower = Tower(tp, table_cap=table_cap)
        R = _subspace(tower, args)
        if check is not None:
            check(tower, args.family)
        pds = tower.build_D(R) if args.family == "primal" else tower.build_D_dual(R)
        return tower, pds, R, caps, enum_cap
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        tower, pds = read_set_file(data, table_cap, check)
        R = tower.check_rank(tower.subspace_from_coeff_rows(pds.subspace_rows))
    except KeyError as exc:
        raise UsageError("set file %s: missing key %s" % (path, exc)) from None
    except (ValueError, TypeError, NotASubspaceError, RecursionError) as exc:
        raise UsageError("set file %s: %s" % (path, exc)) from None
    return tower, pds, R, caps, enum_cap


def _require_printable(tp: TowerParams) -> None:
    """Refuse a tower whose order v = p^dim_p certainly has more decimal
    digits than int-to-string conversion allows, judged from dim_p log10 p
    before any closed form is computed; nearer the limit, printing v raises
    the same error."""
    limit = sys.get_int_max_str_digits()
    if limit and tp.dim_p * math.log10(tp.p) > limit + 1:
        raise ValueError(
            "Exceeds the limit (%d digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit" % limit
        )


def cmd_params(args) -> int:
    if args.grid:
        # the grid gives every tower: a tower flag away from its default is refused
        given = ["/".join(opt[0]) for opt in _TOWER if getattr(args, opt[1]) != opt[3]]
        if given:
            raise UsageError("--grid takes no tower flags, got %s" % ", ".join(given))
        return _emit_grid(args)
    try:  # a ValueError here is a bad tower or a parameter past the digit limit
        tp = TowerParams(args.p, args.s, args.m, args.ell, args.r)
        _require_printable(tp)
        q = tp.q
        qmlr = (q, tp.m, tp.ell, tp.r)
        primal = tp.primal_params()
        dual = tp.dual_params()
        doc = {
            "tower": tp.as_dict(),
            "q": q,
            "e": tp.e,
            "degenerate": tp.degenerate,
            "primal": primal.as_dict(),
            "dual": dual.as_dict(),
            "complement": pm.complement_params(primal).as_dict(),
            "delsarte_dual": pm.delsarte_dual_params(primal).as_dict(),
            "spectrum": dict(zip(("positive", "negative"), tp.spectrum_values())),
            "classification": {
                "primal": pm.classify_type(primal).describe(),
                "dual": pm.classify_type(dual).describe(),
            },
            "projective": {
                fam: dict(zip(("n", "dim", "h1", "h2"), pm.projective_params(*qmlr, fam)))
                for fam in ("primal", "dual")
            },
            "code": {
                fam: dict(zip(("n", "dim", "w1", "w2"), pm.code_params(*qmlr, fam)))
                for fam in ("primal", "dual")
            },
        }
        if args.format == "json":
            text = dumps(doc)
        else:
            lines = ["tower p=%(p)d s=%(s)d m=%(m)d ell=%(ell)d r=%(r)d" % doc["tower"]
                     + " (q=%d, v=%d)%s" % (q, tp.v, " [degenerate]" if tp.degenerate else "")]
            for key in ("primal", "dual", "complement", "delsarte_dual"):
                lines.append("%-15s%s" % (key.replace("_", " "), tuple(doc[key].values())))
            lines.append("spectrum       {%(positive)d, %(negative)d}" % doc["spectrum"])
            lines.append("classification %(primal)s / %(dual)s" % doc["classification"])
            for key in ("projective", "code"):
                lines.append("%-15sprimal %s dual %s" % (key, doc[key]["primal"], doc[key]["dual"]))
            text = "\n".join(lines) + "\n"
    except ValueError as exc:
        raise UsageError(exc) from None
    _write(text, args.output)
    return EXIT_OK


def _parse_range(spec: str) -> range | list[int]:
    """lo..hi as a range (never expanded), or a comma list."""
    if spec == "all":
        raise ValueError("'all' is only valid for r")
    if ".." in spec:
        lo, hi = spec.split("..")
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in spec.split(",")]


def _count(values: range | list[int]) -> int:
    """len(values), also for a range longer than sys.maxsize."""
    return max(values.stop - values.start, 0) if isinstance(values, range) else len(values)


def _emit_grid(args) -> int:
    spec = {}
    for item in args.grid:
        key, eq, val = item.partition("=")
        if not eq:
            raise UsageError("grid entries look like key=value")
        if key not in ("p", "s", "m", "l", "ell", "r"):
            raise UsageError("unknown grid key %s" % key)
        if key in spec or {"l": "ell", "ell": "l"}.get(key) in spec:  # l and ell are one key
            raise UsageError("grid key %s given twice" % key)
        spec[key] = val
    try:
        ps = _parse_range(spec.get("p", "2"))
        ss = _parse_range(spec.get("s", "1"))
        ms = _parse_range(spec.get("m", "2"))
        ls = _parse_range(spec.get("l", spec.get("ell", "1")))
        rs = None if spec.get("r", "all") == "all" else _parse_range(spec["r"])
        if rs is None:  # r=all: m gives the m + 1 ranks 0..m, a negative m none
            if isinstance(ms, range):
                ms = range(max(ms.start, 0), ms.stop)
                mr_rows = _count(ms) * (ms.start + ms.stop + 1) // 2
            else:
                ms = [m for m in ms if m >= 0]
                mr_rows = sum(ms) + len(ms)
        else:
            mr_rows = _count(ms) * _count(rs)
        n = _count(ps) * _count(ss) * _count(ls) * mr_rows
        if n > GRID_ROWS:
            raise CapExceededError("grid of %d rows above %d" % (n, GRID_ROWS))
        rows = []
        # product() holds its inputs as tuples, each no longer than n unless n = 0
        for p, s, m, ell in itertools.product(ps, ss, ms, ls) if n else ():
            for r in range(m + 1) if rs is None else rs:
                tp = TowerParams(p, s, m, ell, r)
                _require_printable(tp)
                primal = tp.primal_params()
                rows.append({
                    "tower": tp.as_dict(),
                    "primal": primal.as_dict(),
                    "dual": tp.dual_params().as_dict(),
                    "classification": pm.classify_type(primal).describe(),
                })
        if args.format == "text":
            text = "\n".join(
                "p=%d s=%d m=%d ell=%d r=%d primal=%s dual=%s %s" % (
                    *row["tower"].values(), tuple(row["primal"].values()),
                    tuple(row["dual"].values()), row["classification"],
                ) for row in rows
            ) + "\n"
        else:
            text = dumps({"rows": rows})
    except ValueError as exc:
        raise UsageError(exc) from None
    _write(text, args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    tower, pds, _, _, _ = _load_or_build(args)
    _dump(pds.json_doc(tower), args.output)
    tp = tower.params
    basis = [list(row) for row in pds.subspace_rows]
    print("constructed %s set: k=%d v=%d basis=%s%s" % (
        pds.provenance, pds.k, tp.v, basis, " [degenerate]" if tp.degenerate else ""
    ), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    tower, pds, R, caps, _ = _load_or_build(args)
    report = vf.verify_pds(pds, tower, R, caps=caps)
    if args.format == "text":
        _write(report.to_text(), args.output)
    else:
        _dump(report.as_dict(), args.output)
    if report.verdict == "INCONCLUSIVE":
        raise CapExceededError("none of %s ran" % ", ".join(vf.SUBSTANTIVE_CHECKS))
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_dual(args) -> int:
    tower, pds, _, caps, _ = _load_or_build(args)
    dual = vf.delsarte_dual(pds, tower.indexer, vf.spectrum_of(pds, tower, cap=caps.spectrum))
    _dump(dual.json_doc(tower), args.output)
    print("delsarte dual: k=%d" % dual.k, file=sys.stderr)
    return EXIT_OK


def _coding_gate(args, enum_cap: int, tower: Tower, provenance: str) -> None:
    """What code and geometry refuse before any element: a set other than a
    primal or dual one, and a message or hyperplane sweep above the enum cap."""
    if provenance not in ("primal", "dual"):
        raise UsageError("%s export needs a primal or dual set" % args.command)
    tp = tower.params
    if tp.q**tp.dim_q > enum_cap:
        sweep = "message sweep" if args.command == "code" else "hyperplane enumeration"
        raise CapExceededError("%s above cap %d" % (sweep, enum_cap))


def _coding_prelude(args, closed_form):
    """What code and geometry share: a primal or dual set, the enum cap, the
    point set, the spectrum, the closed-form parameters, the document's head."""
    tower, pds, _, _, enum_cap = _load_or_build(args, _coding_gate)
    tp = tower.params
    ctx = cd.CodingContext(tower)
    S = cd.to_projective_set(pds, ctx)
    # v = q^dim: the enum cap, checked by the gate, also gates the spectrum
    spectrum = vf.spectrum_of(pds, tower, cap=enum_cap)
    expected = closed_form(tp.q, tp.m, tp.ell, tp.r, pds.provenance)
    doc = {"tower": tp.as_dict(), "family": pds.provenance, "q": tp.q}
    return pds, ctx, S, spectrum, expected, doc


def _coding_finish(args, doc: dict, checks) -> int:
    """Add the checks and the verdict to a code or geometry document, write
    it and give its exit code."""
    doc.update(checks=[c.as_dict() for c in checks], ok=all(c.passed for c in checks))
    _dump(doc, args.output)
    return EXIT_OK if doc["ok"] else EXIT_VERIFY


def cmd_code(args) -> int:
    pds, ctx, S, spectrum, expected, doc = _coding_prelude(args, pm.code_params)
    tp = pds.params
    gm = cd.build_code(S, ctx)
    enum = cd.spectral_weight_enumerator(spectrum, gm)
    checks = [
        cd.check_two_weight(enum, expected, tp.q ** (gm.dim - gm.rank)),
        cd.check_dictionary(vf.expected_params(pds), S.n, *expected[2:], tp.q, tp.dim_q),
    ]
    doc.update(
        n=gm.n,
        dim=gm.dim,
        rank=gm.rank,
        expected_weights=list(expected[2:]),
        generator_rows=gm.mat,
        weight_enumerator={str(w): c for w, c in sorted(enum.items())},
    )
    code = _coding_finish(args, doc, checks)
    if args.matrix_out:
        _write((part() for part in slices(gm.mat, "", (" ", "\n", "\n"))), args.matrix_out)
    return code


def cmd_geometry(args) -> int:
    _, _, S, spectrum, expected, doc = _coding_prelude(args, pm.projective_params)
    profile = cd.spectral_hyperplane_profile(spectrum, S)
    doc.update(
        n=S.n,
        dim=S.dim,
        expected_sizes=list(expected[2:]),
        points=RowStrings(S.points),
        hyperplane_profile={str(h): c for h, c in sorted(profile.items())},
    )
    return _coding_finish(args, doc, [cd.check_two_intersection(profile, expected)])


def cmd_export_graph(args) -> int:
    tower, pds, _, caps, _ = _load_or_build(args)
    chunks = vf.cayley_edge_chunks(pds, tower.indexer, cap=caps.profile)  # refuses before any output
    v, dimacs = tower.params.v, args.graph_format == "dimacs"
    head = ("p edge %d %d\n" if dimacs else "%d %d\n") % (v, v * pds.k // 2)
    start = "e " if dimacs else ""  # each edge line's; DIMACS counts vertices from 1
    seps = (" ", "\n" + start, "\n")
    parts = (part() for c in chunks if len(c) for part in slices(c + dimacs, start, seps))
    _write(itertools.chain([head], parts), args.output)
    return EXIT_OK


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device, so that the
    interpreter's last flush of what stdout still buffers succeeds quietly."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor: nothing flushes to it
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _option(flags, dest, kind=str, default=None, help=None, metavar=None):
    """One row of the option table: its flags (none for a positional), its
    dest, its kind, its default, its help and its metavar.  The kind is int
    or str for one value, a tuple of the values allowed, bool for a flag
    that takes no value and stores True, or list for one or more values
    (which only argparse reads)."""
    return flags, dest, kind, default, help, metavar


_TOWER = (
    _option(("-p",), "p", int),
    _option(("-s",), "s", int, 1),
    _option(("-m",), "m", int),
    _option(("-l", "--ell"), "ell", int),
    _option(("-r",), "r", int),
)
_OUTPUT = _option(("-o", "--output"), "output")
_TEXT_FORMAT = _option(("--format",), "format", ("json", "text"), "text")
_CERTIFY = _TOWER + (
    _option(("--family",), "family", ("primal", "dual"), "primal"),
    _option(("--subspace-exps",), "subspace_exps",
            help="comma list of generator exponents spanning R (default: 0..r-1)"),
    _option(("--subspace-coords",), "subspace_coords",
            help="semicolon-separated GF(p) coefficient rows spanning R"),
    _option(("-o", "--output"), "output", help="output path (default stdout)"),
    _option(("--format",), "format", ("json", "text"), "json"),
    _option(("--parallel",), "parallel", int, 0,
            "accepted and ignored (N >= 0): every sweep runs serially", "N"),
    _option(("--seedless",), "seedless", bool, False,
            "assert the no-randomness guarantee (always true; informational)"),
    _option(("--table-cap",), "table_cap", int),
    _option(("--profile-cap",), "profile_cap", int),
    _option(("--spectrum-cap",), "spectrum_cap", int),
    _option(("--neighbor-cap",), "neighbor_cap", int,
            help="0 skips common-neighbors; any other value is accepted and "
            "has no effect on verify"),
    _option(("--enum-cap",), "enum_cap", int),
)
_SET = _option(("--set",), "set_file", help="constructed set JSON file")
# the dests of the two ways to give R, which exclude each other
_EXCLUSIVE = ("subspace_exps", "subspace_coords")

# each command: its function, its line in the command list (None: not
# listed), its options in the order --help lists them
_COMMANDS = {
    "params": (cmd_params, "closed-form parameter tables", _TOWER + (
        _option(("--grid",), "grid", list, help="key=value ranges, e.g. m=2..3 r=all"),
        _OUTPUT, _TEXT_FORMAT,
    )),
    "grid": (_emit_grid, "parameter rows over ranges", (
        _option((), "grid", list, help="key=value ranges, e.g. p=2 m=2..3 r=all",
                metavar="ranges"),
        _OUTPUT, _TEXT_FORMAT,
    )),
    "construct": (cmd_construct, None, _CERTIFY),
    "verify": (cmd_verify, None, _CERTIFY + (_SET,)),
    "dual": (cmd_dual, None, _CERTIFY + (_SET,)),
    "code": (cmd_code, None, _CERTIFY + (
        _SET,
        _option(("--matrix-out",), "matrix_out", help="also write the generator matrix as text"),
    )),
    "geometry": (cmd_geometry, None, _CERTIFY + (_SET,)),
    "export-graph": (cmd_export_graph, None, _CERTIFY + (
        _SET, _option(("--graph-format",), "graph_format", ("edgelist", "dimacs"), "edgelist"),
    )),
}


def _parse_table(argv: list[str]):
    """The namespace argparse makes of argv, read from the option table,
    when argv is COMMAND (FLAG VALUE | --seedless)* with every flag spelled
    in full, every value a word of its own that does not start with "-",
    and at most one of the exclusive flags; else None, and argparse reads
    argv, so that its help and its errors stay its own.  A value is
    converted as argparse converts it, and a repeated flag keeps its last
    value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    if any(not opt[0] for opt in options):  # a positional is argparse's to read
        return None
    by_flag = {flag: opt for opt in options for flag in opt[0]}
    ns = {"command": argv[0], "func": func, **{opt[1]: opt[3] for opt in options}}
    given = set()
    rest = iter(argv[1:])
    for flag in rest:
        opt = by_flag.get(flag)
        if opt is None or opt[2] is list:
            return None
        _, dest, kind = opt[:3]
        if kind is bool:
            ns[dest] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        ns[dest] = value
        given.add(dest)
    if given.issuperset(_EXCLUSIVE):
        return None
    return types.SimpleNamespace(**ns)


@functools.cache  # built for --help and for what _parse_table declines; about 3 ms
def make_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    ap = Parser(
        prog="denpds",
        description="Construct and exactly certify two-family difference sets, "
        "their Cayley graphs, projective point sets and two-weight codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        sc = sub.add_parser(name, **({} if help_line is None else {"help": help_line}))
        group = None
        for flags, dest, kind, default, help_text, metavar in options:
            kw = {"dest": dest, "default": default} if flags else {}
            if kind is bool:
                kw["action"] = "store_true"
            elif kind is list:
                kw["nargs"] = "+"
            elif kind is int:
                kw["type"] = int
            elif kind is not str:
                kw["choices"] = kind
            if help_text:
                kw["help"] = help_text
            if metavar:
                kw["metavar"] = metavar
            target = sc
            if dest in _EXCLUSIVE:
                group = group or sc.add_mutually_exclusive_group()
                target = group
            target.add_argument(*flags or (dest,), **kw)
        sc.set_defaults(func=func)
    return ap


@functools.cache
def _keep_freed_heap() -> None:
    """Make glibc keep freed blocks in the heap for the rest of the process.

    By default glibc maps a large block on its own and unmaps it when
    freed, and returns the top of the heap to the kernel, so the next
    command, or the next slice of one, faults those pages in again, at
    about 1.5 us a page.  Setting both thresholds also stops glibc from
    adjusting them itself; the trim threshold alone made the benchmark's
    ``large`` certification slower.  The cost is up to ``TRIM_THRESHOLD``
    bytes of freed heap kept.  Off glibc, and where the lookup fails, it
    does nothing.  Only ``main`` calls it: importing denpds leaves the
    host's allocator alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_table(argv) or make_parser().parse_args(argv)
        if getattr(args, "parallel", 0) < 0:
            raise UsageError("--parallel must be non-negative, got %d" % args.parallel)
        if not (getattr(args, "grid", None) or getattr(args, "set_file", None)):
            missing = [k for k in ("p", "m", "ell", "r") if getattr(args, k) is None]
            if missing:
                alternative = "--grid" if args.command == "params" else "--set FILE"
                raise UsageError("missing %s (or use %s)" % (", ".join(missing), alternative))
        try:
            return args.func(args)
        finally:
            # a closed pipe shows here, however the command ended, and not at
            # the interpreter's exit; its BrokenPipeError replaces the error
            sys.stdout.flush()
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except DenpdsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
