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

import argparse
import contextlib
import ctypes
import functools
import io
import itertools
import math
import os
import sys

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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


@functools.cache  # one parser per process: building it costs about 3 ms
def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="denpds",
        description="Construct and exactly certify two-family difference sets, "
        "their Cayley graphs, projective point sets and two-weight codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    tower = argparse.ArgumentParser(add_help=False)
    tower.add_argument("-p", type=int)
    tower.add_argument("-s", type=int, default=1)
    tower.add_argument("-m", type=int)
    tower.add_argument("-l", "--ell", type=int, dest="ell")
    tower.add_argument("-r", type=int)

    common = argparse.ArgumentParser(add_help=False, parents=[tower])
    common.add_argument("--family", choices=["primal", "dual"], default="primal")
    basis = common.add_mutually_exclusive_group()
    basis.add_argument(
        "--subspace-exps", help="comma list of generator exponents spanning R (default: 0..r-1)"
    )
    basis.add_argument(
        "--subspace-coords", help="semicolon-separated GF(p) coefficient rows spanning R"
    )
    common.add_argument("-o", "--output", help="output path (default stdout)")
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="accepted and ignored (N >= 0): every sweep runs serially",
    )
    common.add_argument(
        "--seedless", action="store_true",
        help="assert the no-randomness guarantee (always true; informational)",
    )
    cap_help = {
        "neighbor": "0 skips common-neighbors; any other value is accepted and "
        "has no effect on verify",
    }
    for cap in ("table", "profile", "spectrum", "neighbor", "enum"):
        common.add_argument("--%s-cap" % cap, type=int, default=None, help=cap_help.get(cap))

    sp = sub.add_parser("params", parents=[tower], help="closed-form parameter tables")
    sp.add_argument("--grid", nargs="+", help="key=value ranges, e.g. m=2..3 r=all")
    sp.add_argument("-o", "--output")
    sp.add_argument("--format", choices=["json", "text"], default="text")
    sp.set_defaults(func=cmd_params)

    sg = sub.add_parser("grid", help="parameter rows over ranges")
    sg.add_argument(
        "grid", nargs="+", metavar="ranges", help="key=value ranges, e.g. p=2 m=2..3 r=all"
    )
    sg.add_argument("-o", "--output")
    sg.add_argument("--format", choices=["json", "text"], default="text")
    sg.set_defaults(func=_emit_grid)

    for name, fn in (
        ("construct", cmd_construct),
        ("verify", cmd_verify),
        ("dual", cmd_dual),
        ("code", cmd_code),
        ("geometry", cmd_geometry),
        ("export-graph", cmd_export_graph),
    ):
        sc = sub.add_parser(name, parents=[common])
        if name != "construct":
            sc.add_argument("--set", dest="set_file", help="constructed set JSON file")
        if name == "code":
            sc.add_argument("--matrix-out", help="also write the generator matrix as text")
        if name == "export-graph":
            sc.add_argument(
                "--graph-format", choices=["edgelist", "dimacs"], default="edgelist"
            )
        sc.set_defaults(func=fn)
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
    try:
        args = make_parser().parse_args(argv)
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
