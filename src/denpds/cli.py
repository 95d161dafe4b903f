"""Command-line frontend.

Subcommands: params, grid, construct, verify, dual, code, geometry,
export-graph.  Every run is deterministic: field models, subspaces and
orderings are fixed by the build rules, and nothing in the pipeline draws
randomness (there is no seed because there is nothing to seed; the
``--seedless`` flag merely asserts this contract).  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource cap exceeded.

Bad input of every kind, argument parsing included, raises ``UsageError``;
``main`` alone reports it, as one ``error: ...`` line on stderr, and exits
2.  ``grid`` refuses more than ``GRID_ROWS`` rows before it builds one.

Caps may also be set through environment variables DENPDS_TABLE_CAP,
DENPDS_PROFILE_CAP, DENPDS_SPECTRUM_CAP, DENPDS_NEIGHBOR_CAP and
DENPDS_ENUM_CAP; a flag wins over its variable, and a cap that is not a
non-negative integer is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import coding as cd
from . import params as pm
from . import verify as vf
from .construct import PdsSet, Tower, TowerParams, pds_from_json_dict
from .errors import CapExceededError, DenpdsError, NotASubspaceError
from .ff import DEFAULT_TABLE_CAP
from .jsonout import RowStrings, dumps

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# the most rows one grid prints; a larger grid is refused before any row is built
GRID_ROWS = 1 << 16


class UsageError(Exception):
    """Bad input: ``main`` prints the message as one line and exits 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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


def _load_or_build(args) -> tuple[Tower, PdsSet, object, vf.Caps, int]:
    """The set of --set FILE, else the one the tower flags build, with its
    tower, its subspace R, the verify caps and the enum cap.  A file that is
    not a well-formed set file is a usage error."""
    table_cap = _cap(args, "table", DEFAULT_TABLE_CAP)
    caps = vf.Caps(
        profile=_cap(args, "profile", vf.DEFAULT_PROFILE_CAP),
        spectrum=_cap(args, "spectrum", vf.DEFAULT_SPECTRUM_CAP),
        neighbor=_cap(args, "neighbor", vf.DEFAULT_NEIGHBOR_CAP),
    )
    enum_cap = _cap(args, "enum", cd.DEFAULT_ENUM_CAP)
    path = getattr(args, "set_file", None)
    if not path:
        try:
            tp = TowerParams(args.p, args.s, args.m, args.ell, args.r)
        except ValueError as exc:
            raise UsageError(exc) from None
        tower = Tower(tp, table_cap=table_cap)
        R = _subspace(tower, args)
        pds = tower.build_D(R) if args.family == "primal" else tower.build_D_dual(R)
        return tower, pds, R, caps, enum_cap
    try:
        with open(path) as fh:
            doc = json.load(fh)
        tower, pds = pds_from_json_dict(doc, table_cap=table_cap)
        R = tower.check_rank(tower.subspace_from_coeff_rows(pds.subspace_rows))
    except KeyError as exc:
        raise UsageError("set file %s: missing key %s" % (path, exc)) from None
    except (ValueError, TypeError, NotASubspaceError) as exc:
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
    _write(pds.to_json(tower), args.output)
    tp = tower.params
    basis = [list(row) for row in pds.subspace_rows]
    print("constructed %s set: k=%d v=%d basis=%s%s" % (
        pds.provenance, pds.k, tp.v, basis, " [degenerate]" if tp.degenerate else ""
    ), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    tower, pds, R, caps, _ = _load_or_build(args)
    report = vf.verify_pds(pds, tower, R, caps=caps)
    text = report.to_text() if args.format == "text" else report.to_json()
    _write(text, args.output)
    if report.verdict == "INCONCLUSIVE":
        raise CapExceededError("none of %s ran" % ", ".join(vf.SUBSTANTIVE_CHECKS))
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_dual(args) -> int:
    tower, pds, _, caps, _ = _load_or_build(args)
    dual = vf.delsarte_dual(pds, tower.indexer, cap=caps.spectrum)
    _write(dual.to_json(tower), args.output)
    print("delsarte dual: k=%d" % dual.k, file=sys.stderr)
    return EXIT_OK


def _coding_prelude(args, closed_form):
    """What code and geometry share: a primal or dual set, the enum cap, the
    point set, the spectrum, the closed-form parameters, the document's head."""
    tower, pds, _, _, enum_cap = _load_or_build(args)
    if pds.provenance not in ("primal", "dual"):
        raise UsageError("%s export needs a primal or dual set" % args.command)
    tp = tower.params
    if tp.q**tp.dim_q > enum_cap:
        sweep = "message sweep" if args.command == "code" else "hyperplane enumeration"
        raise CapExceededError("%s above cap %d" % (sweep, enum_cap))
    ctx = cd.CodingContext(tower)
    S = cd.to_projective_set(pds, ctx)
    # v = q^dim: the enum cap, checked above, also gates the spectrum
    spectrum = vf.character_spectrum(pds, tower.indexer, cap=enum_cap)
    expected = closed_form(tp.q, tp.m, tp.ell, tp.r, pds.provenance)
    doc = {"tower": tp.as_dict(), "family": pds.provenance, "q": tp.q}
    return pds, ctx, S, spectrum, expected, doc


def _coding_finish(args, doc: dict, checks) -> int:
    """Add the checks and the verdict to a code or geometry document, write
    it and give its exit code."""
    doc.update(checks=[c.as_dict() for c in checks], ok=all(c.passed for c in checks))
    _write(dumps(doc), args.output)
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
        _write("\n".join(gm.row_strings()) + "\n", args.matrix_out)
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
    edges = vf.cayley_edges(pds, tower.indexer, cap=caps.profile)
    dimacs = args.graph_format == "dimacs"
    head, edge, base = ("p edge %d %d", "e %d %d", 1) if dimacs else ("%d %d", "%d %d", 0)
    lines = [head % (tower.params.v, len(edges))]
    lines.extend(edge % (u + base, w + base) for u, w in edges)
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


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


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if getattr(args, "parallel", 0) < 0:
            raise UsageError("--parallel must be non-negative, got %d" % args.parallel)
        if not (getattr(args, "grid", None) or getattr(args, "set_file", None)):
            missing = [k for k in ("p", "m", "ell", "r") if getattr(args, k) is None]
            if missing:
                alternative = "--grid" if args.command == "params" else "--set FILE"
                raise UsageError("missing %s (or use %s)" % (", ".join(missing), alternative))
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except DenpdsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
