"""Command-line frontend.

Subcommands: params, grid, construct, verify, dual, code, geometry,
export-graph.  Every run is deterministic: field models, subspaces and
orderings are fixed by the build rules, and nothing in the pipeline draws
randomness (there is no seed because there is nothing to seed; the
``--seedless`` flag merely asserts this contract).  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource cap exceeded.

Caps may also be set through environment variables DENPDS_TABLE_CAP,
DENPDS_PROFILE_CAP, DENPDS_SPECTRUM_CAP, DENPDS_NEIGHBOR_CAP and
DENPDS_ENUM_CAP; a flag wins over its variable, and a cap that is not a
non-negative integer is a usage error.
"""

from __future__ import annotations

import argparse
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


def _usage_error(message: str):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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
            _usage_error("%s must be an integer, got %r" % (source, raw))
    if value < 0:
        _usage_error("%s must be non-negative, got %d" % (source, value))
    return value


def _caps_from(args) -> tuple[int, vf.Caps, int]:
    table = _cap(args, "table", DEFAULT_TABLE_CAP)
    caps = vf.Caps(
        profile=_cap(args, "profile", vf.DEFAULT_PROFILE_CAP),
        spectrum=_cap(args, "spectrum", vf.DEFAULT_SPECTRUM_CAP),
        neighbor=_cap(args, "neighbor", vf.DEFAULT_NEIGHBOR_CAP),
    )
    enum_cap = _cap(args, "enum", cd.DEFAULT_ENUM_CAP)
    return table, caps, enum_cap


def _tower_params(args) -> TowerParams:
    try:
        return TowerParams(args.p, args.s, args.m, args.ell, args.r)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _subspace(tower: Tower, args):
    """R from --subspace-exps or --subspace-coords, else the default.  A
    basis that is not integers, or does not span a subspace of rank r, is a
    usage error."""
    try:
        if getattr(args, "subspace_exps", None):
            exps = [int(x) for x in args.subspace_exps.split(",") if x != ""]
            return tower.check_rank(tower.subspace_from_exponents(exps))
        if getattr(args, "subspace_coords", None):
            rows = [
                [int(x) for x in row.replace(",", " ").split()]
                for row in args.subspace_coords.split(";")
                if row.strip()
            ]
            return tower.check_rank(tower.subspace_from_coeff_rows(rows))
    except ValueError as exc:
        _usage_error("a subspace basis is a list of integers: %s" % exc)
    except NotASubspaceError as exc:
        _usage_error("invalid subspace: %s" % exc)
    return tower.default_subspace()


def _build(tower: Tower, R, family: str) -> PdsSet:
    return tower.build_D(R) if family == "primal" else tower.build_D_dual(R)


# -- subcommands --


def cmd_params(args) -> int:
    if args.grid:
        return _emit_grid(args.grid, args)
    tp = _tower_params(args)
    try:
        text = _params_text(tp, args.format)
    except ValueError as exc:  # e.g. a parameter past the int-to-string digit limit
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    _write(text, args.output)
    return EXIT_OK


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


def _params_text(tp: TowerParams, fmt: str) -> str:
    _require_printable(tp)
    q = tp.q
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
            fam: dict(
                zip(("n", "dim", "h1", "h2"), pm.projective_params(q, tp.m, tp.ell, tp.r, fam))
            )
            for fam in ("primal", "dual")
        },
        "code": {
            fam: dict(
                zip(("n", "dim", "w1", "w2"), pm.code_params(q, tp.m, tp.ell, tp.r, fam))
            )
            for fam in ("primal", "dual")
        },
    }
    if fmt == "text":
        lines = [
            "tower p=%d s=%d m=%d ell=%d r=%d (q=%d, v=%d)%s"
            % (tp.p, tp.s, tp.m, tp.ell, tp.r, q, tp.v,
               " [degenerate]" if tp.degenerate else ""),
            "primal         %s" % (primal.as_tuple(),),
            "dual           %s" % (dual.as_tuple(),),
            "complement     %s" % (pm.complement_params(primal).as_tuple(),),
            "delsarte dual  %s" % (pm.delsarte_dual_params(primal).as_tuple(),),
            "spectrum       {%d, %d}" % tp.spectrum_values(),
            "classification %s / %s"
            % (pm.classify_type(primal).describe(), pm.classify_type(dual).describe()),
            "projective     primal %s dual %s"
            % (doc["projective"]["primal"], doc["projective"]["dual"]),
            "code           primal %s dual %s"
            % (doc["code"]["primal"], doc["code"]["dual"]),
        ]
        return "\n".join(lines) + "\n"
    return dumps(doc)


def _parse_range(spec: str, r_max=None) -> list[int]:
    if spec == "all":
        if r_max is None:
            raise ValueError("'all' is only valid for r")
        return list(range(r_max + 1))
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def _emit_grid(grid_args: list[str], args) -> int:
    spec = {}
    for item in grid_args:
        if "=" not in item:
            print("error: grid entries look like key=value", file=sys.stderr)
            return EXIT_USAGE
        key, val = item.split("=", 1)
        spec[key] = val
    try:
        ps = _parse_range(spec.get("p", "2"))
        ss = _parse_range(spec.get("s", "1"))
        ms = _parse_range(spec.get("m", "2"))
        ls = _parse_range(spec.get("l", spec.get("ell", "1")))
        rows = []
        for p in ps:
            for s in ss:
                for m in ms:
                    for ell in ls:
                        rs = (
                            list(range(m + 1))
                            if spec.get("r", "all") == "all"
                            else _parse_range(spec["r"])
                        )
                        for r in rs:
                            tp = TowerParams(p, s, m, ell, r)
                            _require_printable(tp)
                            rows.append(
                                {
                                    "tower": tp.as_dict(),
                                    "primal": tp.primal_params().as_dict(),
                                    "dual": tp.dual_params().as_dict(),
                                    "classification": pm.classify_type(
                                        tp.primal_params()
                                    ).describe(),
                                }
                            )
        if args.format == "text":
            lines = []
            for row in rows:
                t = row["tower"]
                lines.append(
                    "p=%d s=%d m=%d ell=%d r=%d primal=%s dual=%s %s"
                    % (
                        t["p"], t["s"], t["m"], t["ell"], t["r"],
                        tuple(row["primal"].values()),
                        tuple(row["dual"].values()),
                        row["classification"],
                    )
                )
            _write("\n".join(lines) + "\n", args.output)
        else:
            _write(dumps({"rows": rows}), args.output)
        return EXIT_OK
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def cmd_construct(args) -> int:
    tp = _tower_params(args)
    table_cap, _, _ = _caps_from(args)
    tower = Tower(tp, table_cap=table_cap)
    R = _subspace(tower, args)
    pds = _build(tower, R, args.family)
    _write(pds.to_json(tower), args.output)
    print(
        "constructed %s set: k=%d v=%d basis=%s%s"
        % (
            pds.provenance,
            pds.k,
            tp.v,
            [list(row) for row in pds.subspace_rows],
            " [degenerate]" if tp.degenerate else "",
        ),
        file=sys.stderr,
    )
    return EXIT_OK


def _read_set_file(path: str, table_cap: int) -> tuple[Tower, PdsSet, object]:
    """A file that is not a well-formed set file is a usage error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        tower, pds = pds_from_json_dict(doc, table_cap=table_cap)
        R = tower.check_rank(tower.subspace_from_coeff_rows(pds.subspace_rows))
    except KeyError as exc:
        _usage_error("set file %s: missing key %s" % (path, exc))
    except (ValueError, TypeError, NotASubspaceError) as exc:
        _usage_error("set file %s: %s" % (path, exc))
    return tower, pds, R


def _load_or_build(args, table_cap: int) -> tuple[Tower, PdsSet, object]:
    if getattr(args, "set_file", None):
        return _read_set_file(args.set_file, table_cap)
    tp = _tower_params(args)
    tower = Tower(tp, table_cap=table_cap)
    R = _subspace(tower, args)
    return tower, _build(tower, R, args.family), R


def cmd_verify(args) -> int:
    table_cap, caps, _ = _caps_from(args)
    tower, pds, R = _load_or_build(args, table_cap)
    report = vf.verify_pds(pds, tower, R, caps=caps, threads=args.parallel)
    text = report.to_text() if args.format == "text" else report.to_json()
    _write(text, args.output)
    if report.verdict == "INCONCLUSIVE":
        print(
            "resource cap exceeded: none of %s ran" % ", ".join(vf.SUBSTANTIVE_CHECKS),
            file=sys.stderr,
        )
        return EXIT_CAP
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_dual(args) -> int:
    table_cap, caps, _ = _caps_from(args)
    tower, pds, _ = _load_or_build(args, table_cap)
    dual = vf.delsarte_dual(pds, tower.indexer, cap=caps.spectrum)
    _write(dual.to_json(tower), args.output)
    print("delsarte dual: k=%d" % dual.k, file=sys.stderr)
    return EXIT_OK


def cmd_code(args) -> int:
    table_cap, _, enum_cap = _caps_from(args)
    tower, pds, _ = _load_or_build(args, table_cap)
    if pds.provenance not in ("primal", "dual"):
        print("error: code export needs a primal or dual set", file=sys.stderr)
        return EXIT_USAGE
    tp = tower.params
    cd.require_message_cap(tp.q, tp.dim_q, enum_cap)
    ctx = cd.CodingContext(tower)
    S = cd.to_projective_set(pds, ctx)
    gm = cd.build_code(S, ctx)
    # v = q^dim: the enum cap, checked above, also gates the spectrum
    spectrum = vf.character_spectrum(pds, tower.indexer, cap=enum_cap)
    enum = cd.spectral_weight_enumerator(spectrum, gm)
    fam = "primal" if pds.provenance == "primal" else "dual"
    expected = pm.code_params(tp.q, tp.m, tp.ell, tp.r, fam)
    kernel = tp.q ** (gm.dim - gm.rank)
    checks = [
        cd.check_two_weight(enum, expected, kernel),
        cd.check_dictionary(
            vf.expected_params(pds), S.n, expected[2], expected[3], tp.q, tp.dim_q
        ),
    ]
    doc = {
        "tower": tp.as_dict(),
        "family": fam,
        "q": tp.q,
        "n": gm.n,
        "dim": gm.dim,
        "rank": gm.rank,
        "expected_weights": [expected[2], expected[3]],
        "generator_rows": gm.mat,
        "weight_enumerator": {str(w): c for w, c in sorted(enum.items())},
        "checks": [c.as_dict() for c in checks],
        "ok": all(c.passed for c in checks),
    }
    _write(dumps(doc), args.output)
    if args.matrix_out:
        _write("\n".join(gm.row_strings()) + "\n", args.matrix_out)
    return EXIT_OK if doc["ok"] else EXIT_VERIFY


def cmd_geometry(args) -> int:
    table_cap, _, enum_cap = _caps_from(args)
    tower, pds, _ = _load_or_build(args, table_cap)
    if pds.provenance not in ("primal", "dual"):
        print("error: geometry export needs a primal or dual set", file=sys.stderr)
        return EXIT_USAGE
    tp = tower.params
    cd.require_hyperplane_cap(tp.q, tp.dim_q, enum_cap)
    ctx = cd.CodingContext(tower)
    S = cd.to_projective_set(pds, ctx)
    # v = q^dim: the enum cap, checked above, also gates the spectrum
    spectrum = vf.character_spectrum(pds, tower.indexer, cap=enum_cap)
    profile = cd.spectral_hyperplane_profile(spectrum, S)
    fam = "primal" if pds.provenance == "primal" else "dual"
    expected = pm.projective_params(tp.q, tp.m, tp.ell, tp.r, fam)
    check = cd.check_two_intersection(profile, expected)
    doc = {
        "tower": tp.as_dict(),
        "family": fam,
        "q": tp.q,
        "n": S.n,
        "dim": S.dim,
        "expected_sizes": [expected[2], expected[3]],
        "points": RowStrings(S.points),
        "hyperplane_profile": {str(h): c for h, c in sorted(profile.items())},
        "checks": [check.as_dict()],
        "ok": check.passed,
    }
    _write(dumps(doc), args.output)
    return EXIT_OK if check.passed else EXIT_VERIFY


def cmd_export_graph(args) -> int:
    table_cap, caps, _ = _caps_from(args)
    tower, pds, _ = _load_or_build(args, table_cap)
    edges = vf.cayley_edges(pds, tower.indexer, cap=caps.profile)
    v = tower.params.v
    lines = []
    if args.graph_format == "dimacs":
        lines.append("p edge %d %d" % (v, len(edges)))
        lines.extend("e %d %d" % (u + 1, w + 1) for u, w in edges)
    else:
        lines.append("%d %d" % (v, len(edges)))
        lines.extend("%d %d" % (u, w) for u, w in edges)
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    common.add_argument(
        "--subspace-exps",
        help="comma list of generator exponents spanning R (default: 0..r-1)",
    )
    common.add_argument(
        "--subspace-coords",
        help="semicolon-separated GF(p) coefficient rows spanning R",
    )
    common.add_argument("-o", "--output", help="output path (default stdout)")
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument(
        "--parallel", type=int, default=0, help="worker threads for the literal sweeps (0 = off)"
    )
    common.add_argument(
        "--seedless",
        action="store_true",
        help="assert the no-randomness guarantee (always true; informational)",
    )
    for cap in ("table", "profile", "spectrum", "neighbor", "enum"):
        common.add_argument("--%s-cap" % cap, type=int, default=None)

    sp = sub.add_parser("params", parents=[tower], help="closed-form parameter tables")
    sp.add_argument("--grid", nargs="*", help="key=value ranges, e.g. m=2..3 r=all")
    sp.add_argument("-o", "--output")
    sp.add_argument("--format", choices=["json", "text"], default="text")
    sp.set_defaults(func=cmd_params)

    sg = sub.add_parser("grid", help="parameter rows over ranges")
    sg.add_argument("ranges", nargs="+", help="key=value ranges, e.g. p=2 m=2..3 r=all")
    sg.add_argument("-o", "--output")
    sg.add_argument("--format", choices=["json", "text"], default="text")
    sg.set_defaults(func=lambda a: _emit_grid(a.ranges, a))

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
    ap = make_parser()
    args = ap.parse_args(argv)
    if getattr(args, "parallel", 0) < 0:
        print("error: --parallel must be non-negative, got %d" % args.parallel, file=sys.stderr)
        return EXIT_USAGE
    tower_given = getattr(args, "grid", None) or getattr(args, "set_file", None)
    if args.command != "grid" and not tower_given:
        missing = [k for k in ("p", "m", "ell", "r") if getattr(args, k) is None]
        if missing:
            alternative = "--grid" if args.command == "params" else "--set FILE"
            print(
                "error: missing %s (or use %s)" % (", ".join(missing), alternative),
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        return args.func(args)
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
