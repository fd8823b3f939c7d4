"""Command-line surface.

Subcommands: rootdata, weights, tensor, fusion, verify. Output is JSON by
default (``--format tsv`` for line-oriented output) and byte-identical across
repeated invocations. Exit codes: 0 ok, 1 internal error, 2 parse error,
3 precondition violation, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .cache import DiskCache, resolve_cache_dir
from .errors import CapExceededError, FusionkitError, ParseError, PreconditionError
from .fusion import (
    DEFAULT_FZ_CAP,
    FusionTable,
    fusion_coefficient,
    fusion_coefficient_via_fz,
    fusion_table,
    kac_walton_coefficient,
    level_alcove,
)
from .multiplicity import weight_diagram
from .repspace import DEFAULT_DIM_CAP
from .rootdata import DEFAULT_WEYL_CAP, RootSystem, Weight, build_root_system
from .tensor import tensor_decompose
from .verify import CLI_SUITES


def parse_weight(text: str, rank: int) -> Weight:
    parts = text.split(",")
    if len(parts) != rank:
        raise ParseError(f"weight {text!r} needs {rank} comma-separated coordinates")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"weight {text!r} has a non-integer coordinate") from exc


def _coords_str(w: Weight) -> str:
    return ",".join(str(c) for c in w)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _root_system(args) -> RootSystem:
    return build_root_system(args.type, max_weyl_order=args.max_weyl)


def cmd_rootdata(args) -> int:
    rs = _root_system(args)
    doc = {
        "type": str(rs.cartan_type),
        "cartan_matrix": [list(row) for row in rs.cartan_matrix],
        "theta": list(rs.theta),
        "marks": list(rs.marks),
        "comarks": list(rs.comarks),
        "rho": list(rs.rho),
        "dual_coxeter": rs.dual_coxeter,
        "weyl_order": rs.weyl_order,
    }
    if args.format == "tsv":
        print(f"type\t{doc['type']}")
        print("cartan_matrix\t" + ";".join(_coords_str(row) for row in rs.cartan_matrix))
        for field in ("theta", "marks", "comarks", "rho"):
            print(f"{field}\t{_coords_str(doc[field])}")
        print(f"dual_coxeter\t{rs.dual_coxeter}")
        print(f"weyl_order\t{rs.weyl_order}")
    else:
        _emit(doc)
    return 0


def cmd_weights(args) -> int:
    rs = _root_system(args)
    lam = parse_weight(args.weight, rs.rank)
    cache = DiskCache(resolve_cache_dir(args.cache_dir))
    diagram = cache.load_diagram(rs, lam)
    if diagram is None:
        diagram = weight_diagram(rs, lam)
        cache.store_diagram(rs, diagram)
    entries = sorted(diagram.table.items())
    if args.format == "tsv":
        for w, m in entries:
            print(f"{_coords_str(w)}\t{m}")
    else:
        _emit(
            {
                "type": str(rs.cartan_type),
                "entries": [{"key": list(w), "value": m} for w, m in entries],
            }
        )
    return 0


def cmd_tensor(args) -> int:
    rs = _root_system(args)
    lam = parse_weight(args.left, rs.rank)
    mu = parse_weight(args.right, rs.rank)
    terms = tensor_decompose(rs, lam, mu).terms
    entries = sorted(terms.items())
    if args.format == "tsv":
        for w, m in entries:
            print(f"{_coords_str(w)}\t{m}")
    else:
        _emit(
            {
                "type": str(rs.cartan_type),
                "entries": [{"key": list(w), "value": m} for w, m in entries],
            }
        )
    return 0


def _backends_cell(rs, k, lam, mu, nu, args):
    walton = fusion_coefficient(rs, k, lam, mu, nu, max_dim=args.max_dim)
    kacwalton = kac_walton_coefficient(rs, k, lam, mu, nu)
    try:
        fz = fusion_coefficient_via_fz(
            rs, k, lam, mu, nu, max_fz_dim=args.max_fz_dim, max_dim=args.max_dim
        )
    except CapExceededError:
        fz = None
    agree = kacwalton == walton and (fz is None or fz == walton)
    return walton, kacwalton, fz, agree


def _table_cells(type_str: str, k: int, pairs, max_dim: int):
    """Worker for --jobs: compute all cells for the given (lam, mu) pairs."""
    rs = build_root_system(type_str)
    alcove = level_alcove(rs, k)
    out = []
    for lam, mu in pairs:
        for nu in alcove:
            c = fusion_coefficient(rs, k, lam, mu, nu, max_dim=max_dim)
            if c:
                out.append(((lam, mu, nu), c))
    return out


def _assemble_table(rs, k, args) -> FusionTable:
    if args.jobs > 1:
        alcove = level_alcove(rs, k)
        pairs = [(lam, mu) for lam in alcove for mu in alcove]
        chunks = [pairs[i :: args.jobs] for i in range(args.jobs)]
        coeffs = {}
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_table_cells, str(rs.cartan_type), k, chunk, args.max_dim)
                for chunk in chunks
                if chunk
            ]
            for fut in futures:
                coeffs.update(dict(fut.result()))
        return FusionTable(
            cartan_type=str(rs.cartan_type), level=k, alcove=tuple(alcove), coeffs=coeffs
        )
    return fusion_table(rs, k, max_dim=args.max_dim)


def cmd_fusion(args) -> int:
    rs = _root_system(args)
    k = args.level
    if k is None:
        raise ParseError("fusion requires --level")
    if args.triple:
        lam, mu, nu = (parse_weight(t, rs.rank) for t in args.triple)
        if args.backend == "all":
            walton, kacwalton, fz, agree = _backends_cell(rs, k, lam, mu, nu, args)
            entry = {
                "key": [list(lam), list(mu), list(nu)],
                "walton": walton,
                "kacwalton": kacwalton,
                "fz": fz,
                "agreement": agree,
            }
            if args.format == "tsv":
                key = "|".join(_coords_str(w) for w in (lam, mu, nu))
                fz_text = "-" if fz is None else str(fz)
                print(f"{key}\t{walton}\t{kacwalton}\t{fz_text}\t{str(agree).lower()}")
            else:
                _emit(
                    {
                        "type": str(rs.cartan_type),
                        "level": k,
                        "agreement": agree,
                        "entries": [entry],
                    }
                )
            return 0
        value = _single_backend(rs, k, lam, mu, nu, args)
        if args.format == "tsv":
            key = "|".join(_coords_str(w) for w in (lam, mu, nu))
            print(f"{key}\t{value}")
        else:
            _emit(
                {
                    "type": str(rs.cartan_type),
                    "level": k,
                    "entries": [{"key": [list(lam), list(mu), list(nu)], "value": value}],
                }
            )
        return 0

    if args.backend == "all":
        alcove = level_alcove(rs, k)
        entries = []
        all_agree = True
        for lam in alcove:
            for mu in alcove:
                for nu in alcove:
                    walton, kacwalton, fz, agree = _backends_cell(rs, k, lam, mu, nu, args)
                    all_agree = all_agree and agree
                    entries.append(
                        {
                            "key": [list(lam), list(mu), list(nu)],
                            "walton": walton,
                            "kacwalton": kacwalton,
                            "fz": fz,
                            "agreement": agree,
                        }
                    )
        if args.format == "tsv":
            for entry in entries:
                key = "|".join(_coords_str(w) for w in entry["key"])
                fz_text = "-" if entry["fz"] is None else str(entry["fz"])
                print(
                    f"{key}\t{entry['walton']}\t{entry['kacwalton']}\t{fz_text}"
                    f"\t{str(entry['agreement']).lower()}"
                )
        else:
            _emit(
                {
                    "type": str(rs.cartan_type),
                    "level": k,
                    "agreement": all_agree,
                    "entries": entries,
                }
            )
        return 0

    cache = DiskCache(resolve_cache_dir(args.cache_dir))
    table = None
    if args.backend == "walton":
        table = cache.load_table(rs, k)
    if table is None:
        if args.backend == "walton":
            table = _assemble_table(rs, k, args)
            cache.store_table(rs, table)
        else:
            alcove = level_alcove(rs, k)
            coeffs = {}
            for lam in alcove:
                for mu in alcove:
                    for nu in alcove:
                        c = _single_backend(rs, k, lam, mu, nu, args)
                        if c:
                            coeffs[(lam, mu, nu)] = c
            table = FusionTable(
                cartan_type=str(rs.cartan_type), level=k, alcove=tuple(alcove), coeffs=coeffs
            )
    entries = sorted(table.coeffs.items())
    if args.format == "tsv":
        for triple, c in entries:
            print("|".join(_coords_str(w) for w in triple) + f"\t{c}")
    else:
        _emit(
            {
                "type": str(rs.cartan_type),
                "level": k,
                "entries": [
                    {"key": [list(w) for w in triple], "value": c} for triple, c in entries
                ],
            }
        )
    return 0


def _single_backend(rs, k, lam, mu, nu, args) -> int:
    if args.backend == "walton":
        return fusion_coefficient(rs, k, lam, mu, nu, max_dim=args.max_dim)
    if args.backend == "kacwalton":
        return kac_walton_coefficient(rs, k, lam, mu, nu)
    if args.backend == "fz":
        return fusion_coefficient_via_fz(
            rs, k, lam, mu, nu, max_fz_dim=args.max_fz_dim, max_dim=args.max_dim
        )
    raise ParseError(f"unknown backend {args.backend!r}")


def cmd_verify(args) -> int:
    suite = CLI_SUITES.get(args.suite)
    if suite is None:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(CLI_SUITES))}"
        )
    if args.type is not None:
        build_root_system(args.type, max_weyl_order=args.max_weyl)  # validate early
    report = suite(cartan=args.type, level=args.level)
    print(report.summary())
    for failure in report.failures[:10]:
        print(f"  {failure}")
    if len(report.failures) > 10:
        print(f"  ... {len(report.failures) - 10} more")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--max-dim", type=int, default=DEFAULT_DIM_CAP)
    common.add_argument("--max-weyl", type=int, default=DEFAULT_WEYL_CAP)
    common.add_argument("--max-fz-dim", type=int, default=DEFAULT_FZ_CAP)
    common.add_argument("--jobs", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Exact fusion coefficients for affine Kac-Moody algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootdata", parents=[common], help="print Cartan data for a type")
    p.add_argument("type")
    p.set_defaults(func=cmd_rootdata)

    p = sub.add_parser("weights", parents=[common], help="weight diagram of V^lam")
    p.add_argument("type")
    p.add_argument("weight", help="comma-separated fundamental coordinates, e.g. 1,0")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("tensor", parents=[common], help="tensor product decomposition")
    p.add_argument("type")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("fusion", parents=[common], help="fusion coefficients at a level")
    p.add_argument("type")
    p.add_argument("--level", type=int, required=True)
    p.add_argument(
        "--backend", choices=("walton", "kacwalton", "fz", "all"), default="walton"
    )
    # lam mu nu weights arrive as leftover positionals; see main()
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--type", dest="type", default=None)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.jobs < 1:
            raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "fusion":
            if extra[:1] == ["--"]:
                extra = extra[1:]
            if extra and len(extra) != 3:
                raise ParseError("fusion takes either no weights or exactly lam mu nu")
            args.triple = extra
        elif extra:
            raise ParseError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FusionkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
