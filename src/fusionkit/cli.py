"""Command-line surface.

Subcommands: rootdata, weights, tensor, fusion, verify. Output is JSON by
default (``--format tsv`` for line-oriented output) and byte-identical across
repeated invocations. Exit codes: 0 ok, 1 internal error, 2 parse error,
3 precondition violation, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from .cache import DiskCache, resolve_cache_dir
from .errors import CapExceededError, FusionkitError, ParseError, PreconditionError
from .fusion import (
    DEFAULT_FZ_CAP,
    FUSION_BACKENDS,
    FusionTable,
    alcove_dims,
    check_fz_cap,
    fusion_coefficient,
    fusion_coefficient_via_fz,
    fusion_table,
    kac_walton_coefficient,
)
from .multiplicity import weight_diagram
from .repspace import DEFAULT_DIM_CAP, check_dim_cap
from .rootdata import RootSystem, Weight, build_root_system
from .tensor import tensor_decompose


def _integer(text: str) -> int:
    """int(text) for ASCII digits only; int() alone also reads "1_0" as 10 and "٣" as 3."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def parse_weight(text: str, rank: int) -> Weight:
    parts = text.split(",")
    if len(parts) != rank:
        raise ParseError(f"weight {text!r} needs {rank} comma-separated coordinates")
    try:
        return tuple(map(_integer, parts))
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"weight {text!r} has a non-integer coordinate") from exc


def _coords_str(w: Weight) -> str:
    return ",".join(str(c) for c in w)


# a placeholder value; json.dumps writes it as "\u0000", which no document here holds
_SLOT = "\0"


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _check_dims(rs: RootSystem, weights, args) -> None:
    """Apply --max-dim to every input highest weight, before any cache lookup or work."""
    for w in weights:
        check_dim_cap(rs, w, args.max_dim)


def cmd_rootdata(args) -> int:
    rs = build_root_system(args.type)
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


def _emit_weights(rs: RootSystem, counts: dict[Weight, int], args) -> None:
    """Print a weight -> multiplicity map (a diagram or a tensor decomposition)."""
    entries = sorted(counts.items())
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


def cmd_weights(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(args.weights[0], rs.rank)
    _check_dims(rs, [lam], args)
    _emit_weights(rs, weight_diagram(rs, lam).table, args)
    return 0


def cmd_tensor(args) -> int:
    rs = build_root_system(args.type)
    lam, mu = (parse_weight(w, rs.rank) for w in args.weights)
    _check_dims(rs, [lam, mu], args)
    _emit_weights(rs, tensor_decompose(rs, lam, mu).terms, args)
    return 0


# one cell per backend, for the single-triple form
_CELLS = {
    "walton": lambda rs, k, t, args: fusion_coefficient(rs, k, *t, max_dim=args.max_dim),
    "kacwalton": lambda rs, k, t, args: kac_walton_coefficient(rs, k, *t),
    "fz": lambda rs, k, t, args: fusion_coefficient_via_fz(
        rs, k, *t, max_fz_dim=args.max_fz_dim, max_dim=args.max_dim
    ),
}


def _triple_value(rs, k, triple, backend, args) -> int | None:
    """One cell; under --backend all an fz cell over its cap is None (not computed)."""
    try:
        return _CELLS[backend](rs, k, triple, args)
    except CapExceededError:
        if backend == "fz" and args.backend == "all":
            return None
        raise


def _table(rs, k, backend, args) -> FusionTable:
    """A level table; only --backend walton reads and fills the disk cache, so
    --backend all always recomputes its cross-check."""
    cache = DiskCache(resolve_cache_dir(args.cache_dir)) if args.backend == "walton" else None
    table = cache.load_table(rs, k) if cache else None
    if table is None:
        table = fusion_table(rs, k, backend, max_dim=args.max_dim, max_fz_dim=args.max_fz_dim)
        if cache:
            cache.store_table(rs, table)
    return table


def _table_value(table: FusionTable, triple) -> int | None:
    return None if triple[:2] in table.skipped else table.coefficient(*triple)


def _emit_fusion(rs, k, triples, columns, args) -> None:
    """Print the triples with their field columns ({name: one value per triple})."""
    if args.format == "tsv":
        for triple, values in zip(triples, zip(*columns.values())):
            key = "|".join(_coords_str(w) for w in triple)
            print("\t".join([key, *("-" if v is None else str(v).lower() for v in values)]))
        return
    # json.dumps(doc, indent=2, sort_keys=True), with every entry filled into one template:
    # the coordinates are ints, and each other field is one json.dumps of its column of
    # scalars (ints, booleans, null), split at the ", " that separates them
    doc = {"type": str(rs.cartan_type), "level": k, "entries": [_SLOT] if triples else []}
    if "agreement" in columns:
        doc["agreement"] = all(columns["agreement"])
    head, *tail = json.dumps(doc, indent=2, sort_keys=True).split(json.dumps(_SLOT))
    if triples:
        names = sorted(columns)
        shape = {"key": [[_SLOT] * rs.rank] * 3, **dict.fromkeys(names, _SLOT)}
        template = json.dumps(shape, indent=2, sort_keys=True).replace("\n", "\n    ")
        template = template.replace(json.dumps(_SLOT), "%s")
        cut = sum(n < "key" for n in names)
        texts = zip(*(json.dumps(columns[n])[1:-1].split(", ") for n in names))
        head += ",\n    ".join(
            template % (*t[:cut], *itertools.chain.from_iterable(triple), *t[cut:])
            for triple, t in zip(triples, texts)
        )
    print(head + "".join(tail))


def cmd_fusion(args) -> int:
    rs = build_root_system(args.type)
    k = args.level
    triple = tuple(parse_weight(w, rs.rank) for w in args.weights)
    alcove = None if triple else list(alcove_dims(rs, k, args.max_dim))
    _check_dims(rs, triple, args)
    backends = FUSION_BACKENDS if args.backend == "all" else (args.backend,)
    if triple:
        triples = [triple]
        values = {b: [_triple_value(rs, k, triple, b, args)] for b in backends}
    else:
        if args.backend == "fz":
            for lam, mu in itertools.product(alcove, repeat=2):
                check_fz_cap(rs, lam, mu, args.max_fz_dim)
        tables = {b: _table(rs, k, b, args) for b in backends}
        if args.backend == "all":
            triples = list(itertools.product(alcove, repeat=3))
            values = {b: [_table_value(tables[b], t) for t in triples] for b in backends}
        else:  # the nonzero cells, read straight off the table
            cells = sorted(tables[args.backend].coeffs.items())
            triples, values = [t for t, _ in cells], {args.backend: [c for _, c in cells]}
    if args.backend == "all":
        columns = {**values, "agreement": [kw == w and (fz is None or fz == w)
                                          for w, kw, fz in zip(*values.values())]}
    else:
        columns = {"value": values[args.backend]}
    _emit_fusion(rs, k, triples, columns, args)
    return 0


def cmd_verify(args) -> int:
    import inspect  # only verify reads these; a table process loads neither

    from .verify import CLI_SUITES

    run = CLI_SUITES.get(args.suite)
    if run is None:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(CLI_SUITES))}"
        )
    filters = [
        (opt, kw, v)
        for opt, kw, v in (("--type", "restrict_type", args.type),
                           ("--level", "restrict_level", args.level))
        if v is not None
    ]
    takes = inspect.signature(run).parameters
    refused = [opt for opt, kw, _ in filters if kw not in takes]
    if refused:
        raise ParseError(f"verify {args.suite} takes no {' or '.join(refused)}")
    if args.type is not None:
        build_root_system(args.type)  # validate early
    report = run(**{kw: v for _, kw, v in filters})
    if report.checks == 0:
        named = " ".join(f"{opt} {v}" for opt, _, v in filters)
        raise PreconditionError(f"verify {args.suite}: no checks match {named}")
    print(report.summary())
    for failure in report.failures[:10]:
        print(f"  {failure}")
    if len(report.failures) > 10:
        print(f"  ... {len(report.failures) - 10} more")
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    """An integer read as _integer reads it, at least 1."""
    try:
        value = _integer(text)
    except argparse.ArgumentTypeError:
        value = 0  # refused below, in this option's own words
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--max-dim", type=_positive_int, default=DEFAULT_DIM_CAP)
    common.add_argument("--max-fz-dim", type=_positive_int, default=DEFAULT_FZ_CAP)

    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Exact fusion coefficients for affine Kac-Moody algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootdata", parents=[common], help="print Cartan data for a type")
    p.add_argument("type")
    p.set_defaults(func=cmd_rootdata)

    # a weight is comma-separated fundamental coordinates, e.g. 1,0 or -1,0; the weights
    # arrive as leftover positionals, so one that starts with "-" is no option (see main())
    p = sub.add_parser("weights", parents=[common], help="weight diagram of V^lam",
                       usage="%(prog)s type weight [options]")
    p.add_argument("type")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("tensor", parents=[common], help="tensor product decomposition",
                       usage="%(prog)s type left right [options]")
    p.add_argument("type")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("fusion", parents=[common], help="fusion coefficients at a level",
                       usage="%(prog)s type --level K [lam mu nu] [options]")
    p.add_argument("type")
    p.add_argument("--level", type=_integer, required=True)
    p.add_argument(
        "--backend", choices=(*FUSION_BACKENDS, "all"), default="walton"
    )
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--type", dest="type", default=None)
    p.add_argument("--level", type=_integer, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


# how many weights each command takes after its type; the other commands take none
_WEIGHT_COUNTS = {"weights": (1,), "tensor": (2,), "fusion": (0, 3)}

# first match wins: UnsupportedTypeError is a ParseError, InternalError a FusionkitError
_EXIT_CODES = ((ParseError, 2), (PreconditionError, 3), (CapExceededError, 4), (FusionkitError, 1))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "--" in extra:
            extra.remove("--")  # ends the options; what follows it are weights
        counts = _WEIGHT_COUNTS.get(args.command, (0,))
        if any(a.startswith("--") for a in extra) or (extra and counts == (0,)):
            raise ParseError(f"unrecognized arguments: {' '.join(extra)}")
        if len(extra) not in counts:
            raise ParseError(f"{args.command} takes {' or '.join(map(str, counts))} weight(s), "
                             f"got {len(extra)}")
        args.weights = extra
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say `| head`); the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FusionkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
