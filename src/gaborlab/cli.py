"""Command-line entry point.

Every subcommand prints one JSON report to stdout and a one-line summary to
stderr. Exit codes: 0 all checks passed, 1 some check failed, 2 bad usage,
unreadable input or input too large for memory, 3 numerical breakdown (a
spectral split that never separated, or a LAPACK routine that did not
converge). Reports carry no timestamps, so a fixed command line and seed
reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra import SpectralSplitError
from .campaigns import bimodule_report, duality_report, selftest_report
from .duality import gabor_bimodule, verify_bessel_duality
from .gabor import window_from_dict
from .groups import (
    FiniteAbelianGroup,
    covolume,
    enumerate_subgroups,
    group_from_dict,
    lattice_from_dict,
    lattice_to_dict,
)
from .reporting import TOL_SPECTRAL, Report, flag_check, make_check


class UsageError(Exception):
    pass


def _tolerance(text: str) -> float:
    """A --tol value, a finite number >= 0: inf would pass every check and nan
    or a negative value fail every one, whatever they measured."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _load_json_arg(arg: str, what: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"could not read {what} file {arg!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"could not parse {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{what} JSON must be an object")
    return data


def _group(args) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(args.orders))


def _load_lattice(arg: str, group: FiniteAbelianGroup):
    data = _load_json_arg(arg, "lattice")
    if "orders" in data and group_from_dict(data) != group:
        raise UsageError("lattice orders disagree with --orders")
    return lattice_from_dict(data, group)


def _load_window(arg: str, group: FiniteAbelianGroup):
    data = _load_json_arg(arg, "window")
    if "orders" in data and group_from_dict(data) != group:
        raise UsageError("window orders disagree with --orders")
    return window_from_dict(data, group)


def _lattice_entry(lat) -> dict:
    return {
        "generators": lattice_to_dict(lat)["generators"],
        "size": lat.size,
        "covolume": str(covolume(lat)),
        "adjoint_size": lat.adjoint.size,
    }


def _cmd_lattices(args) -> Report:
    group = _group(args)
    lats = enumerate_subgroups(group)
    report = Report(
        command="lattices", parameters={"orders": list(group.orders)}, seed=args.seed
    )
    square = group.size**2
    entries = []
    for li, lat in enumerate(lats):
        entry = _lattice_entry(lat)
        entries.append(entry)
        report.extend(
            [
                make_check(
                    f"lat{li:02d}/size-product", float(lat.size * entry["adjoint_size"]),
                    float(square), 0.0,
                )
            ]
        )
    report.data["lattices"] = entries
    return report


def _cmd_adjoint(args) -> Report:
    group = _group(args)
    lat = _load_lattice(args.lattice, group)
    adj = lat.adjoint
    double = adj.adjoint
    report = Report(
        command="adjoint",
        parameters={"orders": list(group.orders), "lattice": lattice_to_dict(lat)},
        seed=args.seed,
    )
    report.extend(
        [
            make_check(
                "size-product", float(lat.size * adj.size), float(group.size**2), 0.0
            ),
            flag_check(
                "double-adjoint", np.array_equal(double.codes, lat.codes), 0.0, 0.0
            ),
        ]
    )
    report.data["adjoint"] = lattice_to_dict(adj)
    k = len(group.orders)
    report.data["adjoint_elements"] = [[z[:k], z[k:]] for z in adj.rows.tolist()]
    report.data["covolume"] = str(covolume(lat))
    return report


def _cmd_bessel(args) -> Report:
    group = _group(args)
    lat = _load_lattice(args.lattice, group)
    g = _load_window(args.window, group)
    tol = TOL_SPECTRAL if args.tol is None else args.tol
    report = Report(
        command="bessel",
        parameters={
            "orders": list(group.orders),
            "lattice": lattice_to_dict(lat),
            "tol": args.tol,
        },
        seed=args.seed,
    )
    checks = verify_bessel_duality(g[None], lat, tol, bm=gabor_bimodule(lat))
    report.extend(checks)
    sides = {c.name: c for c in checks}
    report.data["bessel_bound"] = sides["right-norm-bessel"].rhs
    report.data["adjoint_bessel_bound"] = sides["bessel-duality"].lhs
    report.data["covolume"] = str(covolume(lat))
    return report


def _cmd_duality(args) -> Report:
    # no trial would leave no window to check
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    group = _group(args)
    # no --lattice means the full sweep, so --all-lattices is just documentation
    lat = _load_lattice(args.lattice, group) if args.lattice is not None else None
    return duality_report(
        group.orders, trials=args.trials, seed=args.seed, tol=args.tol, lattice=lat
    )


def _cmd_bimodule(args) -> Report:
    # no block would leave the fallback scalar instance, no trial a vacuous PASS
    for flag, count in (("--blocks", args.blocks), ("--trials", args.trials)):
        if count < 1:
            raise UsageError(f"{flag} must be at least 1, got {count}")
    return bimodule_report(args.seed, args.blocks, args.trials, args.tol)


def _cmd_selftest(args) -> Report:
    # A1-A4 sweep the orders 2..max_order, so a smaller one would check nothing
    if args.max_order < 2:
        raise UsageError(f"--max-order must be at least 2, got {args.max_order}")
    return selftest_report(max_order=args.max_order, seed=args.seed, tol=args.tol)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborlab",
        description="Verification campaigns for lattice frame duality over finite abelian groups.",
    )
    parser.add_argument("--version", action="version", version=f"gaborlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, orders: bool = True):
        p = sub.add_parser(name, help=help_text)
        if orders:
            p.add_argument("--orders", type=int, nargs="+", required=True,
                           help="cyclic factor orders of the group")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.set_defaults(handler=handler)
        return p

    add("lattices", _cmd_lattices, "enumerate the phase-space lattices of a group")

    p = add("adjoint", _cmd_adjoint, "compute the adjoint of one lattice")
    p.add_argument("--lattice", required=True, help="lattice as inline JSON or a file path")

    p = add("bessel", _cmd_bessel, "Bessel-bound duality for one window on one lattice")
    p.add_argument("--lattice", required=True, help="lattice as inline JSON or a file path")
    p.add_argument("--window", required=True, help="window as a JSON file (or inline)")
    p.add_argument("--tol", type=_tolerance, default=None, help="override every tolerance")

    p = add("duality", _cmd_duality, "full duality campaign for one group")
    p.add_argument("--all-lattices", action="store_true",
                   help="sweep every lattice (the default when --lattice is absent)")
    p.add_argument("--lattice", default=None, help="restrict to one lattice (JSON or path)")
    p.add_argument("--trials", type=int, default=20, help="random windows per lattice")
    p.add_argument("--tol", type=_tolerance, default=None, help="override every tolerance")

    p = add("bimodule", _cmd_bimodule, "norm inequality on a seeded random bimodule", orders=False)
    p.add_argument("--random", action="store_true", required=True,
                   help="build the seeded random instance (the only source)")
    p.add_argument("--blocks", type=int, default=2, help="number of central blocks")
    p.add_argument("--trials", type=int, default=100, help="random vectors to test")
    p.add_argument("--tol", type=_tolerance, default=None, help="override every tolerance")

    p = add("selftest", _cmd_selftest, "run the whole acceptance campaign", orders=False)
    p.add_argument("--max-order", type=int, default=8, help="largest cyclic group order")
    p.add_argument("--tol", type=_tolerance, default=None, help="override every tolerance")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; --help and --version exit 0
        return 0 if exc.code in (0, None) else 2
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"gaborlab: {exc}", file=sys.stderr)
        return 2
    # LinAlgError is a ValueError, so it has to be caught first
    except (SpectralSplitError, np.linalg.LinAlgError) as exc:
        print(f"gaborlab: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"gaborlab: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"gaborlab: input too large for memory: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    print(report.summary_line(), file=sys.stderr)
    return 0 if report.all_passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
