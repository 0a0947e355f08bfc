"""Command-line front end.

Verbs: ``analyze`` (full JSON dependence report), ``copula`` (copula pmf
as CSV), ``couple`` (attach margins to a copula), ``family`` (generate a
parametric copula pmf), ``grid`` (density grid of an infinite-support
copula), ``plot`` (confetti SVG / heat-map PPM).

Exit codes: 0 success, 2 infeasible margins (class C), 1 any input error.
``--input -`` reads standard input.  Numeric output carries 17
significant digits unless ``--pretty`` asks for display rounding.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from tabcop import families, infinite, pmf_core, scaling, viz
from tabcop.bernoulli import bernoulli_copula
from tabcop.dependence import odds_ratio_matrix, yule_upsilon
from tabcop.errors import InfeasibleError, TabcopError, ValidationError
from tabcop.pmf_core import JointPmf, MarginPair


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pmf(path: str, fmt: str) -> JointPmf:
    matrix = pmf_core.parse_table(_read_text(path), f"csv_{fmt}")
    if fmt == "counts":
        return pmf_core.from_counts(matrix)
    return JointPmf(matrix)


def _emit(payload, out_path: str | None):
    if isinstance(payload, bytes):
        if out_path:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    else:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)


def _csv(matrix: np.ndarray, pretty: bool) -> str:
    fmt = "{:.6g}" if pretty else "{:.17g}"
    return "\n".join(
        ",".join(fmt.format(v) for v in row) for row in np.asarray(matrix)
    ) + "\n"


def _grid_text(matrix: np.ndarray, pretty: bool) -> str:
    fmt = "{:.6g}" if pretty else "{:.17g}"
    return "\n".join(
        " ".join(fmt.format(v) for v in row) for row in np.asarray(matrix)
    ) + "\n"


def _jsonable(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _round_floats(value, digits=6):
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, list):
        return [_round_floats(v, digits) for v in value]
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    return value


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ValidationError(f"--shape expects RxS such as 3x4, got {text!r}") from None


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValidationError(f"expected a comma-separated vector, got {text!r}") from None


def _cmd_analyze(args) -> int:
    p = _load_pmf(args.input, args.format)
    pair = pmf_core.margins(p)
    omega = odds_ratio_matrix(p)
    cop = None
    try:
        cop, diag = scaling.copula_pmf(p, tol=args.tol, max_iter=args.max_iter)
        classification = diag.classification
    except InfeasibleError as exc:
        classification = exc.classification
    report = {
        "pmf": _jsonable(p.values),
        "margins": {
            "rows": _jsonable(pair.row_margins),
            "cols": _jsonable(pair.col_margins),
        },
        "omega_matrix": _jsonable(omega.entries),
        "classification": {
            "class": classification.tag,
            "forced_zeros": [list(c) for c in classification.forced_zero_cells],
            "tight_rectangles": [
                [list(r), list(c)] for r, c in classification.tight_rectangles
            ],
        },
        "copula_pmf": None,
        "upsilon": None,
        "diagnostics": None,
    }
    exit_code = 0
    if cop is None:
        exit_code = 2
        print("infeasible: no copula pmf exists for this support", file=sys.stderr)
    else:
        report["copula_pmf"] = _jsonable(cop.values)
        report["upsilon"] = _jsonable(yule_upsilon(cop))
        report["diagnostics"] = _jsonable(diag.to_wire())
    payload = report if not args.pretty else _round_floats(report)
    _emit(json.dumps(payload, indent=2 if args.pretty else None) + "\n", args.out)
    return exit_code


def _cmd_copula(args) -> int:
    p = _load_pmf(args.input, args.format)
    cop, _diag = scaling.copula_pmf(p, tol=args.tol, max_iter=args.max_iter)
    _emit(_csv(cop.values, args.pretty), args.out)
    return 0


def _cmd_couple(args) -> int:
    cop = _load_pmf(args.copula, "probs")
    pair = MarginPair(_parse_vector(args.row_margins), _parse_vector(args.col_margins))
    coupled, _diag = scaling.couple(cop, pair, tol=args.tol, max_iter=args.max_iter)
    _emit(_csv(coupled.values, args.pretty), args.out)
    return 0


def _require(value, flag: str, verb: str):
    if value is None:
        raise ValidationError(f"{verb} requires {flag}")
    return value


def _cmd_family(args) -> int:
    name = args.name
    if name == "bernoulli":
        cop = bernoulli_copula(_require(args.omega, "--omega", name))
    elif name == "binomial":
        cop = families.binomial_copula(
            _require(args.n, "--N", name), _require(args.omega, "--omega", name),
            tol=args.tol,
        )
    elif name == "geometric":
        cop = families.truncated_geometric_copula(
            _require(args.n, "--N", name), _require(args.omega, "--omega", name),
            tol=args.tol,
        )
    elif name == "goodman":
        rows, cols = _parse_shape(_require(args.shape, "--shape", name))
        cop = families.goodman_copula(
            rows, cols, _require(args.theta, "--theta", name), tol=args.tol
        )
    elif name == "fgm":
        rows, cols = _parse_shape(_require(args.shape, "--shape", name))
        cop = families.fgm_pmf(_require(args.theta, "--theta", name), rows, cols)
    else:
        rows, cols = _parse_shape(_require(args.shape, "--shape", name))
        params = {}
        if name in ("clayton", "gumbel", "frank"):
            params["theta"] = _require(args.theta, "--theta", name)
        elif name in ("gaussian", "student"):
            params["rho"] = _require(args.rho, "--rho", name)
            if name == "student":
                params["df"] = _require(args.df, "--df", name)
        elif name != "independence":
            raise ValidationError(f"unknown family {name!r}")
        cop = families.discretize_copula(
            families.ContinuousCopulaSpec(name, params), rows, cols
        )
    _emit(_csv(cop.values, args.pretty), args.out)
    return 0


def _cmd_grid(args) -> int:
    n = _require(args.n, "--N", "grid")
    omega = _require(args.omega, "--omega", "grid")
    if args.name == "poisson":
        grid = infinite.poisson_copula_grid(omega, n, eps=args.epsilon, tol=args.tol)
    elif args.name == "geometric":
        grid = infinite.geometric_copula_grid(omega, n, tol=args.tol)
    else:
        raise ValidationError(f"unknown grid family {args.name!r}")
    _emit(_grid_text(grid.heights, args.pretty), args.out)
    return 0


def _cmd_plot(args) -> int:
    if args.kind == "confetti":
        p = _load_pmf(_require(args.input, "--input", "plot"), args.format)
        opts = viz.ConfettiOptions(
            cell_size=args.cell_size,
            show_margins=not args.no_margins,
            dot_area_scale=args.dot_scale,
        )
        _emit(viz.confetti_svg(p, opts), args.out)
    else:
        text = _read_text(_require(args.grid, "--grid", "plot"))
        rows = [
            [float(v) for v in line.split()]
            for line in text.strip().splitlines() if line.strip()
        ]
        grid = infinite.DensityGrid(np.array(rows))
        _emit(viz.heatmap_ppm(grid, gamma=args.gamma), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabcop",
        description="Dependence analysis for two-way probability tables.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp, input_table=False):
        if input_table:
            sp.add_argument("--input", required=True,
                            help="table CSV path, or - for stdin")
            sp.add_argument("--format", choices=("counts", "probs"),
                            default="counts")
        sp.add_argument("--tol", type=float, default=scaling.DEFAULT_TOL)
        sp.add_argument("--max-iter", type=int, default=scaling.DEFAULT_MAX_ITER,
                        dest="max_iter",
                        help="sweep budget of a fit (default: %(default)s); "
                             "fits whose sweeps slow down finish with Newton "
                             "steps long before it")
        sp.add_argument("--out", default=None)
        sp.add_argument("--pretty", action="store_true")

    sp = sub.add_parser("analyze", help="emit a JSON dependence report")
    add_common(sp, input_table=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("copula", help="emit the copula pmf as CSV")
    add_common(sp, input_table=True)
    sp.set_defaults(func=_cmd_copula)

    sp = sub.add_parser("couple", help="attach margins to a copula pmf")
    sp.add_argument("--copula", required=True, help="copula pmf CSV path")
    sp.add_argument("--row-margins", required=True, dest="row_margins")
    sp.add_argument("--col-margins", required=True, dest="col_margins")
    add_common(sp)
    sp.set_defaults(func=_cmd_couple)

    sp = sub.add_parser("family", help="generate a parametric copula pmf")
    sp.add_argument("--name", required=True, choices=(
        "bernoulli", "binomial", "geometric", "goodman", "fgm",
        "independence", "clayton", "gumbel", "frank", "gaussian", "student",
    ))
    sp.add_argument("--shape", default=None, help="RxS, e.g. 3x3")
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--omega", type=_omega_value, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--df", type=float, default=None)
    sp.add_argument("--N", type=int, default=None, dest="n",
                    help="size parameter (binomial n, geometric N)")
    add_common(sp)
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("grid", help="emit a copula density grid")
    sp.add_argument("--name", required=True, choices=("poisson", "geometric"))
    sp.add_argument("--omega", type=_omega_value, default=None)
    sp.add_argument("--N", type=int, default=None, dest="n")
    sp.add_argument("--epsilon", type=float, default=1e-6)
    add_common(sp)
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("plot", help="render SVG confetti or PPM heat map")
    sp.add_argument("--kind", choices=("confetti", "heatmap"), default="confetti")
    sp.add_argument("--input", default=None, help="pmf CSV for confetti")
    sp.add_argument("--format", choices=("counts", "probs"), default="probs")
    sp.add_argument("--grid", default=None, help="grid text file for heatmap")
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--cell-size", type=float, default=48.0, dest="cell_size")
    sp.add_argument("--dot-scale", type=float, default=1.0, dest="dot_scale")
    sp.add_argument("--no-margins", action="store_true", dest="no_margins")
    sp.add_argument("--out", default=None)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=_cmd_plot)
    return parser


def _omega_value(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def run(argv) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (TabcopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
