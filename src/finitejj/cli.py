"""Command-line front end: every worked number and figure table as an artifact.

Subcommands:

    bands           lowest bands vs offset charge (band-structure tables)
    imbalance       ground-state <n> vs offset charge (staircase)
    susceptibility  d<n>/dn_g vs offset charge
    curvature       zero-offset curvature vs E_J/E_C (dispersion or susceptibility)
    transmon-shift  windowed numerical frequency shift for a physical transmon
    analytic        closed-form gap/susceptibility/level-spacing values
    validity        minimum island size and device scales for a material
    wick-verify     random-polynomial check of the normal-ordering engine

Outputs are CSV (RFC-4180 body, '#'-prefixed meta lines, 17 significant
digits) or JSON; identical configurations produce byte-identical files.  The
CLI is the only artifact writer: ``_write_artifact`` holds the whole format,
and the library layers return values and tables without writing files.
Exit codes: 0 success, 1 parameter error, 2 numerical non-convergence.

Each command imports the layers it runs, on top of ``model`` and ``errors``:
the solver commands load numpy with the array layers (``hamiltonian``,
``eigensolve``, ``observables``) and scipy's compiled LAPACK wrappers at the
first solve, without ever loading the ``scipy.linalg`` package;
``transmon-shift`` and ``analytic`` add the closed forms (``perturbation``),
``wick-verify`` loads ``wick`` and numpy, and ``validity`` nothing more.  The
three sweeps share their flags and one handler, ``_cmd_sweep``.  An artifact
that cannot be written, or a scalar result that is not finite, is a parameter
error naming the flag behind it; so are more ``--steps`` than the operator's
array limit, ``--values`` that do not increase, and a ``--materials-file``
that cannot be read or whose values leave the float range.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

from .errors import CapacityError, ConvergenceError
from .model import (
    ARRAY_LIMIT,
    DEFAULT_GATE_CAPACITANCE,
    DEFAULT_W_MAX,
    DEFAULT_WINDOW_RTOL,
    MATERIAL_PRESETS,
    MAX_PAIRS_TOTAL,
    CircuitParams,
    coefficient_overflow,
    load_materials,
    validity_min_pairs,
)


class CliError(Exception):
    """Parameter-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -12 and -1.5 for values; -1e3 and -1.5E+1 are numbers too.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # keep exit-code contract out of argparse's hands
        raise CliError(message)


def _count(text: str) -> int:
    """Integer flag accepting scientific notation (counts can be ~1e8)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0 and value == int(value)):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(value)


def _positive_count(text: str) -> int:
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _pairs(text: str) -> int:
    """Total bosons 2N of a charge basis: a positive integer up to 2**53."""
    value = _positive_count(text)
    if value > MAX_PAIRS_TOTAL:
        raise argparse.ArgumentTypeError(
            f"expected at most 2**53 = {MAX_PAIRS_TOTAL}, where charge offsets stop being"
            f" exact in doubles, got {text!r}"
        )
    return value


def _steps(text: str) -> int:
    """Grid points of a sweep: a positive integer up to the operator's array limit."""
    value = _positive_count(text)
    if value > ARRAY_LIMIT:
        raise argparse.ArgumentTypeError(f"expected at most 2**26 = {ARRAY_LIMIT}, the array"
                                         f" limit, got {text!r}")
    return value


# The Fock oracle's matrices have dim degree + 2, and a word's entries there
# reach (degree + 1)^(degree / 2) for (b b^dag)^(degree / 2): past the float
# range from degree 256 on.  The engine's vacuum counts, at most (degree / 2)!,
# fit a float up to degree 340.
MAX_WICK_DEGREE = 250


def _wick_degree(text: str) -> int:
    value = _positive_count(text)
    if value > MAX_WICK_DEGREE:
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_WICK_DEGREE}, where the Fock oracle stays inside the"
            f" float range, got {text!r}"
        )
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _circuit(pairs: int, e_j: float, e_c: float, ng_reach: float, flags: dict) -> CircuitParams:
    """Parameters at n_g = 0 whose operator fits in floats for every |n_g| <= ``ng_reach``.

    ``flags`` names the flags behind the "diagonal" and the "coupling".
    """
    part = coefficient_overflow(e_j, e_c, pairs / 2.0, ng_reach)
    if part is not None:
        raise CliError(f"{flags[part]}: the operator's {part} overflows the float range")
    return CircuitParams.from_pairs(pairs, e_j=e_j, e_c=e_c)


def _float_list(text: str) -> list[float]:
    """Comma-separated positive finite numbers: at least one, strictly increasing."""
    try:
        values = [_positive_float(piece) for piece in text.split(",") if piece.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive finite numbers, got {text!r}"
        ) from exc
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"expected at least one value, strictly increasing,"
                                         f" got {text!r}")
    return values


def _add_window_flags(sub):
    sub.add_argument("--window", choices=("full", "fixed", "adaptive"), default="adaptive",
                     help="charge-window policy (default adaptive); adaptive and full"
                          " prove eigenvalues on a certified window")
    sub.add_argument("--half-width", type=_count, default=None,
                     help="half-width for --window fixed")
    sub.add_argument("--w-initial", type=_count, default=None,
                     help="starting half-width for --window adaptive")
    sub.add_argument("--w-max", type=_count, default=DEFAULT_W_MAX,
                     help="half-width cap for --window adaptive")
    sub.add_argument("--window-rtol", type=_positive_float, default=DEFAULT_WINDOW_RTOL,
                     help="relative settling tolerance of <n>, chi and the curvatures"
                          " for --window adaptive")


def _add_output_flags(sub, default_name):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None,
                     help=f"output path (default {default_name}.<format>)")


def _policy_from(args) -> WindowPolicy:
    """The window policy of the flags."""
    from .observables import WindowPolicy

    if args.window == "adaptive":
        if args.w_initial is not None and args.w_initial < 4:
            raise CliError("--w-initial must be at least 4")
        return WindowPolicy.adaptive(rtol=args.window_rtol, w_initial=args.w_initial,
                                     w_max=args.w_max)
    if args.window == "full":
        return WindowPolicy.full()
    if args.half_width is None:
        raise CliError("--window fixed requires --half-width")
    return WindowPolicy.fixed(args.half_width)


def _check_offsets(offsets, pairs: int, flag: str) -> None:
    """Refuse an offset that the operator's center N + n_g rounds by more than 1e-3 charge."""
    for n_g in offsets:
        if (error := abs(math.fsum([pairs / 2.0 + n_g, -pairs / 2.0, -n_g]))) > 1e-3:
            raise CliError(f"{flag}: at n_g = {n_g:g} the operator's center N + n_g is rounded"
                           f" by {error:g} charge at 2N = {pairs}; such offsets are unresolved")


def _grid_from(args) -> np.ndarray:
    import numpy as np

    if args.steps > 1 and not args.start < args.stop:
        raise CliError("--from must be smaller than --to")
    if not math.isfinite(args.stop - args.start):
        raise CliError("--to minus --from overflows the float range")
    return np.linspace(args.start, args.stop, args.steps)


def _write_artifact(args, default_name, meta: dict, header, rows, body: dict) -> Path:
    """Write one artifact to --output (default ``<default_name>.<format>``).

    CSV: a '# meta {json}' line, the ``header`` row, then ``rows``, whose text
    cells are written as they are, numbers at 17 significant digits and None
    as an empty cell; CRLF after every line.  JSON: the object
    {"meta": meta, **body}.  JSON keys are sorted in both.
    """
    path = Path(args.output if args.output is not None else f"{default_name}.{args.format}")
    if args.format == "json":
        text = json.dumps({"meta": meta, **body}, sort_keys=True)
    else:
        def cell(value):
            if value is None:
                return ""
            return value if isinstance(value, str) else format(value, ".17g")

        lines = [f"# meta {json.dumps(meta, sort_keys=True)}", ",".join(header)]
        lines += [",".join(map(cell, row)) for row in rows]
        text = "\r\n".join(lines) + "\r\n"
    try:
        path.write_text(text, newline="")
    except OSError as exc:
        raise CliError(f"--output: cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _write_table(table: SweepTable, args, default_name) -> Path:
    """A sweep as one CSV row per grid point, or a {meta, grid, columns} JSON object."""
    header = [table.meta.get("grid_label", "n_g"), *table.columns]
    body = {"grid": table.grid.tolist(),
            "columns": {name: col.tolist() for name, col in table.columns.items()}}
    return _write_artifact(args, default_name, table.meta, header,
                           zip(table.grid, *table.columns.values()), body)


def _write_scalars(results: dict, meta: dict, args, default_name, flags: dict) -> Path:
    """Scalar results as a two-column CSV or a {meta, results} JSON object.

    A non-finite result is refused before anything is written, naming the
    flags its value comes from (``flags``, by result).
    """
    for key, value in results.items():
        if value is not None and not math.isfinite(value):
            raise CliError(f"{flags[key]}: {key} = {value} is not finite; a parameter is"
                           " outside the float range")
    rows = [(key, results[key]) for key in sorted(results)]
    return _write_artifact(args, default_name, meta, ["quantity", "value"], rows,
                           {"results": results})


def _cmd_sweep(args):
    """``bands``, ``imbalance`` or ``susceptibility``, by ``args.command``."""
    from . import observables

    name = args.command
    levels = getattr(args, "levels", 1)
    if args.window == "fixed" and args.half_width is not None:
        states = 2 * args.half_width + 1
        if levels > states:
            raise CliError(f"--levels {levels} exceeds the {states} charge states of"
                           f" --half-width {args.half_width}")
    params = _circuit(args.pairs, args.ejec, 1.0, max(abs(args.start), abs(args.stop)),
                      {"coupling": "--ejec", "diagonal": "--from/--to"})
    grid = _grid_from(args)
    _check_offsets(grid.tolist(), args.pairs, "--from/--to")
    table = observables.band_sweep(
        params,
        grid,
        levels=levels,
        policy=_policy_from(args),
        include_imbalance=name == "imbalance",
        include_susceptibility=name == "susceptibility",
        subtract_ground=getattr(args, "subtract_e0", False),
    )
    path = _write_table(table, args, name)
    bad = int((table.columns["converged"] == 0.0).sum())
    flagged = f", {bad} unconverged points" if bad else ""
    print(
        f"{name}: {table.grid.size} points, 2N={args.pairs}, EJ/EC={args.ejec:g}"
        f"{flagged} -> {path}"
    )
    return 2 if bad else 0


def _cmd_curvature(args):
    from . import observables

    policy = _policy_from(args)
    ratios = args.values
    rows = {"curvature": [], "reference": [], "ratio": []}
    fn = getattr(observables, f"{args.kind}_curvature")
    for ratio in ratios:
        params = _circuit(args.pairs, ratio, 1.0, 0.0,
                          {"coupling": "--values", "diagonal": "--pairs"})
        result = fn(params, policy)
        rows["curvature"].append(result.value)
        rows["reference"].append(result.reference)
        rows["ratio"].append(result.ratio)
    table = observables.SweepTable(
        grid=ratios,
        columns=rows,
        meta={
            "grid_label": "ejec",
            "kind": args.kind,
            "pairs_total": args.pairs,
            "window_mode": policy.mode,
        },
    )
    path = _write_table(table, args, "curvature")
    print(
        f"curvature ({args.kind}): 2N={args.pairs}, EJ/EC scan of {len(ratios)} values"
        f" -> {path}"
    )
    return 0


def _cmd_transmon_shift(args):
    from . import observables, perturbation

    params = _circuit(args.pairs, args.ej_ghz, args.ec_ghz, abs(args.ng),
                      {"coupling": "--ej-ghz", "diagonal": "--ec-ghz/--ng"})
    _check_offsets([args.ng], args.pairs, "--ng")
    policy = _policy_from(args)
    w0 = observables.qubit_frequency(params, policy)
    w1 = observables.qubit_frequency(params.with_ng(args.ng), policy)
    shift_ghz = w1 - w0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        analytic_ghz = perturbation.transmon_frequency(
            params.with_ng(args.ng)
        ) - perturbation.transmon_frequency(params)
    meta = {
        "ej_ghz": args.ej_ghz,
        "ec_ghz": args.ec_ghz,
        "pairs_total": args.pairs,
        "n_g": args.ng,
        "window_mode": policy.mode,
    }
    results = {
        "frequency_at_ng_ghz": w1,
        "frequency_at_zero_ghz": w0,
        "shift_numeric_khz": shift_ghz * 1e6,
        "shift_analytic_khz": analytic_ghz * 1e6,
    }
    path = _write_scalars(results, meta, args, "transmon_shift",
                          dict.fromkeys(results, "--ej-ghz/--ec-ghz/--ng"))
    print(
        f"transmon-shift: numeric {shift_ghz * 1e6:+.4f} kHz, analytic "
        f"{analytic_ghz * 1e6:+.4f} kHz (EJ={args.ej_ghz:g} GHz, EC={args.ec_ghz:g} GHz, "
        f"2N={args.pairs:g}, ng={args.ng:g}) -> {path}"
    )
    return 0


def _cmd_analytic(args):
    from . import perturbation

    params = _circuit(args.pairs, args.ej, args.ec, abs(args.ng),
                      {"coupling": "--ej", "diagonal": "--ec/--ng"}).with_ng(args.ng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            coeffs = perturbation.bogoliubov(params)
        except ZeroDivisionError:
            raise CliError(f"--ej: at E_J = {args.ej:g} the Bogoliubov denominator"
                           " sqrt(4 N eps E_J) underflows to zero") from None
        results = {
            "level_spacing": coeffs.epsilon,
            "bogoliubov_u_plus": coeffs.u_plus,
            "bogoliubov_u_minus": coeffs.u_minus,
            "bogoliubov_u_0": coeffs.u_0,
            "transmon_frequency": perturbation.transmon_frequency(params),
            "transmon_susceptibility": perturbation.transmon_susceptibility(params),
        }
        try:
            results["cpb_gap"] = perturbation.cpb_gap(params)
            results["cpb_susceptibility"] = perturbation.cpb_susceptibility(params)
        except ValueError:
            results["cpb_gap"] = None
            results["cpb_susceptibility"] = None
    meta = {"e_j": args.ej, "e_c": args.ec, "pairs_total": args.pairs, "n_g": args.ng}
    path = _write_scalars(results, meta, args, "analytic",
                          dict.fromkeys(results, "--ej/--ec/--ng"))
    gap_note = (
        "n_g is not a degeneracy point; charge-regime formulas skipped"
        if results["cpb_gap"] is None
        else f"cpb gap {results['cpb_gap']:.6g}"
    )
    print(
        f"analytic: level spacing {coeffs.epsilon:.6g}, transmon frequency "
        f"{results['transmon_frequency']:.6g}, {gap_note} -> {path}"
    )
    return 0


def _cmd_validity(args):
    catalog = MATERIAL_PRESETS
    if args.materials_file is not None:
        try:
            catalog = load_materials(args.materials_file)
        except (OSError, ValueError) as exc:
            raise CliError(f"--materials-file: {exc}") from None
    if args.material not in catalog:
        raise CliError(
            f"--material {args.material!r} not found (known: {', '.join(sorted(catalog))})"
        )
    n_half = None if args.pairs is None else args.pairs / 2.0
    try:
        report = validity_min_pairs(catalog[args.material], n_half=n_half, n_g=args.ng,
                                    c_g=args.cg_farad)
    except (ArithmeticError, ValueError) as exc:  # the presets stay inside the float range
        raise CliError(f"--materials-file: {args.material!r} leaves the float range: {exc}"
                       ) from None
    results = {
        "n_min": report.n_min,
        "cooper_density_per_m3": report.cooper_density,
        "island_volume_um3": None
        if report.island_volume is None
        else report.island_volume / 1e-18,
        "gate_voltage_v": report.gate_voltage,
    }
    meta = {
        "material": args.material,
        "pairs_total": args.pairs,
        "n_g": args.ng,
        "gate_capacitance_f": args.cg_farad,
    }
    path = _write_scalars(results, meta, args, "validity", {
        "n_min": "--materials-file", "cooper_density_per_m3": "--materials-file",
        "island_volume_um3": "--pairs/--materials-file", "gate_voltage_v": "--cg-farad"})
    print(
        f"validity ({args.material}): N_min = {report.n_min:.4g}, "
        f"n_s = {report.cooper_density:.4g} m^-3 -> {path}"
    )
    return 0


def _cmd_wick_verify(args):
    import numpy as np

    from . import wick

    rng = np.random.default_rng(args.seed)
    deviations, ok = [], True
    for _ in range(args.count):
        poly = wick.OperatorPoly()
        n_words = int(rng.integers(1, 6))
        for _ in range(n_words):
            length = int(rng.integers(0, args.degree + 1))
            word = tuple(rng.choice([wick.RAISE, wick.LOWER], size=length))
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            poly = poly + wick.OperatorPoly.from_word(word, coeff)
        engine = wick.vacuum_expectation(poly)
        oracle = wick.fock_oracle(poly, args.degree + 2)
        # The engine's value is exact; the float Fock oracle rounds in proportion to it.
        deviations.append(abs(engine - oracle))
        ok = ok and deviations[-1] <= args.rtol * max(1.0, abs(engine))
    worst = max(deviations)
    results = {"polynomials": float(args.count), "max_abs_deviation": worst,
               "tolerance": args.rtol}
    meta = {"seed": args.seed, "degree": args.degree, "count": args.count}
    path = _write_scalars(results, meta, args, "wick_verify", dict.fromkeys(results, "--degree"))
    print(
        f"wick-verify: {args.count} polynomials, max |engine - oracle| = {worst:.3e} "
        f"({'ok' if ok else 'FAILED'}: each within {args.rtol:g} x max(1, |engine|)) -> {path}"
    )
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finitejj",
        description="Finite-island Josephson junction: spectra, observables, worked numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("bands", "lowest bands vs offset charge"),
        ("imbalance", "ground-state <n> vs offset charge"),
        ("susceptibility", "d<n>/dn_g vs offset charge"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--pairs", type=_pairs, required=True, help="total bosons 2N")
        p.add_argument("--ejec", type=_positive_float, required=True,
                       help="E_J/E_C ratio (E_C = 1)")
        p.add_argument("--from", dest="start", type=_finite_float, required=True)
        p.add_argument("--to", dest="stop", type=_finite_float, required=True)
        p.add_argument("--steps", type=_steps, required=True)
        if name == "bands":
            p.add_argument("--levels", type=_positive_count, default=3)
            p.add_argument("--subtract-e0", action="store_true",
                           help="report bands relative to the ground level")
        _add_window_flags(p)
        _add_output_flags(p, name)
        p.set_defaults(func=_cmd_sweep)

    curv = sub.add_parser("curvature", help="zero-offset curvature vs E_J/E_C")
    curv.add_argument("--kind", choices=("dispersion", "susceptibility"), required=True)
    curv.add_argument("--values", type=_float_list, default=[10.0, 20.0, 50.0, 100.0],
                      help="comma-separated E_J/E_C ratios")
    curv.add_argument("--pairs", type=_pairs, required=True)
    _add_window_flags(curv)
    _add_output_flags(curv, "curvature")
    curv.set_defaults(func=_cmd_curvature)

    shift = sub.add_parser("transmon-shift", help="windowed numerical frequency shift")
    shift.add_argument("--ej-ghz", type=_positive_float, required=True)
    shift.add_argument("--ec-ghz", type=_positive_float, required=True)
    shift.add_argument("--pairs", type=_pairs, required=True)
    shift.add_argument("--ng", type=_finite_float, required=True)
    _add_window_flags(shift)
    _add_output_flags(shift, "transmon_shift")
    shift.set_defaults(func=_cmd_transmon_shift)

    ana = sub.add_parser("analytic", help="closed-form values for given parameters")
    ana.add_argument("--ej", type=_positive_float, required=True)
    ana.add_argument("--ec", type=_positive_float, required=True)
    ana.add_argument("--pairs", type=_pairs, required=True)
    ana.add_argument("--ng", type=_finite_float, default=0.0)
    _add_output_flags(ana, "analytic")
    ana.set_defaults(func=_cmd_analytic)

    val = sub.add_parser("validity", help="minimum island size for a material")
    val.add_argument("--material", default="aluminum")
    val.add_argument("--materials-file", default=None,
                     help="key-value preset file to read instead of the built-ins")
    val.add_argument("--pairs", type=_positive_count, default=None,
                     help="total bosons 2N, fills in the island volume")
    val.add_argument("--ng", type=_finite_float, default=None, help="fills in the gate voltage")
    val.add_argument("--cg-farad", type=_positive_float, default=DEFAULT_GATE_CAPACITANCE,
                     help="gate capacitance in farads (default 2e per millivolt)")
    _add_output_flags(val, "validity")
    val.set_defaults(func=_cmd_validity)

    wv = sub.add_parser("wick-verify", help="random-polynomial oracle suite")
    wv.add_argument("--count", type=_positive_count, default=200)
    wv.add_argument("--degree", type=_wick_degree, default=6,
                    help=f"longest word (at most {MAX_WICK_DEGREE})")
    wv.add_argument("--seed", type=_count, default=20240901)
    wv.add_argument("--rtol", type=_positive_float, default=1e-9,
                    help="each |engine - oracle| must be at most rtol * max(1, |engine|)")
    _add_output_flags(wv, "wick_verify")
    wv.set_defaults(func=_cmd_wick_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:  # an operator past the 2**26-state limit
        flag = {"full": "--window full", "fixed": "--half-width"}.get(
            getattr(args, "window", None), "--w-max/--w-initial")
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # overflow or underflow in a closed form
        print(f"error: {exc}; a parameter is outside the float range", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
