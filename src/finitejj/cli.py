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
Exit codes: 0 success, 1 parameter error, 2 numerical non-convergence; each
class of warning prints one line naming the command's coupling flag.

Each command imports the layers it runs, on top of ``model`` and ``errors``:
the solver commands load the solver layers (``hamiltonian``, ``eigensolve``,
``observables``), which keep operators and vectors in flat double buffers and
open, at the first solve, the LAPACK library that scipy's compiled wrappers
link, through ``ctypes``; no command imports numpy or any part of scipy.
``transmon-shift`` and ``analytic`` add the closed forms (``perturbation``),
``wick-verify`` loads ``wick``, and ``validity`` nothing more.  The
three sweeps share their flags and one handler, ``_cmd_sweep``.  Under
``--window adaptive`` and ``full`` every number is proven on a charge window
(``observables``), so no flag tunes a stopping tolerance.  An artifact that
cannot be written, or a scalar result that is not finite, is a parameter
error naming the flag behind it; so are more ``--steps`` than the operator's
array limit, ``--values`` that do not increase, a ``--materials-file`` that
cannot be read or whose values leave the float range, a window flag the
chosen ``--window`` does not read, and more levels than ``--pairs`` or a
fixed ``--half-width`` holds.
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
    """Integer flag: an integer literal read exactly, else a whole float such as 5e8."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if not (value >= 0 and value % 1 == 0):  # inf % 1 is nan
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(value)


def _positive_count(text: str) -> int:
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _bounded_count(name: str, limit: int, bound: str):
    """A positive integer type up to ``limit``, refused past it as "expected at most ``bound``".

    ``name`` becomes the type's ``__name__``, which argparse's "invalid <name> value" reads.
    """
    def count(text: str) -> int:
        value = _positive_count(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"expected at most {bound}, got {text!r}")
        return value

    count.__name__ = name
    return count


# Total bosons 2N of a charge basis, and grid points of a sweep.
_pairs = _bounded_count("_pairs", MAX_PAIRS_TOTAL, f"2**53 = {MAX_PAIRS_TOTAL}, where charge"
                        " offsets stop being exact in doubles")
_steps = _bounded_count("_steps", ARRAY_LIMIT, f"2**26 = {ARRAY_LIMIT}, the array limit")

# The Fock walk's and the engine's vacuum counts peak at (degree / 2)! for
# b^(degree / 2) b^dag^(degree / 2), which fits a float up to degree 340.
MAX_WICK_DEGREE = 250
_wick_degree = _bounded_count("_wick_degree", MAX_WICK_DEGREE, f"{MAX_WICK_DEGREE}, where the"
                              " vacuum counts stay inside the float range")


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


def _circuit(args, e_j: float, e_c: float, ng_reach: float, diagonal: str) -> CircuitParams:
    """Parameters at n_g = 0 whose operator fits in floats for every |n_g| <= ``ng_reach``.

    An overflow names ``args.coupling`` or the ``diagonal`` flags.
    """
    part = coefficient_overflow(e_j, e_c, args.pairs / 2.0, ng_reach)
    if part is not None:
        flag = args.coupling if part == "coupling" else diagonal
        raise CliError(f"{flag}: the operator's {part} overflows the float range")
    return CircuitParams.from_pairs(args.pairs, e_j=e_j, e_c=e_c)


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
                     help="charge-window policy (default adaptive); adaptive and full prove"
                          " every result on a window, full without a half-width cap")
    sub.add_argument("--half-width", type=_count, default=None,
                     help="half-width for --window fixed")
    sub.add_argument("--w-initial", type=_count, default=None,
                     help="starting half-width for --window adaptive")
    sub.add_argument("--w-max", type=_count, default=None,
                     help=f"half-width cap for --window adaptive (default {DEFAULT_W_MAX})")


def _add_output_flags(sub, default_name):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None,
                     help=f"output path (default {default_name}.<format>)")


# The window flags that each --window policy reads.
_WINDOW_FLAGS = {"adaptive": ("w_initial", "w_max"), "full": (), "fixed": ("half_width",)}


def _policy_from(args) -> WindowPolicy:
    """The window policy of the flags; a window flag the policy does not read is refused."""
    from .observables import WindowPolicy

    for name in ("half_width", "w_initial", "w_max"):
        if getattr(args, name) is not None and name not in _WINDOW_FLAGS[args.window]:
            raise CliError(f"--{name.replace('_', '-')}: --window {args.window} does not read it")
    if args.window == "adaptive":
        if args.w_initial is not None and args.w_initial < 4:
            raise CliError("--w-initial must be at least 4")
        return WindowPolicy.adaptive(w_initial=args.w_initial,
                                     w_max=DEFAULT_W_MAX if args.w_max is None else args.w_max)
    if args.window == "full":
        return WindowPolicy.full()
    if args.half_width is None:
        raise CliError("--window fixed requires --half-width")
    return WindowPolicy.fixed(args.half_width)


def _check_levels(args, levels: int, source: str) -> None:
    """Refuse more levels than the basis or a fixed window holds, naming the flags behind both."""
    limits = [(args.pairs + 1, f"--pairs {args.pairs}")]
    if args.window == "fixed" and args.half_width is not None:
        limits.append((2 * args.half_width + 1, f"--half-width {args.half_width}"))
    for states, flag in limits:
        if levels > states:
            raise CliError(f"{levels} levels ({source}) exceed the {states} charge states"
                           f" of {flag}")


def _check_offsets(offsets, pairs: int, flag: str) -> None:
    """Refuse an offset that the operator's center N + n_g rounds by more than 1e-3 charge."""
    for n_g in offsets:
        if (error := abs(math.fsum([pairs / 2.0 + n_g, -pairs / 2.0, -n_g]))) > 1e-3:
            raise CliError(f"{flag}: at n_g = {n_g:g} the operator's center N + n_g is rounded"
                           f" by {error:g} charge at 2N = {pairs}; such offsets are unresolved")


def _grid_from(args) -> list[float]:
    """``--steps`` points from ``--from`` to ``--to``, bit for bit those of ``np.linspace``."""
    start, stop, div = args.start, args.stop, args.steps - 1
    if div and not start < stop:
        raise CliError("--from must be smaller than --to")
    if not math.isfinite(delta := stop - start):
        raise CliError("--to minus --from overflows the float range")
    if not div:
        return [0.0 * delta + start]
    if delta / div == 0.0:  # a subnormal step: np.linspace scales i / div instead
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * (delta / div) + start for i in range(div)] + [stop]


def _write_artifact(args, default_name, meta: dict, header, rows, body: dict) -> Path:
    """Write one artifact to --output (default ``<default_name>.<format>``).

    CSV: a '# meta {json}' line, the ``header`` row, then ``rows``, whose text
    cells are written as they are, numbers at 17 significant digits and None
    as an empty cell; CRLF after every line.  JSON: the object
    {"meta": meta, **body}, which may hold no NaN or infinity (RFC 8259), so
    one that reaches it raises.  JSON keys are sorted in both.
    """
    path = Path(args.output if args.output is not None else f"{default_name}.{args.format}")
    if args.format == "json":
        text = json.dumps({"meta": meta, **body}, sort_keys=True, allow_nan=False)
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
    """A sweep as one CSV row per point, or {meta, grid, columns} JSON: a flagged NaN is null."""
    header = [table.meta.get("grid_label", "n_g"), *table.column_values]
    flags = table.column_values.get("converged") or [1.0] * len(table.grid_values)
    columns = {name: [None if not flag and math.isnan(v) else v for v, flag in zip(col, flags)]
               for name, col in table.column_values.items()}
    body = {"grid": table.grid_values, "columns": columns}
    return _write_artifact(args, default_name, table.meta, header,
                           zip(table.grid_values, *table.column_values.values()), body)


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
    _check_levels(args, levels, "--levels")
    params = _circuit(args, args.ejec, 1.0, max(abs(args.start), abs(args.stop)), "--from/--to")
    grid = _grid_from(args)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise CliError("--from/--to/--steps: the grid points, rounded to doubles, do not"
                       " strictly increase; use fewer steps or a wider range")
    _check_offsets(grid, args.pairs, "--from/--to")
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
    bad = table.column_values["converged"].count(0.0)
    flagged = f", {bad} unconverged points" if bad else ""
    print(
        f"{name}: {len(grid)} points, 2N={args.pairs}, EJ/EC={args.ejec:g}"
        f"{flagged} -> {path}"
    )
    return 2 if bad else 0


def _cmd_curvature(args):
    from . import observables

    policy = _policy_from(args)
    _check_levels(args, 2 if args.kind == "dispersion" else 1, f"--kind {args.kind}")
    ratios = args.values
    rows = {"curvature": [], "reference": [], "ratio": []}
    fn = getattr(observables, f"{args.kind}_curvature")
    for ratio in ratios:
        params = _circuit(args, ratio, 1.0, 0.0, "--pairs")
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

    params = _circuit(args, args.ej_ghz, args.ec_ghz, abs(args.ng), "--ec-ghz/--ng")
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

    params = _circuit(args, args.ej, args.ec, abs(args.ng), "--ec/--ng").with_ng(args.ng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
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
        except ArithmeticError as exc:  # an overflow or underflow in a closed form
            raise CliError(f"--ej/--ec/--ng: {exc}; a parameter is outside the float"
                           " range") from None
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
    import random

    from . import wick

    rng = random.Random(args.seed)
    deviations, ok = [], True
    for _ in range(args.count):
        poly = wick.OperatorPoly()
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.choices((wick.RAISE, wick.LOWER), k=rng.randint(0, args.degree)))
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            poly = poly + wick.OperatorPoly.from_word(word, coeff)
        engine = wick.vacuum_expectation(poly)
        oracle = wick.fock_oracle(poly, args.degree + 2)
        # Both weigh exact integer counts and sum through math.fsum: a correct engine reads 0.
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
        p.set_defaults(func=_cmd_sweep, coupling="--ejec")

    curv = sub.add_parser("curvature", help="zero-offset curvature vs E_J/E_C")
    curv.add_argument("--kind", choices=("dispersion", "susceptibility"), required=True)
    curv.add_argument("--values", type=_float_list, default=[10.0, 20.0, 50.0, 100.0],
                      help="comma-separated E_J/E_C ratios")
    curv.add_argument("--pairs", type=_pairs, required=True)
    _add_window_flags(curv)
    _add_output_flags(curv, "curvature")
    curv.set_defaults(func=_cmd_curvature, coupling="--values")

    shift = sub.add_parser("transmon-shift", help="windowed numerical frequency shift")
    shift.add_argument("--ej-ghz", type=_positive_float, required=True)
    shift.add_argument("--ec-ghz", type=_positive_float, required=True)
    shift.add_argument("--pairs", type=_pairs, required=True)
    shift.add_argument("--ng", type=_finite_float, required=True)
    _add_window_flags(shift)
    _add_output_flags(shift, "transmon_shift")
    shift.set_defaults(func=_cmd_transmon_shift, coupling="--ej-ghz")

    ana = sub.add_parser("analytic", help="closed-form values for given parameters")
    ana.add_argument("--ej", type=_positive_float, required=True)
    ana.add_argument("--ec", type=_positive_float, required=True)
    ana.add_argument("--pairs", type=_pairs, required=True)
    ana.add_argument("--ng", type=_finite_float, default=0.0)
    _add_output_flags(ana, "analytic")
    ana.set_defaults(func=_cmd_analytic, coupling="--ej")

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
        with warnings.catch_warnings(record=True) as caught:
            try:
                return args.func(args)
            finally:  # the first message of each class
                for message in {w.category: w.message for w in reversed(caught)}.values():
                    print(f"warning: {args.coupling}: {message}", file=sys.stderr)
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
