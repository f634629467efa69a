"""Command-line surface: problem loading, analysis commands, persistence.

Results are JSON documents on stdout; with --out they are also persisted
under out/<command>/<config-hash>.json; a sweep reuses the saved cells of
sweeps whose configuration differs from its own only in --grid. A missing
--rhs is zero forcing. ``--log-level``, before or after the subcommand,
sets the threshold of logging on stderr; ``info`` logs the command's wall
time, which stays out of the JSON. Exit codes: 0 success, 2 precondition
violation, 64 unknown subcommand, 65 malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import fibre as fibre_mod
from . import globalgeo, morin, search
from .core import (Grid, MalformedFileError, MorinodeError, Nonlinearity,
                   PeriodicFn, PreconditionError, FourierAnsatz,
                   ansatz_from_json, ansatz_to_json, load_json, mean,
                   nonlinearity_from_json, power_from_json)
from .odeint import return_map

SCHEMA = "morinode.result/1"

LOG = logging.getLogger("morinode")
LOG_LEVELS = ("debug", "info", "warning", "error")

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_BAD_FILE = 65

# the sweep's count analysis: RK4 step and scan points of each cell's census
SWEEP_STEP = 1e-3
SWEEP_SCAN_N = 201


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _config_hash(command: str, config: dict) -> str:
    blob = json.dumps({"command": command, "config": config}, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(command: str, config: dict, result: dict, out_dir: str | None) -> dict:
    payload = {
        "schema": SCHEMA,
        "command": command,
        "config": _jsonable(config),
        "config_hash": _config_hash(command, _jsonable(config)),
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "result": _jsonable(result),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        path = os.path.join(out_dir, command)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, payload["config_hash"] + ".json"), "w") as fh:
            fh.write(text + "\n")
    return payload


def validate_payload(doc: dict) -> None:
    """Schema check used by the round-trip tests and on reload."""
    for key in ("schema", "command", "config", "config_hash", "result"):
        if key not in doc:
            raise MalformedFileError(f"result document missing field {key!r}")
    if doc["schema"] != SCHEMA:
        raise MalformedFileError(f"unknown schema {doc['schema']!r}")


def _load_nonlinearity(path: str) -> Nonlinearity:
    return nonlinearity_from_json(load_json(path))


def _load_ansatz(path: str) -> FourierAnsatz:
    return ansatz_from_json(load_json(path))


def _rhs_from_file(f: Nonlinearity, path: str, n: int, apply_operator: bool):
    """Load a right-hand side, None without a file (zero forcing);
    optionally build v = u' + f(t,u) from u."""
    if not path:
        return None
    ans = _load_ansatz(path)
    grid = Grid(n)
    if not apply_operator:
        return ans.sample(grid)
    t = grid.nodes
    vals = ans.derivative_eval(t) + np.asarray(f.eval(t, ans.eval(t), 0))
    return PeriodicFn(grid, vals)


def _family_from_json(doc: dict) -> search.ParamFamily:
    try:
        if doc.get("kind") == "quartic_bc":
            return search.ParamFamily.quartic_bc()
        names = doc.get("names", [])
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise ValueError(f"names {names!r} is not a list of strings")
        if len(set(names)) != len(names):
            raise ValueError(f"names {names} repeat a parameter")
        entries = []
        for power, coeff in doc["entries"]:
            ref = isinstance(coeff, dict)
            value = float(coeff.get("scale", 1.0) if ref else coeff)
            if not np.isfinite(value):
                raise ValueError(f"non-finite coefficient of power {power}")
            if ref and coeff["param"] not in names:
                raise ValueError(f"parameter {coeff['param']!r} is not in "
                                 f"names {names}")
            entries.append((power_from_json(power),
                            (coeff["param"], value) if ref else value))
        return search.ParamFamily(tuple(entries), tuple(names))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"bad family document: {exc}") from exc


def _finite_float(text: str) -> float:
    """The float of a number argument; nan, +-inf and non-numbers raise."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _assignment(text: str, names, parse):
    """(NAME, parse(VALUE)) of a ``NAME=VALUE`` argument, NAME in ``names``."""
    name, sep, value = text.partition("=")
    if not sep or name not in names:
        raise PreconditionError(
            f"{text!r}: expected NAME=VALUE with NAME in {list(names)}")
    try:
        return name, parse(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise PreconditionError(f"{text!r}: {exc}") from exc


def _grid_axis(text: str) -> list[float]:
    """The NUM >= 1 evenly spaced values of ``LO:HI:NUM``."""
    lo, hi, num = text.split(":")
    num = int(num)
    if num < 1:
        raise PreconditionError(f"grid axis {text!r} needs NUM >= 1")
    return np.linspace(_finite_float(lo), _finite_float(hi), num).tolist()


def _write_csv(path: str, xs: np.ndarray, gs: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("# x,rho_minus_x\n")
        for x, g in zip(xs, gs):
            fh.write(f"{float(x):.17g},{float(g):.17g}\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_sigma(args):
    f = _load_nonlinearity(args.problem)
    u = _load_ansatz(args.ansatz).sample(Grid(args.grid_n))
    return morin.classify_point(f, u)


def _cmd_classify_operator(args):
    f = _load_nonlinearity(args.problem)
    return globalgeo.classify_operator(f)


def _cmd_fibre(args):
    f = _load_nonlinearity(args.problem)
    vt = _rhs_from_file(f, args.rhs, args.grid_n, args.apply_operator) \
        or PeriodicFn.constant(0.0, Grid(args.grid_n))
    vt = PeriodicFn(vt.grid, vt.values - mean(vt))
    if args.trace is not None:
        lo, hi, count = args.trace
        if not count.is_integer():
            raise PreconditionError(f"--trace COUNT {count!r} is not an integer")
        pairs = fibre_mod.trace_pairs(f, vt, lo, hi, int(count))
        return {"trace": [{"average": a, "phi": fp.phi_bar} for a, fp in pairs],
                "diagnostics": _trace_diagnostics(pairs)}
    if args.average is not None:
        constraint = fibre_mod.Average(args.average)
    elif args.initial is not None:
        constraint = fibre_mod.InitialValue(args.initial)
    else:
        raise PreconditionError("need --initial, --average or --trace")
    fp = fibre_mod.solve_periodic(f, vt, constraint)
    coeffs = FourierAnsatz.from_periodic(fp.u, min(16, fp.u.grid.n // 4))
    return {"nu": fp.nu, "phi_bar": fp.phi_bar, "mean": mean(fp.u),
            "u0": float(fp.u.values[0]), "residual": fp.residual(f),
            "u_coefficients": ansatz_to_json(coeffs),
            "diagnostics": dataclasses.asdict(fp.diagnostics)}


def _trace_diagnostics(pairs):
    """Work summed over a trace's points, and its worst final gaps."""
    diags = [dataclasses.asdict(fp.diagnostics) for _, fp in pairs]
    out = {k: sum(d[k] for d in diags)
           for k in ("flows", "newton_steps", "expansions", "bisections")}
    return dict(out, points=len(diags),
                max_closure_gap=max((d["closure_gap"] for d in diags),
                                    default=None),
                max_mean_gap=max((d["mean_gap"] for d in diags), default=None))


def _cmd_return_map(args):
    f = _load_nonlinearity(args.problem)
    v = _rhs_from_file(f, args.rhs, args.grid_n, args.apply_operator)
    rv = return_map(f, v, args.x0, h=args.step, with_derivative=args.derivative)
    return {"x0": args.x0, **dataclasses.asdict(rv)}


def _cmd_count_solutions(args):
    f = _load_nonlinearity(args.problem)
    v = _rhs_from_file(f, args.rhs, args.grid_n, args.apply_operator)
    census = search.count_solutions(f, v, args.range[0], args.range[1],
                                    scan_n=args.scan_n, h=args.step)
    if args.csv:
        keep = np.isfinite(census.scan_g)
        _write_csv(args.csv, census.scan_xs[keep], census.scan_g[keep])
    return {"count": census.count,
            "degenerate_continuum": census.degenerate_continuum,
            "roots": census.roots,
            "count_at_half_step": census.count_at_half_step,
            "stable_under_halving": census.stable_under_halving,
            "unresolved_brackets": census.unresolved_brackets,
            "csv": args.csv,
            "diagnostics": {"passes": [
                {"h": p.h, "brackets": p.brackets,
                 "refine_flows": p.refine_flows,
                 "flows_per_bracket": p.flows_per_bracket, "work": p.work}
                for p in census.passes]}}


def _cmd_find_singularity(args):
    family = _family_from_json(load_json(args.family))
    ansatz = _load_ansatz(args.seed)
    params = dict(_assignment(kv, family.names, _finite_float)
                  for kv in args.params or [])
    fam_values = np.array([params.get(n, 0.0) for n in family.names])
    problem = search.SearchProblem(
        family=family, ansatz=ansatz, target=np.asarray(args.target),
        family_params=fam_values, frozen=tuple(args.frozen or ()))
    res = search.gauss_newton(problem)
    return {"converged": res.converged, "message": res.message,
            "residual_history": res.residual_history,
            "coefficients": dict(zip(res.names, res.params)),
            "jacobian_svals": res.jacobian_svals,
            "smallest_retained_sval": res.smallest_retained_sval,
            "sigma5": res.sigma5, "diagnostics": res.diagnostics}


def _cmd_hull(args):
    f = _load_nonlinearity(args.problem)
    curve = globalgeo.gamma_curve(f, args.k, args.range[0], args.range[1])
    verdict = globalgeo.hull_origin_test(curve)
    return {"k": args.k, **dataclasses.asdict(verdict),
            "certificate_residual": verdict.diagnostics["certificate_residual"]}


def _cmd_degree(args):
    f = _load_nonlinearity(args.problem)
    return {"degree": globalgeo.degree(f)}


def _cmd_tameness(args):
    f = _load_nonlinearity(args.problem)
    rep = globalgeo.tameness(f)
    return {**dataclasses.asdict(rep), "tame": rep.tame}


def _cmd_reparam(args):
    f = _load_nonlinearity(args.problem)
    u = _load_ansatz(args.ansatz).sample(Grid(args.grid_n))
    direction = (globalgeo.ToSimplified(u) if args.direction == "to"
                 else globalgeo.FromSimplified(u))
    out, tc = globalgeo.reparam(f, direction)
    coeffs = FourierAnsatz.from_periodic(out, min(32, out.grid.n // 4))
    return {"direction": args.direction,
            "result_coefficients": ansatz_to_json(coeffs),
            "time_change_params": tc.params, "diagnostics": tc.diagnostics}


def _cmd_sweep(args):
    family_doc = load_json(args.family)
    family = _family_from_json(family_doc)
    # saved cells are reused for the same family contents, not the same path
    args.family_sha256 = hashlib.sha256(json.dumps(
        family_doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    grid_values = dict(_assignment(spec, family.names, _grid_axis)
                       for spec in args.grid)

    def analysis(f, point):
        if args.analysis == "classify":
            oc = globalgeo.classify_operator(f)
            return {"verdict": oc.verdict}
        census = search.count_solutions(
            f, None, args.range[0], args.range[1], scan_n=SWEEP_SCAN_N,
            h=SWEEP_STEP, check_half_step=False)
        return {"count": census.count}

    config = _jsonable({k: v for k, v in vars(args).items()
                        if k not in ("command", "grid")})
    existing = {}
    if args.out:
        prev = os.path.join(args.out, "sweep")
        if os.path.isdir(prev):
            for fn in sorted(os.listdir(prev)):
                try:
                    with open(os.path.join(prev, fn)) as fh:
                        doc = json.load(fh)
                    validate_payload(doc)
                    if {k: v for k, v in doc["config"].items()
                            if k != "grid"} != config:
                        continue
                    for key, cell in doc["result"]["cells"].items():
                        existing[key] = search.SweepCell(
                            params=cell["params"], result=cell["result"],
                            error=cell.get("error"))
                except (OSError, ValueError, KeyError, MalformedFileError):
                    continue
    table = search.sweep(family, grid_values, analysis, existing=existing)
    cells = {k: {"params": c.params, "result": c.result, "error": c.error}
             for k, c in sorted(table.items())}
    return {"cells": cells}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _global_parser() -> argparse.ArgumentParser:
    """The options outside any subcommand, read wherever they stand."""
    g = argparse.ArgumentParser(prog="morinode", add_help=False,
                                allow_abbrev=False)
    g.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                   help="stderr logging threshold; info logs wall times")
    return g


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="morinode", description=__doc__,
                                parents=[_global_parser()])
    sub = p.add_subparsers(dest="command")

    def common(sp, rhs=False, grid=True):
        sp.add_argument("--problem", required=True, help="nonlinearity JSON file")
        if grid:
            sp.add_argument("--grid-n", type=int, default=1024)
        sp.add_argument("--out", default=None, help="output directory")
        if rhs:
            sp.add_argument("--rhs", default=None, help="right-hand side ansatz JSON")
            sp.add_argument("--apply-operator", action="store_true",
                            help="treat --rhs as u and use v = u' + f(t,u)")

    for name in ("sigma", "classify-point"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--ansatz", required=True)

    sp = sub.add_parser("classify-operator")
    common(sp, grid=False)

    sp = sub.add_parser("fibre")
    common(sp, rhs=True)
    sp.add_argument("--initial", type=_finite_float, default=None)
    sp.add_argument("--average", type=_finite_float, default=None)
    sp.add_argument("--trace", type=_finite_float, nargs=3, default=None,
                    metavar=("LO", "HI", "COUNT"))

    sp = sub.add_parser("return-map")
    common(sp, rhs=True)
    sp.add_argument("--x0", type=_finite_float, required=True)
    sp.add_argument("--step", type=_finite_float, default=1e-3)
    sp.add_argument("--derivative", action="store_true")

    sp = sub.add_parser("count-solutions")
    common(sp, rhs=True)
    sp.add_argument("--range", type=_finite_float, nargs=2, required=True)
    sp.add_argument("--step", type=_finite_float, default=2e-4)
    sp.add_argument("--scan-n", type=int, default=search.SCAN_POINTS)
    sp.add_argument("--csv", default=None, help="write the scan curve here")

    sp = sub.add_parser("find-singularity")
    sp.add_argument("--family", required=True, help="family JSON file")
    sp.add_argument("--seed", required=True, help="seed ansatz JSON")
    sp.add_argument("--target", type=_finite_float, nargs="+", required=True)
    sp.add_argument("--params", nargs="*", default=None, metavar="NAME=VALUE")
    sp.add_argument("--frozen", nargs="*", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("hull")
    common(sp, grid=False)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--range", type=_finite_float, nargs=2,
                    default=(-4.0, 4.0))

    sp = sub.add_parser("degree")
    common(sp, grid=False)

    sp = sub.add_parser("tameness")
    common(sp, grid=False)

    sp = sub.add_parser("reparam")
    common(sp)
    sp.add_argument("--ansatz", required=True)
    sp.add_argument("--direction", choices=("to", "from"), required=True)

    sp = sub.add_parser("sweep")
    sp.add_argument("--family", required=True)
    sp.add_argument("--grid", nargs="+", required=True,
                    metavar="NAME=LO:HI:NUM")
    sp.add_argument("--analysis", choices=("classify", "count"),
                    default="classify")
    sp.add_argument("--range", type=_finite_float, nargs=2, default=(-2.0, 2.0))
    sp.add_argument("--out", default=None)
    return p


_HANDLERS = {
    "sigma": _cmd_sigma,
    "classify-point": _cmd_sigma,
    "classify-operator": _cmd_classify_operator,
    "fibre": _cmd_fibre,
    "return-map": _cmd_return_map,
    "count-solutions": _cmd_count_solutions,
    "find-singularity": _cmd_find_singularity,
    "hull": _cmd_hull,
    "degree": _cmd_degree,
    "tameness": _cmd_tameness,
    "reparam": _cmd_reparam,
    "sweep": _cmd_sweep,
}


def execute(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        options, argv = _global_parser().parse_known_args(argv)
    except SystemExit:
        return EXIT_PRECONDITION
    # the handler writes to the sys.stderr of this call, and goes with it
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("morinode: %(levelname)s: %(message)s"))
    level = LOG.level
    LOG.addHandler(handler)
    LOG.setLevel(options.log_level.upper())
    try:
        return _execute(argv)
    finally:
        LOG.removeHandler(handler)
        LOG.setLevel(level)


def _execute(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        _build_parser().print_help()
        return EXIT_OK
    if argv[0] not in _HANDLERS:
        sys.stderr.write(f"morinode: unknown subcommand {argv[0]!r}\n")
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code else EXIT_OK
    del args.log_level  # read by execute; not part of the configuration
    start = time.perf_counter()
    try:
        result = _HANDLERS[args.command](args)
    except MalformedFileError as exc:
        sys.stderr.write(f"morinode: malformed input: {exc}\n")
        return EXIT_BAD_FILE
    except PreconditionError as exc:
        sys.stderr.write(f"morinode: precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except MorinodeError as exc:
        sys.stderr.write(f"morinode: {exc}\n")
        return EXIT_PRECONDITION
    LOG.info("%s took %.3f s", args.command, time.perf_counter() - start)
    # read after the handler, which may add what it loaded (a sweep's
    # family digest)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    _emit(args.command, config, result, getattr(args, "out", None))
    return EXIT_OK


def main() -> None:
    sys.exit(execute(sys.argv[1:]))
