"""One benchmark workload in one fresh process: set-up, timed phase, gate.

``run.py`` starts this file; it is not meant to be started by hand. The
process prints ``SETUP <monotonic clock>`` as soon as imports, input
generation and warm-up are done, and, unless ``--setup-only`` is given,
``RESULT <json>`` after the timed phase and the correctness gate.

Workloads (seed 0 is the acceptance configuration; other seeds change only
the generated inputs):

- census: the README's six-root census through ``cli.execute``. Scalar RK4
  bisection and the ``PeriodicFn`` forcing dominate; never enters ``morin``
  or the simplex.
- fibre: a 20-point ``Average`` trace of x^3 - x over a*cos(2 pi t + phi)
  plus three ``InitialValue`` solves on a square-wave forcing (257 kept
  harmonics). Scalar RK4 only; no batched RK4, census or simplex.
- geometry: butterfly relocation (Gauss-Newton, ``classify_point``,
  ``contact_order``), the cusp reparametrization round trip, and a 4x4
  classify sweep through the CLI. Narrow batched RK4, many one-point
  ``PeriodicFn.eval`` calls, and the simplex.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import morinode  # noqa: E402
from morinode import (cli, fibre, globalgeo, morin, odeint,  # noqa: E402
                      search)
from morinode.core import (FourierAnsatz, Grid, Nonlinearity,  # noqa: E402
                           PeriodicFn, mean)

TWO_PI = 2.0 * math.pi

# published butterfly of the quartic family x^4 - 4x^2 - 0.3x
BUTTERFLY_B, BUTTERFLY_C = 4.0, -0.3
BUTTERFLY = {"a0": -0.01173378, "a1": -0.8836063, "a2": 0.2428734,
             "b2": -0.6855379, "a3": 0.4465347, "b3": 0.1853376,
             "a4": -0.01881213, "b4": 0.2105862}
# nearby u whose right-hand side u' + f(u) has six periodic solutions
SIX_ROOT = {"a0": -0.011367708203969, "a1": -0.883600656945802,
            "a2": 0.243308077825844, "a3": 0.446085678376277,
            "a4": -0.018458472190807, "b2": -0.685621717642052,
            "b3": 0.185481811055651, "b4": 0.210509692732880}
# the six census roots at h = 2e-4, recorded with seed 0; every seed's
# window contains the same roots
CENSUS_REFERENCE = (-0.2857740528210999, -0.24999272045493126,
                    -0.2240230583995581, -0.19705842982232574,
                    -0.12101675792364405, 0.1189331861208193)


def _ansatz_json(coeffs: dict) -> dict:
    return {"a0": coeffs["a0"],
            "cos": [coeffs.get(f"a{j}", 0.0) for j in range(1, 5)],
            "sin": [coeffs.get(f"b{j}", 0.0) for j in range(1, 5)]}


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.execute(argv)
    return code, buf.getvalue()


_REF_T = np.arange(256) / 256.0
_REF_HARMONICS = np.arange(128)
_REF_TABLEAU = np.linspace(0.0, 1.0, 256 * 260).reshape(256, 260)


def reference_job() -> float:
    """Seconds taken by a fixed job that shares no code with morinode.

    It mixes what the workloads spend their time on: a scalar RK4 loop in
    plain Python floats, a complex outer product in numpy, and simplex-style
    pivots made of many small numpy row updates.
    """
    start = time.perf_counter()
    u, h = 0.3, 1e-3
    for k in range(16000):
        c = 0.05 * (k & 7)
        k1 = c - u * (u * u - 1.0)
        y = u + 0.5 * h * k1
        k2 = c - y * (y * y - 1.0)
        y = u + 0.5 * h * k2
        k3 = c - y * (y * y - 1.0)
        y = u + h * k3
        k4 = c - y * (y * y - 1.0)
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    np.exp(2j * math.pi * np.outer(_REF_T, _REF_HARMONICS)).sum(axis=1)
    T = _REF_TABLEAU.copy()
    for i in range(3):
        T[i] /= T[i, i + 1]
        for r in range(len(T)):
            if r != i:
                T[r] -= T[r, i + 1] * T[i]
    return time.perf_counter() - start


class SpeedProbe:
    """Runs ``reference_job`` from a timer signal while a timed phase runs.

    The CPU speed of a shared machine drifts by tens of percent within
    minutes. The mean reference-job time over the phase measures the speed
    the phase saw, so wall time divided by it compares runs made at
    different speeds. ``clock`` leaves the probe's own time out of the
    phase's wall time.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None):
        seconds = reference_job()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def mean(self) -> float:
        return statistics.fmean(self.samples)


class Op:
    """Outcome of one checked operation."""

    def __init__(self, name: str, ok: bool, detail: str):
        self.name, self.ok, self.detail = name, ok, detail


def _attempt(fn):
    """(result, None) or (None, 'ExceptionType: message')."""
    try:
        return fn(), None
    except Exception as exc:  # a raising operation is a counted failure
        return None, f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""

    def __init__(self):
        self.request = lambda label: None   # replaced by the traced run
        self.clock = time.perf_counter      # replaced while a probe runs

    def run(self) -> tuple[dict, object]:
        """Timed phase: ({metric: seconds}, outputs for the gate)."""
        raise NotImplementedError

    def check(self, out) -> tuple[list[Op], dict]:
        """Gate: per-operation outcomes and recorded figures."""
        raise NotImplementedError


class Census(Workload):
    name = "census"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        lo, hi = -0.4, 0.4
        if seed:
            lo += rng.uniform(-0.02, 0.02)
            hi += rng.uniform(-0.02, 0.02)
        problem = _write_json(workdir / "quartic.json", {"terms": [
            {"power": 4, "a0": 1.0}, {"power": 2, "a0": -BUTTERFLY_B},
            {"power": 1, "a0": BUTTERFLY_C}]})
        rhs = _write_json(workdir / "u.json", _ansatz_json(SIX_ROOT))
        self.h = 2e-4
        self.argv = ["count-solutions", "--problem", problem, "--rhs", rhs,
                     "--apply-operator", "--range", repr(lo), repr(hi),
                     "--step", repr(self.h)]
        self.reference = CENSUS_REFERENCE
        # the gate re-closes roots through the forcing exactly as the CLI
        # builds it
        self.f = cli._load_nonlinearity(problem)
        self.v = cli._rhs_from_file(self.f, rhs, 1024, True)
        code, _ = _cli(["return-map", "--problem", problem, "--rhs", rhs,
                        "--apply-operator", "--x0", "0.0", "--step", "1e-2"])
        if code != 0:
            raise RuntimeError("census warm-up failed")

    def run(self):
        self.request("census")
        start = self.clock()
        out = _attempt(lambda: _cli(self.argv))
        return {"wall_s": self.clock() - start}, out

    def check(self, out):
        (code_text, error) = out
        if error:
            return [Op("census", False, error)], {}
        code, text = code_text
        if code != 0:
            return [Op("census", False, f"exit code {code}")], {}
        res = json.loads(text)["result"]
        xs = sorted(r["x"] for r in res["roots"])
        problems = []
        if res["count"] != 6 or res["count_at_half_step"] != 6:
            problems.append(f"counts {res['count']}/{res['count_at_half_step']}")
        reclose = max((abs(odeint.return_map(self.f, self.v, x, h=self.h).value
                           - x) for x in xs), default=math.inf)
        if not reclose <= 1e-8:
            problems.append(f"re-close {reclose:.2e}")
        if len(xs) == 6:
            if not xs[5] - xs[4] > 0.2:
                problems.append(f"separation {xs[5] - xs[4]:.3f}")
            off = max(abs(a - b) for a, b in zip(xs, self.reference))
            if not off <= 1e-10:
                problems.append(f"roots off reference by {off:.2e}")
        return ([Op("census", not problems, "; ".join(problems) or "ok")],
                {"census.reclose": reclose})


class Fibre(Workload):
    name = "fibre"
    SQUARE_STARTS = (-0.5, 0.0, 0.5)
    TRACE_POINTS = 20

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        amp, phase, lo, hi, roll = 0.4, 0.0, -1.2, 1.2, 0
        if seed:
            amp = rng.uniform(0.3, 0.5)
            # a phase shift only moves the orbits in time, but the solvers'
            # iteration counts follow u(0): keep it small so every seed does
            # about the same work
            phase = rng.uniform(-0.2, 0.2)
            lo += rng.uniform(-0.05, 0.05)
            hi += rng.uniform(-0.05, 0.05)
            roll = rng.randrange(1024)
        self.f = Nonlinearity.polynomial([0, -1, 0, 1])
        self.lo, self.hi = lo, hi
        self.smooth = PeriodicFn.from_callable(
            lambda t: amp * np.cos(TWO_PI * t + phase))
        t = Grid().nodes
        self.square = PeriodicFn(Grid(), np.roll(np.where(t < 0.5, 0.3, -0.3),
                                                 roll))
        # warm-up: one coarse flow through each forcing
        for v in (self.smooth, self.square):
            odeint.return_map(self.f, v, 0.0, h=1e-2)

    def run(self):
        start = self.clock()
        self.request("trace")
        trace = _attempt(lambda: fibre.trace_points(
            self.f, self.smooth, self.lo, self.hi, self.TRACE_POINTS))
        rough = []
        for c in self.SQUARE_STARTS:
            self.request(f"square c={c}")
            rough.append((c, _attempt(lambda: fibre.solve_periodic(
                self.f, self.square, fibre.InitialValue(c)))))
        wall = self.clock() - start
        points = self.TRACE_POINTS + len(self.SQUARE_STARTS)
        return {"wall_s": wall, "fibre_point_s": wall / points}, (trace, rough)

    def check(self, out):
        (pts, error), rough = out
        ops = []
        if error:
            ops += [Op(f"trace[{i}]", False, error)
                    for i in range(self.TRACE_POINTS)]
        else:
            u0s = [float(fp.u.values[0]) for fp in pts]
            means = [mean(fp.u) for fp in pts]
            monotone = bool(np.all(np.diff(u0s) > 0)
                            and np.all(np.diff(means) > 0))
            for i, fp in enumerate(pts):
                res = fp.residual(self.f)
                ok = res <= 1e-9 and monotone
                ops.append(Op(f"trace[{i}]", ok,
                              f"residual {res:.2e}, monotone {monotone}"))
        worst_spectral = 0.0
        for c, (fp, error) in rough:
            if error:
                ops.append(Op(f"square c={c}", False, error))
                continue
            nu = fp.nu
            traj = odeint.integrate(self.f,
                                    lambda t: self.square.eval(t) + nu,
                                    c, h=1.0 / self.square.grid.n)
            gap = abs(traj.final() - c)
            # the spectral residual of a rough forcing is recorded, not
            # gated: Gibbs ringing keeps it near 2.6e-3 at this commit
            worst_spectral = max(worst_spectral, fp.residual(self.f))
            ops.append(Op(f"square c={c}", gap <= 1e-8, f"closure {gap:.2e}"))
        return ops, {"fibre.rough_residual": worst_spectral}


class Geometry(Workload):
    name = "geometry"
    SWEEP_SIDE = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        names = ("b", "c", "a0", "a1", "a2", "a3", "a4", "b2", "b3", "b4")
        offset = {n: (1e-3 if seed == 0 else rng.choice((-1e-3, 1e-3)))
                  for n in names}
        start = {n: BUTTERFLY[n] + offset[n] for n in names[2:]}
        start["b1"] = 0.0
        self.relocation = search.SearchProblem(
            family=search.ParamFamily.quartic_bc(),
            ansatz=FourierAnsatz(start["a0"],
                                 np.array([start[f"a{j}"] for j in range(1, 5)]),
                                 np.array([start[f"b{j}"] for j in range(1, 5)])),
            target=np.zeros(4), residual_tol=1e-13,
            family_params=np.array([BUTTERFLY_B + offset["b"],
                                    BUTTERFLY_C + offset["c"]]))

        # the cusp of x^3 - x that the round trip starts from (acceptance 5f)
        cusp_seed = np.array([0.2, 0.5, 0.1])
        if seed:
            cusp_seed += np.array([rng.uniform(-0.02, 0.02) for _ in range(3)])
        self.cubic = Nonlinearity.polynomial([0, -1, 0, 1])
        cusp = search.SearchProblem(
            family=search.ParamFamily.fixed(self.cubic),
            ansatz=FourierAnsatz(cusp_seed[0], cusp_seed[1:], np.zeros(2)),
            target=np.zeros(2), residual_tol=1e-12)
        found = search.gauss_newton(cusp)
        if not found.converged:
            raise RuntimeError(f"cusp not located: {found.message}")
        self.cusp = cusp.unpack(found.params)[1].sample(Grid(1024))

        ends = [3.5, 4.5, -0.5, 0.4]
        if seed:
            ends = [e + rng.uniform(-0.1, 0.1) for e in ends]
        n = self.SWEEP_SIDE
        family = _write_json(workdir / "family.json", {"kind": "quartic_bc"})
        self.sweep_argv = ["sweep", "--family", family, "--grid",
                           f"b={ends[0]!r}:{ends[1]!r}:{n}",
                           f"c={ends[2]!r}:{ends[3]!r}:{n}",
                           "--analysis", "classify"]
        self.recheck_cell = 0 if seed == 0 else rng.randrange(n * n)

        # warm-up: one functional evaluation and one CLI round trip
        self.relocation.sigma_at(self.relocation.pack())
        code, _ = _cli(["degree", "--problem", _write_json(
            workdir / "cubic.json", {"terms": [{"power": 3, "a0": 1.0},
                                               {"power": 1, "a0": -1.0}]})])
        if code != 0:
            raise RuntimeError("geometry warm-up failed")

    def _locate(self):
        res = search.gauss_newton(self.relocation)
        fam, ans = self.relocation.unpack(res.params)
        f = self.relocation.family.build(fam)
        rep = morin.classify_point(f, ans.sample(Grid(2048)))

        def rhs(t):
            return ans.derivative_eval(t) + np.asarray(f.eval(t, ans.eval(t), 0))

        con = odeint.contact_order(f, rhs, float(ans.eval(0.0)), kmax=4, h=2e-4)
        return res, rep, con

    def _round_trip(self):
        v, _ = globalgeo.reparam(self.cubic, globalgeo.ToSimplified(self.cusp))
        back, _ = globalgeo.reparam(self.cubic, globalgeo.FromSimplified(v))
        return v, back

    def run(self):
        t0 = self.clock()
        self.request("locate")
        locate = _attempt(self._locate)
        t1 = self.clock()
        self.request("reparam")
        trip = _attempt(self._round_trip)
        t2 = self.clock()
        self.request("sweep")
        sweep = _attempt(lambda: _cli(self.sweep_argv))
        t3 = self.clock()
        return ({"wall_s": t3 - t0, "locate_s": t1 - t0, "reparam_s": t2 - t1,
                 "sweep_cell_s": (t3 - t2) / self.SWEEP_SIDE ** 2},
                (locate, trip, sweep))

    def check(self, out):
        (located, err_loc), (trip, err_trip), (swept, err_sweep) = out
        ops = []
        if err_loc:
            ops += [Op(n, False, err_loc)
                    for n in ("relocate", "classify_point", "contact_order")]
        else:
            res, rep, con = located
            resid = res.residual_history[-1]
            ops.append(Op("relocate", res.converged and resid <= 1e-10
                          and res.smallest_retained_sval > 1e-6
                          and abs(res.sigma5) > 1e-6,
                          f"residual {resid:.2e}, smallest sval "
                          f"{res.smallest_retained_sval:.3f}, sigma5 "
                          f"{res.sigma5:.3f}"))
            ops.append(Op("classify_point", rep.order.kind == "morin"
                          and rep.order.k == 4,
                          f"order {rep.order}"))
            ops.append(Op("contact_order", con.order == 4,
                          f"contact order {con.order}"))
        if err_trip:
            ops.append(Op("reparam", False, err_trip))
        else:
            v, back = trip
            roundtrip = float(np.max(np.abs(back.values - self.cusp.values)))
            transfer = float(np.max(np.abs(morin.sigma_hat(self.cubic, v, 2))))
            ops.append(Op("reparam", roundtrip <= 1e-8 and transfer <= 1e-7,
                          f"roundtrip {roundtrip:.2e}, transfer {transfer:.2e}"))
        ops.append(self._check_sweep(swept, err_sweep))
        return ops, {}

    def _check_sweep(self, swept, error) -> Op:
        if error:
            return Op("sweep", False, error)
        code, text = swept
        if code != 0:
            return Op("sweep", False, f"exit code {code}")
        cells = json.loads(text)["result"]["cells"]
        bad = [k for k, c in cells.items() if c["error"] or not c["result"]]
        if len(cells) != self.SWEEP_SIDE ** 2 or bad:
            return Op("sweep", False, f"{len(cells)} cells, errors in {bad}")
        key = sorted(cells)[self.recheck_cell]
        params = cells[key]["params"]
        f = search.ParamFamily.quartic_bc().build(
            np.array([params["b"], params["c"]]))
        oc = globalgeo.classify_operator(f)
        problems = []
        if oc.verdict != cells[key]["result"]["verdict"]:
            problems.append(f"{key}: {oc.verdict} vs "
                            f"{cells[key]['result']['verdict']}")
        for name, verdict in oc.evidence.items():
            if not name.startswith("hull_gamma"):
                continue
            curve = oc.evidence["curve_" + name.removeprefix("hull_")]
            resid = verdict.certificate_residual(curve.points)
            if not resid <= (1e-9 if verdict.interior else 1e-12):
                problems.append(f"{key} {name} certificate {resid:.2e}")
        return Op("sweep", not problems, "; ".join(problems) or "ok")


WORKLOADS = {w.name: w for w in (Census, Fibre, Geometry)}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")},
            "threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _gate(workload: Workload, outputs: list) -> tuple[list[Op], dict]:
    ops, figures = [], {}
    for out in outputs:
        more, recorded = workload.check(out)
        ops += more
        for k, v in recorded.items():
            figures[k] = max(figures.get(k, v), v)
    return ops, figures


def run_timed(workload: Workload, seconds: float) -> dict:
    """Repeat the timed phase while another repeat fits in ``seconds``."""
    timings, outputs, spent = [], [], 0.0
    while True:
        with SpeedProbe() as probe:
            workload.clock = probe.clock
            try:
                t, out = workload.run()
            finally:
                workload.clock = time.perf_counter
        t["ref_job_s"] = probe.mean()
        t["wall_ref"] = t["wall_s"] / probe.mean()
        timings.append(t)
        outputs.append(out)
        spent += t["wall_s"]
        if spent + t["wall_s"] > seconds:
            break
    ops, figures = _gate(workload, outputs)
    metrics = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    return {"metrics": metrics, "repeats": len(timings), "ops": ops,
            "figures": figures}


def run_traced(workload: Workload, spans_path: Path) -> dict:
    """An untraced pass, then two traced passes whose counts must agree."""
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics, work_counts

    untraced, out_u = workload.run()
    passes = []
    for _ in range(2):
        tracer = Tracer()
        workload.request = lambda label: setattr(tracer, "request", label)
        tracer.install()
        try:
            t, out = workload.run()
        finally:
            tracer.uninstall()
            workload.request = lambda label: None
        passes.append((tracer, t, out))
    (first, t_first, _), (second, _, _) = passes
    first.write(str(spans_path))

    ops, figures = _gate(workload, [out_u] + [out for _, _, out in passes])
    metrics = layer_metrics(first, t_first["wall_s"], untraced["wall_s"],
                            figures.get("fibre.rough_residual", 0.0))
    counts_a, counts_b = work_counts(first), work_counts(second)
    mismatch = sorted(k for k in counts_a.keys() | counts_b.keys()
                      if counts_a.get(k) != counts_b.get(k))
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "repeats": 3,
            "ops": ops, "figures": figures,
            "counts_repeat": not mismatch, "count_mismatch": mismatch,
            "counts": counts_a, "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not Path(morinode.__file__).resolve().is_relative_to(ROOT):
        sys.stderr.write(f"morinode imported from {morinode.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("SETUP", repr(time.monotonic()), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = run_traced(workload, spans)
        else:
            result = run_timed(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = result.pop("ops")
    result.update(
        attempted=len(ops), failed=sum(not op.ok for op in ops),
        failures=[f"{op.name}: {op.detail}" for op in ops if not op.ok],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment())
    print("RESULT", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
