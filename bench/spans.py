"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping, from here, the module attributes through
which one morinode module calls the next; no file of the library changes.
Each wrapper keeps (id, parent, request, name, start, end) in memory, and
``Tracer.write`` dumps them once the run is over. Work counters (steps,
lanes, points, iterations, ...) are read from the wrapped calls' arguments
and results at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from morinode import cli, core, fibre, globalgeo, morin, odeint, search


def _scalar_steps(args, kwargs, result):
    # _flow_scalar(f, v, x0, t0, t1, h) -> (u, samples, blew, sign, btime)
    t0, t1, h = args[3], args[4], args[5]
    nsteps = int(round((t1 - t0) / h))
    if result[2]:
        return int(round((result[4] - t0) / ((t1 - t0) / nsteps)))
    return nsteps


def _variation_steps(args, kwargs, result):
    # _flow_with_variation(f, v, x0, h) -> (u, der, blew, sign, btime)
    nsteps = int(round(1.0 / args[3]))
    if result[2]:
        return int(round(result[4] * nsteps))
    return nsteps


def _vector_lane_steps(args, kwargs, result):
    # _flow_vector(f, v, x0, h): every lane is swept for every step
    return len(args[2]) * int(round(1.0 / args[3]))


def _eval_points(args, kwargs, result):
    # PeriodicFn.eval(self, t)
    t = args[1] if len(args) > 1 else kwargs["t"]
    return int(getattr(t, "size", 1))


def _gn_iterations(args, kwargs, result):
    return len(result.residual_history) - 1


def _sweep_cells(args, kwargs, result):
    return len(result)


# (owner, attribute, span name, work counter or None); the rebinds of the
# odeint and morin helpers in search and fibre are wrapped under the name of
# the function they are bound to, so a layer's figures do not depend on
# which module called it.
BOUNDARIES = (
    (odeint, "_flow_scalar", "odeint._flow_scalar", _scalar_steps),
    (search, "_flow_scalar", "odeint._flow_scalar", _scalar_steps),
    (fibre, "_flow_scalar", "odeint._flow_scalar", _scalar_steps),
    (odeint, "_flow_vector", "odeint._flow_vector", _vector_lane_steps),
    (search, "_flow_vector", "odeint._flow_vector", _vector_lane_steps),
    (odeint, "_flow_with_variation", "odeint._flow_with_variation",
     _variation_steps),
    (search, "_flow_with_variation", "odeint._flow_with_variation",
     _variation_steps),
    (odeint, "_rhs_tables", "odeint._rhs_tables", None),
    (odeint, "_fd_once", "odeint._fd_once", None),
    # one span per requested derivative: retries are _fd_once calls past two
    (odeint, "_rho_derivative_fd", "odeint._rho_derivative_fd", None),
    (core.PeriodicFn, "eval", "core.PeriodicFn.eval", _eval_points),
    (fibre, "_solve_initial_value", "fibre._solve_initial_value", None),
    (fibre, "_solve_average", "fibre._solve_average", None),
    (morin, "_sigma_values", "morin._sigma_values", None),
    (search, "_sigma_values", "morin._sigma_values", None),
    (search, "_refine_root", "search._refine_root", None),
    (search, "_census_pass", "search._census_pass", None),
    (search, "gauss_newton", "search.gauss_newton", _gn_iterations),
    (search, "sweep", "search.sweep", _sweep_cells),
    (globalgeo, "_simplex_max", "globalgeo._simplex_max", None),
    (globalgeo, "_hull_test_box", "globalgeo._hull_test_box", None),
    (globalgeo, "hull_origin_test", "globalgeo.hull_origin_test", None),
    (globalgeo, "classify_operator", "globalgeo.classify_operator", None),
    (globalgeo, "reparam", "globalgeo.reparam", None),
    (globalgeo, "_invert_monotone_ode", "globalgeo._invert_monotone_ode",
     None),
    (cli, "execute", "cli.execute", None),
)


class Tracer:
    """In-memory span recorder installed around the layer boundaries."""

    def __init__(self):
        self.spans: list = []
        self.work: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._installed: list = []

    def install(self) -> None:
        for owner, attr, name, counter in BOUNDARIES:
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.request, name, start, end)
            if counter is not None:
                self.work[name] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- aggregation ---------------------------------------------------------

    def layer_figures(self) -> tuple[dict, dict, dict]:
        """(calls by name, self seconds by name, total seconds by name)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            own[name] += (end - start) - child[sid]
        return calls, own, total

    def count_under(self, name: str, ancestors: set[str],
                    direct: bool = False) -> int:
        """Spans called ``name`` below a span named in ``ancestors``."""
        by_id = {sid: (parent, nm) for sid, parent, _, nm, _, _ in self.spans}
        count = 0
        for parent, nm in by_id.values():
            if nm != name:
                continue
            p = parent
            while p >= 0:
                if by_id[p][1] in ancestors:
                    count += 1
                    break
                if direct:
                    break
                p = by_id[p][0]
        return count

    def time_under(self, name: str, parent_name: str) -> float:
        """Seconds in ``name`` spans whose direct parent is ``parent_name``."""
        names = {sid: nm for sid, _, _, nm, _, _ in self.spans}
        return sum(end - start for _, parent, _, nm, start, end in self.spans
                   if nm == name and parent >= 0 and names[parent] == parent_name)

    def roots_named(self, names: set[str]) -> int:
        """Spans in ``names`` with no ancestor in ``names``."""
        by_id = {sid: (parent, nm) for sid, parent, _, nm, _, _ in self.spans}
        count = 0
        for sid, (parent, nm) in by_id.items():
            if nm not in names:
                continue
            p = parent
            while p >= 0 and by_id[p][1] not in names:
                p = by_id[p][0]
            count += p < 0
        return count


# Per-layer metrics of one traced pass, in the order BENCHMARK.json lists
# them. Times are shares (%) of the traced pass's wall time: a layer that a
# workload never enters then reads a plain 0 rather than a zero duration,
# and ``trace.wall_s`` turns any share back into seconds.
PER_LAYER_UNITS = {
    "odeint.scalar.calls": "count",
    "odeint.scalar.steps": "count",
    "odeint.scalar.self_pct": "%",
    "odeint.vector.calls": "count",
    "odeint.vector.lane_steps": "count",
    "odeint.vector.self_pct": "%",
    "odeint.variation.calls": "count",
    "odeint.variation.steps": "count",
    "odeint.variation.self_pct": "%",
    "odeint.tables.calls": "count",
    "odeint.tables.self_pct": "%",
    "odeint.contact.fd_retries": "count",
    "core.eval.calls": "count",
    "core.eval.points": "count",
    "core.eval.self_pct": "%",
    "fibre.solve_iv.calls": "count",
    "fibre.solve_avg.calls": "count",
    "fibre.flows_per_point": "1",
    "fibre.solve_iv.self_pct": "%",
    "fibre.rough_residual": "1",
    "morin.sigma.calls": "count",
    "morin.sigma.self_pct": "%",
    "search.refine.calls": "count",
    "search.refine.flows_per_bracket": "1",
    "search.refine.total_pct": "%",
    "search.scan.total_pct": "%",
    "search.gauss_newton.iterations": "count",
    "search.gauss_newton.sigma_evals": "count",
    "search.gauss_newton.total_pct": "%",
    "search.sweep.cells": "count",
    "search.sweep.total_pct": "%",
    "globalgeo.simplex.calls": "count",
    "globalgeo.simplex.self_pct": "%",
    "globalgeo.hull.calls": "count",
    "globalgeo.hull.self_pct": "%",
    "globalgeo.hull.box_retries": "count",
    "globalgeo.classify.calls": "count",
    "globalgeo.classify.total_pct": "%",
    "globalgeo.reparam.total_pct": "%",
    "globalgeo.invert_ode.self_pct": "%",
    "cli.execute.calls": "count",
    "cli.execute.self_pct": "%",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "1",
}

_SELF = {
    "odeint.scalar": "odeint._flow_scalar",
    "odeint.vector": "odeint._flow_vector",
    "odeint.variation": "odeint._flow_with_variation",
    "odeint.tables": "odeint._rhs_tables",
    "core.eval": "core.PeriodicFn.eval",
    "fibre.solve_iv": "fibre._solve_initial_value",
    "morin.sigma": "morin._sigma_values",
    "globalgeo.simplex": "globalgeo._simplex_max",
    "globalgeo.hull": "globalgeo._hull_test_box",
    "globalgeo.invert_ode": "globalgeo._invert_monotone_ode",
    "cli.execute": "cli.execute",
}

_TOTAL = {
    "search.refine": "search._refine_root",
    "search.gauss_newton": "search.gauss_newton",
    "search.sweep": "search.sweep",
    "globalgeo.classify": "globalgeo.classify_operator",
    "globalgeo.reparam": "globalgeo.reparam",
}

FIBRE_SOLVES = {"fibre._solve_initial_value", "fibre._solve_average"}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  rough_residual: float) -> dict[str, float]:
    """Per-layer figures of the pass ``tracer`` recorded."""
    calls, own, total = tracer.layer_figures()
    work = tracer.work

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "odeint.scalar.calls": calls["odeint._flow_scalar"],
        "odeint.scalar.steps": work["odeint._flow_scalar"],
        "odeint.vector.calls": calls["odeint._flow_vector"],
        "odeint.vector.lane_steps": work["odeint._flow_vector"],
        "odeint.variation.calls": calls["odeint._flow_with_variation"],
        "odeint.variation.steps": work["odeint._flow_with_variation"],
        "odeint.tables.calls": calls["odeint._rhs_tables"],
        "odeint.contact.fd_retries": (calls["odeint._fd_once"]
                                      - 2 * calls["odeint._rho_derivative_fd"]),
        "core.eval.calls": calls["core.PeriodicFn.eval"],
        "core.eval.points": work["core.PeriodicFn.eval"],
        "fibre.solve_iv.calls": calls["fibre._solve_initial_value"],
        "fibre.solve_avg.calls": calls["fibre._solve_average"],
        "fibre.flows_per_point": ratio(
            tracer.count_under("odeint._flow_scalar", FIBRE_SOLVES),
            tracer.roots_named(FIBRE_SOLVES)),
        "fibre.rough_residual": rough_residual,
        "morin.sigma.calls": calls["morin._sigma_values"],
        "search.refine.calls": calls["search._refine_root"],
        "search.refine.flows_per_bracket": ratio(
            tracer.count_under("odeint._flow_scalar",
                               {"search._refine_root"}, direct=True),
            calls["search._refine_root"]),
        "search.scan.total_pct": pct(tracer.time_under(
            "odeint._flow_vector", "search._census_pass")),
        "search.gauss_newton.iterations": work["search.gauss_newton"],
        "search.gauss_newton.sigma_evals": tracer.count_under(
            "morin._sigma_values", {"search.gauss_newton"}),
        "search.sweep.cells": work["search.sweep"],
        "globalgeo.simplex.calls": calls["globalgeo._simplex_max"],
        "globalgeo.hull.calls": calls["globalgeo.hull_origin_test"],
        "globalgeo.hull.box_retries": (calls["globalgeo._hull_test_box"]
                                       - calls["globalgeo.hull_origin_test"]),
        "globalgeo.classify.calls": calls["globalgeo.classify_operator"],
        "cli.execute.calls": calls["cli.execute"],
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for layer, span in _SELF.items():
        m[layer + ".self_pct"] = pct(own[span])
    for layer, span in _TOTAL.items():
        m[layer + ".total_pct"] = pct(total[span])
    return {name: m[name] for name in PER_LAYER_UNITS}


def work_counts(tracer: Tracer) -> dict[str, int]:
    """Every deterministic count of a pass: span calls and work counters."""
    calls, _, _ = tracer.layer_figures()
    counts = {"calls:" + k: v for k, v in calls.items()}
    counts.update({"work:" + k: v for k, v in tracer.work.items()})
    return dict(sorted(counts.items()))
