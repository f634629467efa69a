"""The benchmark tracer (bench/spans.py) wraps library functions by module
attribute name; a renamed or removed attribute must fail here rather than
as a KeyError in ``bench/run.py --trace 1``."""

import inspect

import pytest

from bench import spans
from morinode import core, odeint, search


def test_tracer_boundaries_are_bound():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.BOUNDARIES
               if attr not in owner.__dict__]
    assert not missing, f"unbound tracer boundaries: {missing}"


# the positional parameters that the tracer's work counters read by index
# (args[i]); a reordering would miscount under --trace 1 without an error
@pytest.mark.parametrize("fn, positions", [
    (odeint._flow_scalar, {3: "t0", 4: "t1", 5: "h"}),
    (odeint._flow_with_variation, {3: "h"}),
    (odeint._flow_vector, {2: "x0", 3: "h"}),
    (core.PeriodicFn.eval, {1: "t"}),
])
def test_counted_parameters_keep_their_positions(fn, positions):
    names = list(inspect.signature(fn).parameters)
    assert {i: names[i] for i in positions} == positions


# the Flow fields that the tracer's step counters read by position
# (result[2], result[4]); a reordering would miscount under --trace 1
def test_counted_flow_fields_keep_their_positions():
    assert odeint.Flow._fields[2] == "blew"
    assert odeint.Flow._fields[4] == "time"


@pytest.mark.parametrize("flow", [
    lambda f: odeint._flow_scalar(f, None, 0.5, 0.0, 1.0, 0.25),
    lambda f: odeint._flow_scalar(f, None, 0.5, 0.0, 1.0, 0.25, lanes=True),
    lambda f: odeint._flow_with_variation(f, None, 0.5, 0.25),
    lambda f: odeint._flow_with_variation(f, None, 1e7, 0.25),
], ids=["scalar", "scalar-lanes", "variation", "variation-escape"])
def test_counted_flows_return_a_flow(flow):
    assert type(flow(core.Nonlinearity.polynomial([0, 0, 1]))) is odeint.Flow


def test_census_span_nesting():
    # search.scan.total_pct times the _flow_vector spans whose direct parent
    # is _census_pass, and search.refine.* read the _refine_root spans: a
    # census must keep that nesting, or those metrics read 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        census = search.count_solutions(
            core.Nonlinearity.polynomial([0, 0, 1]),
            core.PeriodicFn.constant(1.0), -2.0, 2.0, scan_n=200, h=1e-3)
    finally:
        tracer.uninstall()
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}

    def parents(name):
        return [names.get(parent) for _, parent, _, nm, _, _ in tracer.spans
                if nm == name]
    assert parents("odeint._flow_vector") == ["search._census_pass"]
    assert tracer.time_under("odeint._flow_vector", "search._census_pass") > 0
    brackets = sum(p.brackets for p in census.passes)
    assert len(parents("search._refine_root")) == brackets == 4
    flows = sum(p.refine_flows for p in census.passes)
    assert parents("odeint._flow_with_variation") == \
        ["search._refine_root"] * flows
