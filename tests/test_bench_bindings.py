"""The benchmark tracer (bench/spans.py) wraps library functions by module
attribute name; a renamed or removed attribute must fail here rather than
as a KeyError in ``bench/run.py --trace 1``."""

from bench import spans


def test_tracer_boundaries_are_bound():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.BOUNDARIES
               if attr not in owner.__dict__]
    assert not missing, f"unbound tracer boundaries: {missing}"
