"""Show that the census gate catches a wrong answer.

    python3 bench/selfcheck.py

Feeds the census gate a CLI payload holding the recorded reference roots,
once against the true reference and once against a reference moved by
1e-9 (ten times the gate's tolerance). The first must give fail_ratio 0,
the second fail_ratio > 0. Exits 0 when both hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import THREAD_PINS

os.environ.update(THREAD_PINS)
import workloads  # noqa: E402  (numpy must see the thread pins)


def fail_ratio(census: workloads.Census, payload: str) -> float:
    ops, _ = census.check(((0, payload), None))
    for op in ops:
        print(f"  {op.name}: {'ok' if op.ok else 'FAILED'} ({op.detail})")
    return sum(not op.ok for op in ops) / len(ops)


def main() -> int:
    workloads.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=workloads.OUT)
    try:
        census = workloads.Census(0, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = json.dumps({"result": {
        "count": 6, "count_at_half_step": 6,
        "roots": [{"x": x} for x in workloads.CENSUS_REFERENCE]}})

    print("true reference:")
    right = fail_ratio(census, payload)
    census.reference = tuple(x + 1e-9 for x in workloads.CENSUS_REFERENCE)
    print("reference moved by 1e-9:")
    wrong = fail_ratio(census, payload)
    print(f"fail_ratio {right:g} with the true reference, {wrong:g} with the "
          "wrong one")
    return 0 if right == 0 and wrong > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
