"""Run one rigkit CLI command in this fresh interpreter and measure it.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds {"workload", "seed", "argv", "out_dir", "trace", "op", "check"}.
The command runs through rigkit.cli.main, the function behind the `rigkit`
console script.  Import time, the operation's wall time and the process's
peak RSS are taken before any check runs, so checks cost neither time nor
memory in the figures.  RESULT receives the figures, the check failures, the
result projection and, with trace on, the spans.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    from rigkit import cli
    import_s = time.perf_counter() - t0

    capture = None
    if spec["check"]:
        import checks
        capture = checks.Capture(spec["workload"])
        capture.install()
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["op"])
        spans.instrument(tracer)

    error = None
    root = tracer.open("cli.main") if tracer else None
    t0 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # recorded as a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, projection = [], None
    if error:
        failures.append(error)
    elif capture is not None:
        failures, projection = checks.check(
            spec["workload"], rc, spec["out_dir"], capture, spec["seed"])

    import numpy
    import scipy
    result = {
        "rc": rc,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "projection": projection,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
