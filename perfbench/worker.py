"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Imports ``xxzdroplet.cli`` (timed as set-up), then calls ``main(argv)``
once per command with stdout captured, and prints one JSON object with
the timings, the peak RSS, each command's output and, when traced, the
spans.  Exit code 3 means the package could not be imported.

    python3 perfbench/worker.py '<json list of argv lists>' [--trace]
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> int:
    commands = json.loads(sys.argv[1])
    traced = "--trace" in sys.argv[2:]
    t0 = time.perf_counter()
    try:
        import xxzdroplet.cli as cli
    except ImportError:
        traceback.print_exc()
        return 3
    setup_s = time.perf_counter() - t0

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    wall_s = 0.0
    for argv in commands:
        out = io.StringIO()
        rc = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception as exc:  # every failure of a command is a result
            error = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc, error = exc.code, "SystemExit"
        wall_s += time.perf_counter() - start
        results.append({"rc": rc, "error": error, "stdout": out.getvalue()})

    import numpy
    import scipy

    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
        "package": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        doc["spans"] = tracer.records()
        doc["unbound"] = tracer.unbound
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
