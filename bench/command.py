"""One ``equimeasure`` CLI command in a fresh interpreter, timed from inside.

Usage::

    python3 bench/command.py REPORT.json TRACE CLI-ARGS...

Imports the package from ``src/`` next to this directory, runs
``equimeasure.cli.main(CLI-ARGS)`` once and writes REPORT.json with the
command's start (``time.monotonic``, comparable across processes), wall
and CPU time, exit status, captured output, the process's peak
resident memory and the versions of Python, numpy, scipy and BLAS.  With TRACE=1 the command runs under ``tracer`` and the
report also holds every span.  With no CLI-ARGS it only starts up: the
report then tells when the command would have started.

Each command gets its own process because that is how the CLI is used:
allocator state and lazily built tables start cold on every run, which a
loop inside one long-lived process would hide.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(report_path, trace, argv):
    sys.path.insert(0, str(SRC))
    from equimeasure import analytics, cli, solver

    import tracer

    tr = tracer.Tracer()
    if trace:
        tracer.install(tr, cli, solver, analytics)
    sink = io.StringIO()
    start, cpu0 = time.monotonic(), time.process_time()
    try:
        with redirect_stdout(sink), redirect_stderr(sink), tr.span("cli.main"):
            status = cli.main(argv) if argv else 0
    except (Exception, SystemExit) as exc:  # reported as a failed command
        status = f"{type(exc).__name__}: {exc}"
    finally:
        tr.restore()
    wall, cpu = time.monotonic() - start, time.process_time() - cpu0
    report = {
        "command_start": start,
        "wall_s": wall,
        "cpu_s": cpu,
        "status": status,
        "output": sink.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": [s.as_list() for s in tr.spans] if trace else None,
        "versions": versions(),
    }
    Path(report_path).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1", sys.argv[3:])
