"""Run one ``bictrace`` command, optionally traced.

    python3 perfbench/invoke.py SRC_DIR REPORT_FILE 0|1 COMMAND [ARGS...]

Imports bictrace from SRC_DIR (and from nowhere else), runs
``bictrace.cli.main`` on the arguments and exits with its status. When
the command ends, REPORT_FILE receives a JSON object with the peak
resident set of this process and its git processes and, with tracing
(``1``), the spans of every layer.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set, in MB, of this process and of each child it has
    waited for. Not this process's own ``ru_maxrss``: Linux starts that at
    the resident set the parent had when it forked, which is the
    benchmark's, not bictrace's. ``VmHWM`` counts this process from its
    exec on. A child's ``ru_maxrss`` starts the same way, at no more than
    this process's own peak, so the larger of the two is the tree's peak."""
    own_kb = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024


def main(argv: list[str]) -> int:
    src, report, traced, args = Path(argv[0]).resolve(), argv[1], argv[2] == "1", argv[3:]
    sys.path.insert(0, str(src))
    import bictrace
    import bictrace.cli

    if src not in Path(bictrace.__file__).resolve().parents:
        print(f"bictrace imported from {bictrace.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(bictrace)
    start = time.perf_counter()
    rc = bictrace.cli.main(args)
    wall = time.perf_counter() - start
    out = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        workers = int(args[args.index("--workers") + 1]) if "--workers" in args else 1
        out["meta"] = {"argv": args, "wall_s": wall, "workers": workers}
        out["spans"] = tracer.spans
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
