"""One benchmark run process.

Usage: python3 child.py '<json spec>'

The spec has `mode` ("setup" or "run"), `src` (the directory the package
must be imported from), `argv` for `arnoldgas.cli.main` and `trace`.  The
process imports the CLI and builds its parser, then prints "ready" so the
parent can stop its set-up clock.  In "run" mode it then calls
`cli.main(argv)` once in the current directory and prints, as its last line,
a JSON object with the exit code, wall and CPU seconds of that call, peak
RSS, the numpy version and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    from arnoldgas import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"arnoldgas was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    cli.build_parser()
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    import numpy

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
