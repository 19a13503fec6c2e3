"""Run `dictelab.cli` once with tracing, for the traced pass of `cli`.

Usage: python3 perfbench/traced_cli.py <dictelab arguments...>

Behaves like `python3 -m dictelab.cli`: same output and exit code. After
the command finishes it writes one line to stderr, starting with the
marker below, holding the import time and the spans and counters of the
run as JSON.
"""

import json
import sys
import time

MARK = "@@perfbench-trace "


def main() -> int:
    start = time.perf_counter()
    import dictelab.cli
    import_s = time.perf_counter() - start

    from tracing import Tracer, leftover_wrappers

    tracer = Tracer()
    tracer.install()
    try:
        code = dictelab.cli.main(sys.argv[1:])
    finally:
        tracer.remove()
    self_s = dict(tracer.self_s, **{"cli.import": import_s})
    sys.stdout.flush()
    print(MARK + json.dumps({"self_s": self_s,
                             "counts": dict(tracer.counts),
                             "leftover": leftover_wrappers()}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
