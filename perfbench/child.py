"""One cold globop process: import, then one call to the CLI entry point.

    python3 perfbench/child.py RESULT.json [--trace OP_ID | --setup-only] -- ARGV...

The parent notes the clock before it spawns this process; ``ready`` below is
the clock just before the first call into globop, so ``ready - spawn`` is the
set-up a CLI user pays (interpreter start, ``import globop``, argument
parsing) and ``done - ready`` is the operation.  Both clocks are
``time.perf_counter``, the system-wide monotonic clock on Linux.

RESULT.json receives the timestamps, the exit code of ``globop.cli.main``,
this process's peak resident set, the pasting cache deltas and, when traced,
the spans.
"""

import json
import resource
import sys
import time

import spans
from globop import cli


def main() -> None:
    result_path = sys.argv[1]
    sep = sys.argv.index("--")
    flags, argv = sys.argv[2:sep], sys.argv[sep + 1 :]
    tracer = None
    if flags[:1] == ["--trace"]:
        tracer = spans.Tracer(flags[1])
        spans.install(tracer)
    ready = time.perf_counter()
    out = {"ready": ready}
    if flags != ["--setup-only"]:
        before = spans.pasting_cache_info()
        out["rc"] = cli.main(argv)
        out["done"] = time.perf_counter()
        after = spans.pasting_cache_info()
        out["pasting"] = {
            k: [a - b for a, b in zip(after[k], before[k])] for k in after
        }
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out.update(tracer.dump())
    with open(result_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
