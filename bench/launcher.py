"""Runs ``modefisher.cli`` with the benchmark's span wrappers installed.

    python3 bench/launcher.py SPANS_OUT.json <cli arguments...>

The traced ``cli-mix`` run starts this in place of ``python -m
modefisher.cli``, one process per op, as the untraced run does.  It writes the
child's spans, layer errors, counters and its ``modefisher.cli`` import time
to SPANS_OUT.json when the CLI returns or raises; an uncaught exception then
still ends the process with a traceback and exit status 1.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import modefisher.cli
    import_s = perf_counter() - start
    if not Path(modefisher.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"modefisher imported from {modefisher.cli.__file__}, outside {ROOT / 'src'}")
    import spans  # after the timed import: it loads numpy too

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return modefisher.cli.main(argv)
    finally:
        Path(out_path).write_text(json.dumps(recorder.dump(import_s)))


if __name__ == "__main__":
    sys.exit(main())
