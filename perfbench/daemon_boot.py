"""Start ``python -m repro serve`` with the benchmark's span wrappers.

    python3 perfbench/daemon_boot.py TRACE_PATH serve [serve options]

Installs the wrappers of ``tracing.py``, runs the CLI, and after the
daemon has drained writes the recorded spans to ``TRACE_PATH``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


def main() -> int:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
