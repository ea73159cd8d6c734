"""``repro serve`` with its serve layers wrapped in spans.

Usage: ``python perfbench/serve_launcher.py SPANS_PATH BACKEND CACHE_DIR``
with ``src`` on ``PYTHONPATH``.  It installs the wrappers of
:func:`spans.install_server`, then runs the same server as
``python -m repro serve --host 127.0.0.1 --port 0 --backend BACKEND
--workers 1 --cache-dir CACHE_DIR``.  When the server shuts down on
SIGINT, the spans are written to ``SPANS_PATH``.
"""

import sys

import spans
from repro.serve import run_server


def main(argv) -> int:
    spans_path, backend, cache_dir = argv[1:4]
    recorder = spans.Recorder()
    spans.install_server(recorder)
    try:
        run_server(host="127.0.0.1", port=0, backend=backend, workers=1, cache_dir=cache_dir)
    finally:
        recorder.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
