"""The sweep process under test for the ``sweep-lu2d`` workload.

Usage: ``python perfbench/sweep_child.py [SPANS_PATH]`` with ``src`` on
``PYTHONPATH``.  It imports everything an lu2d sweep point needs and
prints ``ready``.  Then each line on stdin is one round, a JSON list of
``{"config": {...}, "seed": n}`` points, answered by one JSON line with
each point's latency, scale and result and this process's peak RSS so
far.  Each point runs as ``run_sweep([config], lu2d_point, workers=1,
seed=seed)`` with no cache, timed on its own, and followed by a speed
probe; its scale converts its latency to reference-host seconds
(``common.Speed``).  End of input ends the process.  Given ``SPANS_PATH``, the linear-algebra and engine entry
points are wrapped in spans first (request id: the point's index over
the whole run), and the spans are written there before exiting.
"""

import json
import resource
import sys
import time

# Imported before "ready" so that no point pays for imports: lu2d_point
# imports these inside its body.
import repro.linalg.blocklu  # noqa: F401
import repro.linalg.lu2d  # noqa: F401
import repro.machine.presets  # noqa: F401
from common import Speed
from repro.sweep import Lu2dPoint, lu2d_point, run_sweep


def main(argv) -> int:
    recorder = None
    if len(argv) > 1:
        import spans

        recorder = spans.Recorder()
        spans.install_engine(recorder)
    print("ready", flush=True)
    index = 0
    speed = Speed()
    for line in sys.stdin:
        out = []
        for point in json.loads(line):
            config = Lu2dPoint(**point["config"])
            t0 = time.perf_counter()
            if recorder is None:
                result = run_sweep([config], lu2d_point, workers=1, seed=point["seed"])[0]
            else:
                with recorder.request(str(index)):
                    result = run_sweep([config], lu2d_point, workers=1, seed=point["seed"])[0]
            latency = time.perf_counter() - t0
            out.append({"latency_s": latency, "scale": speed.factor(), "result": result})
            index += 1
        reply = {
            "points": out,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if recorder is not None:
        recorder.write(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
