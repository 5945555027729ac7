"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py JOBS_JSON OUT_DIR TRACE
    python3 perfbench/worker.py --probe

Imports ``hetfb.cli`` from the checkout's ``src`` and prints ``ready``; the
parent times set-up up to that line (only a few small stdlib modules are
imported before ``hetfb``).  It then runs every job through
``hetfb.cli.run(argv)`` in-process, timing each call.  Outside the timed
calls it reads back each job's CSV.  The round's result goes to
``OUT_DIR/result.json``.  With TRACE=1 the tracer is installed after the
import, so set-up is never traced.
"""

import csv
import json
import os
import resource
import sys
import time
import traceback

from provenance import collect, import_cli


def _read_rows(out_dir):
    names = [n for n in os.listdir(out_dir) if n.endswith(".csv")]
    if len(names) != 1:
        return None
    with open(os.path.join(out_dir, names[0]), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def main(cli, jobs_path, out_dir, trace):
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, job in enumerate(jobs):
        job_dir = os.path.join(out_dir, f"job{i}")
        argv = job["argv"] + ["--out", job_dir]
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this job's rows, not the round
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        rows = _read_rows(job_dir) if code == 0 and os.path.isdir(job_dir) else None
        results.append({"name": job["name"], "code": code, "wall_s": wall, "rows": rows})
    result = {
        "jobs": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": collect(),
        "trace": tracer.summary() if tracer else None,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    cli_module = import_cli()
    print("ready", flush=True)
    if sys.argv[1:] != ["--probe"]:  # a probe only measures set-up
        main(cli_module, sys.argv[1], sys.argv[2], sys.argv[3] == "1")
