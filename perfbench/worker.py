"""In-process workloads: `worker.py INPUT OUTPUT` runs one job list in a fresh interpreter.

INPUT is JSON lines: a header with the workload name and whether to
trace, then one job per line (generated by the parent).  Jobs are read
and decoded into engine objects one at a time, just before each is
timed, and each output is encoded and written to OUTPUT right after, so
the worker holds one job at a time and its peak resident set is the
interpreter, the program and the program's own work.  Reference-kernel
samples run between jobs (see common.normalise).  A job that raises is
recorded as failed and the loop goes on.

OUTPUT is JSON lines: [output, error] per job, then one object with the
timings, the reference samples, the peak resident set before the first
job and the trace.
"""

import importlib
import json
import resource
import sys
import time
import traceback

from common import REFERENCE_EVERY_S, reference_sample, rss_mb


def main(in_path: str, out_path: str) -> None:
    with open(in_path, encoding="utf-8") as src, open(out_path, "w", encoding="utf-8") as dst:
        header = json.loads(src.readline())
        workload = importlib.import_module(header["workload"])
        encode = getattr(workload, "encode", None)
        tracer = None
        if header["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        perf = time.perf_counter
        starts, latencies = [], []
        rss_before_jobs = rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        samples = [reference_sample()]
        for line in src:
            job = workload.decode(json.loads(line))
            error = None
            t0 = perf()
            try:
                result = workload.run_job(job)
            except Exception:  # a failed job is counted, not fatal
                result, error = None, traceback.format_exc(limit=3)
            t1 = perf()
            starts.append(t0)
            latencies.append(t1 - t0)
            if encode is not None and result is not None:
                result = encode(result)
            dst.write(json.dumps([result, error]) + "\n")
            if t1 - samples[-1][0] >= REFERENCE_EVERY_S:
                samples.append(reference_sample())
        samples.append(reference_sample())
        if tracer is not None:
            tracer.uninstall()
        json.dump({"starts": starts, "latencies": latencies, "samples": samples,
                   "rss_before_jobs_mb": rss_before_jobs,
                   "trace": tracer.export() if tracer else None}, dst)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
