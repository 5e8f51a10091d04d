"""Run one workload's requests through `pckfo.cli.main` in this process.

    python3 perfbench/worker.py MANIFEST OUT --seconds S [--limit K] [--trace]

The manifest's directory is the working directory of every request, and the
checkout's `src/` must be on PYTHONPATH. One client sends each request when
the previous one has returned (closed loop, no threads).

Without --limit the worker repeats whole passes over the request list until
at least S seconds of request time have gone by. With --limit it runs exactly the first K
requests of the repeated list. With --trace it installs the wrappers of
`tracing.py` first, stops after the first request that ends past S seconds,
and adds the per-layer figures to OUT.

OUT gets, per request attempted: id, seconds from `cli.main` entry to
return, a digest of the outcome (exit code, or the name of the exception
that escaped) with stdout, and the index of the calibration slice timed
last before it. Each distinct outcome is kept whole once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _attempt(main, argv):
    out, err = io.StringIO(), io.StringIO()
    outcome = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = main(argv)
    except Exception as exc:  # an escaped exception is an outcome to report
        outcome = type(exc).__name__
        err.write(traceback.format_exc(limit=-5))
    return time.perf_counter() - start, outcome, out.getvalue(), err.getvalue()


# Between requests, at most every CALIBRATION_EVERY_S seconds, the worker
# times one slice of fixed work that does not involve pckfo: the reference
# evaluator on a fixed model. The slices track how fast the machine runs
# during the run (see README.md, "Seeds and noise").
CALIBRATION_EVERY_S = 0.25


class Calibration:
    def __init__(self):
        import random
        import refeval
        import workloads
        self._extension = refeval.extension
        self._model = refeval.RefModel(
            workloads.ladder_model_doc(60, random.Random("calibration")))
        self._formula = workloads.MC_FORMULAS[5]
        self.slices = []
        self.last = float("-inf")

    def run_slice(self) -> float:
        """Time one slice. The collector is off meanwhile, so the heap of the
        process does not weigh on the slice."""
        gc.disable()
        try:
            start = time.perf_counter()
            self._extension(self._model, self._formula)
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.slices.append(self.last - start)
        return self.slices[-1]

    def maybe_run(self):
        """Time one slice if the last one is CALIBRATION_EVERY_S old."""
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.run_slice()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(args.manifest) as fh:
        requests = json.load(fh)["requests"]
    out_path = os.path.abspath(args.out)
    os.chdir(os.path.dirname(os.path.abspath(args.manifest)))

    from pckfo import cli
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    calibration = Calibration()
    outputs = {}
    attempts = []
    started = time.perf_counter()
    done = 0
    while True:
        for req in requests:
            if args.limit is not None and done >= args.limit:
                break
            calibration.maybe_run()
            if tracer:
                tracer.begin_request(req["id"])
            seconds, outcome, stdout, stderr = _attempt(cli.main, req["argv"])
            if tracer:
                tracer.end_request(stdout)
            digest = hashlib.sha256(f"{outcome}\0{stdout}".encode()).hexdigest()
            attempts.append([req["id"], seconds, digest, len(calibration.slices) - 1])
            outputs.setdefault(digest, {"outcome": outcome, "stdout": stdout,
                                        "stderr": stderr[-2000:]})
            done += 1
            if tracer and time.perf_counter() - started >= args.seconds:
                break
        elapsed = time.perf_counter() - started - sum(calibration.slices)
        if args.limit is not None:
            if done >= args.limit:
                break
        elif elapsed >= args.seconds:
            break

    result = {
        "pckfo_file": cli.__file__,
        "wall_s": elapsed,
        "calibration_s": calibration.slices,
        "passes": done / len(requests),
        "attempts": attempts,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(out_path + ".spans.tsv")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
