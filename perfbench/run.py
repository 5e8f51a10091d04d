"""The pckfo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload model-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program under test is `src/pckfo`.
Inputs and reference answers are made from the seed before anything is
timed (workloads.py), in `.perfbench_work/` under the checkout. A fresh
worker process (worker.py) then sends the requests to `pckfo.cli.main`
one after another in whole passes until --seconds of request time have
gone by, and every answer is checked against its reference here.

--trace 0 prints the end-to-end metrics: set-up time, latency median and
90th percentile, throughput, the share of attempts that match their
reference, the share of hash-seed probe requests whose output is the same
under every PYTHONHASHSEED in HASH_SEEDS, and peak memory. The four timings
are scaled to the reference machine's speed by a calibration slice timed
just before each attempt or interpreter start (README.md, "Timings and
machine speed"); the unscaled latencies and throughput are printed too.
--trace 1 runs the requests again with the wrappers of tracing.py installed,
replays the same requests untraced to get the tracing overhead, and prints
the per-layer metrics, import times from `-X importtime` included.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `failed` counts attempts that match neither their
reference nor a known defect of workloads.KNOWN_DEFECTS.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refeval  # noqa: E402
import workloads  # noqa: E402
from worker import Calibration  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
HASH_SEEDS = (0, 1, 3)
# Seconds one calibration slice of worker.py takes on the reference machine.
# Timings are reported at that speed (see _speed_factor).
CALIBRATION_NOMINAL_S = 0.006
SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
# Every child process of one workload's run ends within this many seconds
# of the run's start.
RUN_LIMIT_S = 170
IMPORTED_MODULES = ("pckfo", "pckfo.errors", "pckfo.syntax", "pckfo.report",
                    "pckfo.model", "pckfo.parser", "pckfo.evaluator",
                    "pckfo.axioms", "pckfo.proofcheck", "pckfo.oracle",
                    "pckfo.cli")


class HarnessError(Exception):
    pass


_deadline = [None]   # set for each workload's run


def _time_left():
    if _deadline[0] is None:
        return None
    left = _deadline[0] - time.monotonic()
    if left <= 0:
        raise HarnessError(f"the run took longer than {RUN_LIMIT_S} s")
    return left


def _env(hashseed):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def workload_hashseed(seed) -> int:
    """PYTHONHASHSEED of the timed worker, derived from the workload seed."""
    return (seed * 2654435761 + 97) % 4294967296


def _run(cmd, hashseed):
    proc = subprocess.run(cmd, env=_env(hashseed), capture_output=True,
                          text=True, timeout=_time_left(), cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(cmd[:4])} ... exited {proc.returncode}:"
                           f" {proc.stderr[-1500:]}")
    return proc


def generate(workload, seed, outdir) -> dict:
    if os.path.exists(outdir):
        shutil.rmtree(outdir)
    _run([sys.executable, os.path.join(HERE, "workloads.py"), workload,
          str(seed), outdir], 0)
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def run_worker(manifest_path, out_path, seconds, hashseed, extra=()) -> dict:
    _run([sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
          out_path, "--seconds", str(seconds), *extra], hashseed)
    with open(out_path) as fh:
        result = json.load(fh)
    expected = os.path.join(ROOT, "src", "pckfo")
    if os.path.dirname(os.path.abspath(result["pckfo_file"])) != expected:
        raise HarnessError(f"worker imported pckfo from {result['pckfo_file']}")
    return result


# ---------------------------------------------------------------------------
# checking answers


def check_answer(req, outcome, stdout) -> str:
    """'match', 'known' (the listed defect, exactly) or 'mismatch: why'."""
    expect, known = req["expect"], req.get("known")
    if outcome != expect["exit"]:
        if known == "deep-recursion" and outcome == "RecursionError":
            return "known"
        if known == "taut-cap" and outcome == 1 \
                and "formula is not an instance of Prop" in stdout:
            return "known"
        if known == "fuzz-budget" and outcome == 2 and not stdout:
            return "known"
        return f"mismatch: outcome {outcome!r}, expected exit {expect['exit']}"
    if expect["exit"] == 5:
        return "match"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "mismatch: stdout is not a JSON report"
    if "verdict" in expect and report["verdict"] != expect["verdict"]:
        return f"mismatch: verdict {report['verdict']!r}"
    if "holds" in expect:
        holds = sorted(d["state"] for d in report["details"] if d["holds"])
        if holds != expect["holds"]:
            return "mismatch: extension differs from the reference"
    if "witness" in expect:
        return _check_model(report["artifacts"], "witness-model", "witness-state",
                            workloads.decode_formula(expect["witness"]), True)
    if "counterexample" in expect:
        return _check_model(report["artifacts"], "counterexample-model",
                            "counterexample-state",
                            workloads.decode_formula(expect["counterexample"]), False)
    if any(d.get("failures") for d in report["details"]):
        return "mismatch: the report lists failures"
    return "match"


def _check_model(artifacts, model_key, state_key, formula, want) -> str:
    """Reload an emitted model, validate it, and re-evaluate the formula at
    the emitted state with the reference semantics."""
    try:
        m = refeval.RefModel(artifacts[model_key])
        holds = artifacts[state_key] in refeval.extension(m, formula)
    except (KeyError, refeval.InvalidModel, refeval.NotMeasurable) as exc:
        return f"mismatch: emitted model does not check: {exc!r}"
    return "match" if holds == want else "mismatch: formula value at the emitted state"


def verify(manifest, result) -> dict:
    by_id = {r["id"]: r for r in manifest["requests"]}
    verdicts = {}
    tally = {"match": 0, "known": 0, "mismatch": 0}
    problems = {}
    for rid, _, digest, _ in result["attempts"]:
        key = (rid, digest)
        if key not in verdicts:
            out = result["outputs"][digest]
            verdicts[key] = check_answer(by_id[rid], out["outcome"], out["stdout"])
        v = verdicts[key]
        kind = v.split(":")[0]
        tally[kind] += 1
        if kind != "match":
            known = by_id[rid].get("known")
            problems.setdefault(rid, v if kind == "mismatch" else
                                f"known defect {known}: {workloads.KNOWN_DEFECTS[known]}")
    return {"tally": tally, "problems": problems}


# ---------------------------------------------------------------------------
# hash-seed probe and set-up time


def probe(manifest, inputs) -> dict:
    """Replay each probe request in a fresh process under every hash seed."""
    divergent = []
    for k, req in enumerate(manifest["probe"]):
        path = os.path.join(inputs, f"probe-{k}.json")
        with open(path, "w") as fh:
            json.dump({"requests": [req]}, fh)
        seen = set()
        for hs in HASH_SEEDS:
            res = run_worker(path, path + f".{hs}.out", 0, hs, ("--limit", "1"))
            seen.add(res["attempts"][0][2])
        if len(seen) > 1:
            divergent.append(req["id"])
    return {"probed": len(manifest["probe"]), "divergent": divergent}


def setup_seconds() -> list:
    """Seconds from starting a fresh interpreter until `pckfo.cli` is
    imported and the process can take its first request, each scaled to the
    reference machine's speed by a calibration slice timed just before."""
    code = "import pckfo.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    calibration = Calibration()
    out = []
    for k in range(SETUP_REPEATS + 1):
        speed = CALIBRATION_NOMINAL_S / calibration.run_slice()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=_env(0),
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=_time_left()) != 0 or line != "ready\n":
            raise HarnessError("importing pckfo.cli failed")
        if k:  # the first start warms the file cache (and bytecode caches)
            out.append(ready * speed)
    return out


def import_times() -> dict:
    """Median self time of each pckfo module under `-X importtime`."""
    samples = {m: [] for m in IMPORTED_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import pckfo.cli"], 0)
        seen = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                own, _, name = line[len("import time:"):].split("|")
                if own.strip().isdigit():
                    seen[name.strip()] = int(own) / 1e6
        for m in IMPORTED_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _speed_factor(result) -> float:
    """How much faster the reference machine is than this machine was during
    the run: the nominal time of a calibration slice over the median of the
    slices the worker timed between requests. Timings multiplied by it read
    as if measured on the reference machine, so the machine's own drift
    drops out and the program's speed stays."""
    return CALIBRATION_NOMINAL_S / statistics.median(result["calibration_s"])


def _scaled_latencies(result) -> list:
    """Each attempt's seconds at the reference machine's speed, scaled by the
    calibration slice timed just before it: the machine's speed swings within
    seconds, and the nearest slice tracks it best."""
    cal = result["calibration_s"]
    return [seconds * CALIBRATION_NOMINAL_S / cal[k]
            for _, seconds, _, k in result["attempts"]]


def end_to_end(workload, seed, seconds, workdir, manifest_path, manifest):
    setup = setup_seconds()
    hs = workload_hashseed(seed)
    result = run_worker(manifest_path, os.path.join(workdir, "result.json"),
                        seconds, hs)
    checked = verify(manifest, result)
    probed = probe(manifest, os.path.dirname(manifest_path))
    lat = sorted(a[1] for a in result["attempts"])
    scaled = sorted(_scaled_latencies(result))
    n = len(lat)
    tally = checked["tally"]
    raw = {"latency_p50_ms": statistics.median(lat) * 1e3,
           "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
           "requests_per_s": n / result["wall_s"]}
    speed = _speed_factor(result)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "latency_p50_ms": _metric(statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(scaled, n=10)[8] * 1e3, "ms"),
        "requests_per_s": _metric(n / sum(scaled), "1/s"),
        "matched_share": _metric(tally["match"] / n, "share"),
        "hashseed_stable_share": _metric(
            1 - len(probed["divergent"]) / probed["probed"], "share"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    beyond = sum(1 for x in lat if x > raw["latency_p90_ms"] / 1e3)
    print(f"# {workload} seed={seed} PYTHONHASHSEED={hs} attempts={n}"
          f" passes={result['passes']:.2f} wall={result['wall_s']:.2f}s"
          f" samples_beyond_p90={beyond}")
    print(f"# speed factor {speed:.4f} from {len(result['calibration_s'])} calibration"
          " slices; unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"# failed_share={(n - tally['match']) / n:.4f}"
          f" (known defects {tally['known']}, unexplained {tally['mismatch']})"
          f" hashseed_divergent_share={len(probed['divergent']) / probed['probed']:.4f}"
          f" divergent={probed['divergent']} hash seeds={list(HASH_SEEDS)}")
    for rid, why in sorted(checked["problems"].items()):
        print(f"#   {rid}: {why}")
    return n, tally["mismatch"], metrics


def per_layer(workload, seed, seconds, workdir, manifest_path, manifest):
    hs = workload_hashseed(seed)
    traced = run_worker(manifest_path, os.path.join(workdir, "traced.json"),
                        seconds, hs, ("--trace",))
    k = len(traced["attempts"])
    plain = run_worker(manifest_path, os.path.join(workdir, "untraced.json"),
                       seconds, hs, ("--limit", str(k)))
    checked = verify(manifest, plain)
    t = traced["trace"]
    metrics = {}
    for key, value in sorted(t.items()):
        if key.endswith((".calls", ".self_s")) or key in (
                "model.not_measurable", "evaluator.built", "evaluator.fixed_point_rounds",
                "syntax.hash_calls", "syntax.eq_calls", "syntax.fraction_hash_calls",
                "axioms.tautology_check.raised", "oracle.models_enumerated"):
            metrics[key] = _metric(value, "s" if key.endswith("_s") else "count")

    def rate(num, den):
        return num / den if den else 0.0

    metrics["parser.proof_mb_per_s"] = _metric(
        rate(t["parser.proof_bytes"] / 1e6, t["parser.parse_proof.total_s"]), "MB/s")
    metrics["proofcheck.steps_per_s"] = _metric(
        rate(t["proofcheck.steps"], t["proofcheck.check.total_s"]), "1/s")
    metrics["oracle.models_per_s"] = _metric(
        rate(t["oracle.models_enumerated"], t["enumerating_s"]), "1/s")
    metrics["oracle.useful_ratio"] = _metric(
        1 - rate(t["oracle.skipped_not_measurable"], t["oracle.attempts"])
        if t["oracle.attempts"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = _metric(
        traced["wall_s"] * _speed_factor(traced)
        / (plain["wall_s"] * _speed_factor(plain)), "ratio")
    metrics["trace.requests"] = _metric(k, "count")
    metrics["trace.spans"] = _metric(t["spans"], "count")
    for mod, secs in import_times().items():
        metrics[f"import.{mod}.self_s"] = _metric(secs, "s")
    print(f"# {workload} seed={seed} traced requests={k} spans={t['spans']}"
          f" (kept {t['spans'] - t['spans_dropped']}) traced wall={traced['wall_s']:.2f}s"
          f" untraced wall={plain['wall_s']:.2f}s"
          f" overhead={metrics['trace.overhead_ratio']['value']:.2f}x")
    return k, checked["tally"]["mismatch"], metrics


# ---------------------------------------------------------------------------


def run_one(workload, seed, seconds, trace):
    _deadline[0] = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(WORK, f"{workload}-trace{trace}")
    manifest = generate(workload, seed, os.path.join(workdir, "inputs"))
    manifest_path = os.path.join(workdir, "inputs", "manifest.json")
    measure = per_layer if trace else end_to_end
    return measure(workload, seed, seconds, workdir, manifest_path, manifest)


def self_check(seed=1) -> int:
    """Same seed, same bytes; another seed, other inputs; and the reference
    agrees with pckfo on a sample of each workload's requests."""
    ok = True
    for w in workloads.WORKLOADS:
        a, b, c = (os.path.join(WORK, "self-check", w, x) for x in "abc")
        generate(w, seed, a)
        generate(w, seed, b)
        generate(w, seed + 1, c)
        identical = sorted(os.listdir(a)) == sorted(os.listdir(b)) and all(
            filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
            for f in os.listdir(a))
        differs = not filecmp.cmp(os.path.join(a, "manifest.json"),
                                  os.path.join(c, "manifest.json"), shallow=False)
        with open(os.path.join(a, "manifest.json")) as fh:
            manifest = json.load(fh)
        sample = [r for r in manifest["requests"] if "known" not in r][:12]
        path = os.path.join(a, "sample.json")
        with open(path, "w") as fh:
            json.dump({"requests": sample}, fh)
        res = run_worker(path, path + ".out", 0, 0, ("--limit", str(len(sample))))
        checked = verify({"requests": sample}, res)
        agree = checked["tally"]["match"] == len(sample)
        print(f"{w}: same seed identical={identical} other seed differs={differs}"
              f" reference agrees on {checked['tally']['match']}/{len(sample)}")
        for rid, why in checked["problems"].items():
            print(f"  {rid}: {why}")
        ok = ok and identical and differs and agree
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pckfo", "cli.py")):
        print(f"no program to measure: {ROOT}/src/pckfo is missing", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(args.seed)
        if not args.workload:
            ap.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for w in names:
            n, bad, m = run_one(w, args.seed, args.seconds, args.trace)
            attempted += n
            failed += bad
            for key, value in m.items():
                print(f"{w:12s} {key:40s} {value['value']:>14.6g} {value['unit']}")
            metrics = m if len(names) == 1 else {
                **metrics, **{f"{w}.{key}": v for key, v in m.items()}}
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
