"""The pathsep benchmark: build and check workloads through the CLI.

    python3 bench/run.py --workload build --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --all                  # every workload, one table
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl
    python3 bench/run.py --record-golden        # rewrite bench/golden.json

A run repeats passes, each in a fresh interpreter (bench/passrun.py), one at
a time, until ``--seconds`` are used.  Every pass runs the same operations,
so each operation is timed once per pass; its latency is the fastest of
those times, and the timing metrics are taken over these per-operation
latencies.  Timings are then scaled to a reference machine speed, measured
by a fixed probe task that runs after every operation (see ``scales``).  With ``--trace 1`` passes alternate between traced and
untraced; the traced ones give the per-layer metrics, and both give
``trace.overhead_ratio``.  The last line of stdout is the JSON result; the
full run record is appended to ``--out`` (default .bench_work/runs.jsonl).
Run it from the repository root.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

DEFAULT_SEED = 0          # the seed of bench/golden.json
WORKLOADS = ("build", "check")
MIN_PASSES = 3
MIN_ABOVE_P90 = 10
PROBE_REF_MS = 1.0        # the probe's time on the reference machine
HARD_STOP_S = 140         # no new pass starts after this; a run must end by 180 s
PASS_TIMEOUT_S = 120

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}     # unit, better, bound
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}       # unit, better


def percentile(values, q: float, min_above: int = 0) -> float:
    """q-quantile (statistics.quantiles, exclusive method); refuses when fewer
    than ``min_above`` samples lie strictly above it."""
    if q == 0.5:
        value = statistics.median(values)
    else:
        value = statistics.quantiles(values, n=100)[round(q * 100) - 1]
    above = sum(1 for v in values if v > value)
    if above < min_above:
        raise ValueError(f"p{round(q * 100)} of {len(values)} samples has {above} above it, "
                         f"needs {min_above}")
    return value


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_pass(workload: str, seed: int, traced: bool, golden: bool = True) -> dict:
    os.makedirs(WORK, exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    workdir = os.path.join(WORK, tag)
    result_path = workdir + ".json"
    # Passes reuse compiled bytecode, as an installed CLI does, whatever the
    # caller's environment says; the cache lives in the work directory.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
               PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, os.path.join(BENCH, "passrun.py"), workload, str(seed),
            "1" if traced else "0", workdir, result_path] + ([] if golden else ["--no-golden"])
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)


def best_latencies(passes) -> dict[str, float]:
    """Per operation, the fastest of its times (ms) over the passes.

    The passes of a run time the same operations on the same inputs, each
    in a fresh interpreter.  On a shared host the speed of the core swings
    by up to 2x within seconds; the fastest time of each operation is the
    estimate of its cost that those swings disturb least."""
    best: dict[str, float] = {}
    for p in passes:
        for o in p["ops"]:
            best[o["name"]] = min(o["ms"], best.get(o["name"], o["ms"]))
    return best


def scales(passes) -> tuple[float, float]:
    """Factors that turn a run's timings into times at the reference speed.

    The speed of a shared host drifts by a third or more over minutes, which
    no statistic within one run removes.  The probe (passrun.probe), a fixed
    task that does not use pathsep, runs after every operation, so its times
    sample the machine's speed over the whole run.  Each timing is divided
    by the probe's time at the same order statistic: the fastest of R passes
    sits near the 1/(R+1) quantile of its times, so per-operation latencies
    are scaled by the probe's 1/(R+1) quantile, and the median set-up time
    by the probe's median.  Returns (operation scale, set-up scale)."""
    probes = [t for p in passes for t in p["probe_ms"]]
    low = statistics.quantiles(probes, n=len(passes) + 1)[0]
    return PROBE_REF_MS / low, PROBE_REF_MS / statistics.median(probes)


def _enough(passes, trace: bool) -> bool:
    plain = sum(1 for p in passes if not p["traced"])
    if trace:
        return 0 < plain < len(passes)
    return plain >= MIN_PASSES


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes for ``seconds``; aggregate metrics and failures."""
    passes, crashes = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        t = time.monotonic()
        try:
            passes.append(run_pass(workload, seed, traced))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            crashes.append(str(exc))
            print(f"pass failed: {exc}", file=sys.stderr)
            if len(crashes) >= 2:
                break
        last = time.monotonic() - t
        elapsed = time.monotonic() - start
        if elapsed >= HARD_STOP_S or (_enough(passes, trace) and elapsed + last > seconds):
            break
    return summarize(workload, seed, seconds, trace, passes, crashes)


def summarize(workload, seed, seconds, trace, passes, crashes) -> dict:
    """Run result from its passes; a crashed pass or a percentile without
    enough samples counts as one failed attempt."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics, samples, op_ms = {}, {}, {}
    if plain and not trace:
        op_ms = best_latencies(plain)
        latencies = list(op_ms.values())
        try:
            p90 = percentile(latencies, 0.9, MIN_ABOVE_P90)
        except (ValueError, statistics.StatisticsError) as exc:
            crashes.append(f"op_p90_ms is not supported by the samples: {exc}")
            p90 = max(latencies)
        raw = {
            "pass_s": sum(latencies) / 1e3,
            "op_p50_ms": percentile(latencies, 0.5),
            "op_p90_ms": p90,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
        }
        op_scale, setup_scale = scales(plain)
        values = {
            "pass_s": raw["pass_s"] * op_scale,
            "op_p50_ms": raw["op_p50_ms"] * op_scale,
            "op_p90_ms": raw["op_p90_ms"] * op_scale,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": raw["setup_s"] * setup_scale,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]["unit"]} for k, v in values.items()}
        samples = {"passes": len(plain), "ops": len(latencies),
                   "op_p90_ms_above": sum(1 for v in latencies if v > p90),
                   "probes": sum(len(p["probe_ms"]) for p in plain),
                   "op_scale": op_scale, "setup_scale": setup_scale, "unscaled": raw}
    if traced and plain and trace:
        from tracing import layer_metrics

        per_pass = []
        for p in traced:
            ladder = {i: o["ladder_n"] for i, o in enumerate(p["ops"]) if o["ladder_n"]}
            per_pass.append(layer_metrics(p["spans"], ladder))
        for name in per_pass[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in per_pass),
                             "unit": PER_LAYER[name]["unit"]}
        ratio = (sum(best_latencies(traced).values())
                 / sum(best_latencies(plain).values()) - 1)
        metrics["trace.overhead_ratio"] = {"value": ratio,
                                           "unit": PER_LAYER["trace.overhead_ratio"]["unit"]}
        samples = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    attempted = sum(len(p["ops"]) for p in passes) + len(crashes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures) + len(crashes)
    correct = failed == 0 and bool(metrics)
    return {
        "record": run_record(workload, seed, seconds, trace),
        "samples": samples,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:50] + [{"op": "pass", "reason": c} for c in crashes],
        "passes": [{**{k: p[k] for k in ("traced", "setup_s", "pass_s", "peak_rss_mb")},
                    "op_ms": [o["ms"] for o in p["ops"]], "probe_ms": p["probe_ms"]}
                   for p in passes],
        "op_ms": op_ms,
        "result": {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                   "metrics": metrics},
    }


def _git(*args) -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_record(workload, seed, seconds, trace) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(), "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_table(summary: dict) -> None:
    rec, res = summary["record"], summary["result"]
    print(f"== {rec['workload']} (seed {rec['seed']}, trace {int(rec['trace'])}, "
          f"{len(summary['passes'])} passes, sha {rec['git_sha']}"
          f"{' dirty' if rec['dirty'] else ''})")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {summary['fail_ratio']:14.6g} "
          f"({res['failed']}/{res['attempted']} ops)")
    print(f"  samples: {json.dumps(summary['samples'])}")
    for f in summary["failures"][:10]:
        print(f"  FAILED {f['op']}: {f['reason']}")


def append_record(path: str, summary: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")


# ---------------------------------------------------------------------------
# --compare OLD NEW
# ---------------------------------------------------------------------------

def _load_runs(path: str):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(old, new, better: str, bound: float) -> str:
    """improved / worse / unchanged / unresolved for one metric of one workload."""
    mo, mn = statistics.median(old), statistics.median(new)
    sign = 1 if better == "lower" else -1
    change = sign * (mn - mo) / mo if mo else 0.0      # > 0 means worse
    separated = (all(sign * (n - o) < 0 for n in new for o in old)
                 or all(sign * (n - o) > 0 for n in new for o in old))
    if max(spread(old), spread(new)) > bound and not separated:
        return "unresolved"
    if change > bound:
        return "worse"
    iqr_old = spread(old) * mo
    if change < 0 and abs(mn - mo) > iqr_old:
        return "improved"
    return "unchanged"


def compare(old_path: str, new_path: str) -> int:
    from tracing import METRICS

    old, new = _load_runs(old_path), _load_runs(new_path)
    exact_counts = {m for m, (how, _) in METRICS.items() if how == "count"}
    differs = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            o = [r for r in old if r["record"]["workload"] == workload
                 and r["record"]["trace"] == trace]
            n = [r for r in new if r["record"]["workload"] == workload
                 and r["record"]["trace"] == trace]
            if not o or not n:
                continue
            print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
                  f"{len(o)} old runs, {len(n)} new runs)")
            names = [k for k in o[0]["result"]["metrics"] if k in n[0]["result"]["metrics"]]
            for name in names:
                ov = [r["result"]["metrics"][name]["value"] for r in o
                      if name in r["result"]["metrics"]]
                nv = [r["result"]["metrics"][name]["value"] for r in n
                      if name in r["result"]["metrics"]]
                mo, mn = statistics.median(ov), statistics.median(nv)
                quart = (lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3)
                qo, qn = quart(ov), quart(nv)
                ratio = mn / mo if mo else float("nan")
                if name in END_TO_END:
                    spec = END_TO_END[name]
                    label = verdict(ov, nv, spec["better"], spec["bound"])
                elif name in exact_counts:
                    label = _count_verdict(o, n, name)
                    differs += label == "DIFFERS"
                else:
                    label = f"({PER_LAYER[name]['better']} is better; no bound)"
                print(f"  {name:32s} old {mo:12.6g} [{qo[0]:.4g}, {qo[2]:.4g}]  "
                      f"new {mn:12.6g} [{qn[0]:.4g}, {qn[2]:.4g}]  x{ratio:.3f}  {label}")
    return 1 if differs else 0


def _count_verdict(old_runs, new_runs, name) -> str:
    """Exact counts must match seed by seed."""
    def by_seed(runs):
        return {r["record"]["seed"]: r["result"]["metrics"][name]["value"] for r in runs}
    o, n = by_seed(old_runs), by_seed(new_runs)
    common = set(o) & set(n)
    if not common:
        return "no common seed"
    return "equal" if all(o[s] == n[s] for s in common) else "DIFFERS"


# ---------------------------------------------------------------------------
# --record-golden
# ---------------------------------------------------------------------------

def record_golden() -> int:
    golden = {}
    for workload in WORKLOADS:
        result = run_pass(workload, DEFAULT_SEED, traced=False, golden=False)
        if result["failures"]:
            print(json.dumps(result["failures"][:5]), file=sys.stderr)
            return 1
        golden[workload] = result["records"]
    with open(os.path.join(BENCH, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(WORK, "runs.jsonl"),
                        help="append the full run record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.exists(os.path.join(ROOT, "src", "pathsep", "cli.py")):
        print(f"no pathsep sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    workloads = WORKLOADS if args.all else [args.workload] if args.workload else None
    if workloads is None:
        parser.error("give --workload, --all, --compare or --record-golden")
    results = {}
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        append_record(args.out, summary)
        print_table(summary)
        results[workload] = summary["result"]
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
