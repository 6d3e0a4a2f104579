"""One pass of a workload in a fresh interpreter.

    python3 bench/passrun.py WORKLOAD SEED TRACE WORKDIR RESULT_JSON [--no-golden]

Set-up (import, input generation and writing) comes first and is timed as
``setup_s``.  Then every operation runs once, closed loop, one client: the
in-process ``pathsep.cli.main(argv)`` call is the timed region, with
stdout and stderr captured.  Checks, hashing and the golden comparison run
after the last operation.  The pass writes its result, spans included, to
RESULT_JSON.
"""

import time

T0 = time.perf_counter_ns()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
sys.path[:0] = [SRC, BENCH]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(op, code: int, stdout: str) -> dict:
    """What must stay byte-identical: exit code, stdout, written file."""
    out = None
    if op.out and os.path.exists(op.out):
        with open(op.out, "rb") as fh:
            out = _sha(fh.read())
    return {"exit": code, "stdout_sha256": _sha(stdout.encode()), "file_sha256": out}


def probe() -> int:
    """Time (ns) of a fixed pure-Python task of about 1 ms on an idle core.

    It does not touch pathsep and runs with the cyclic collector off, so the
    program's state cannot change its cost; only the speed of the machine
    can.  run.py scales the timings of a run by it."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter_ns()
    d, seen, x = {}, set(), 0
    for i in range(6000):
        x = (x + i * i) % 1000003
        d[i & 1023] = x
        if x & 7 == 0:
            seen.add(x & 4095)
    t = time.perf_counter_ns() - t
    if enabled:
        gc.enable()
    return t


def run_ops(ops, recorder=None, probes=None):
    """Run each op once, and a probe after each op if ``probes`` is a list;
    returns (pass_ns, [(latency_ns, code, stdout, error)])."""
    from pathsep import cli

    results = []
    start = time.perf_counter_ns()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter_ns()
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # an escaped exception is a failed op
                code, error = None, f"{type(exc).__name__}: {exc}"
            t = time.perf_counter_ns() - t
        results.append((t, code, out.getvalue(), error or err.getvalue()))
        if probes is not None:
            probes.append(probe())
    return time.perf_counter_ns() - start, results


def judge(ops, results, golden: dict | None) -> tuple[list[dict], list[dict]]:
    """Per-op records and the list of failures (semantic or golden)."""
    from checks import check

    records, failures = [], []
    for op, (_, code, stdout, error) in zip(ops, results):
        rec = record(op, code, stdout)
        records.append(rec)
        if code is None:
            reason = error
        else:
            try:
                reason = check(op, code, stdout)
            except Exception as exc:  # a malformed output must not stop the pass
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and golden is not None and golden.get(op.name) != rec:
            reason = "differs from the golden record of the seed commit"
        if reason is not None:
            failures.append({"op": op.name, "reason": reason, "stderr": error[-300:]})
    return records, failures


def main(argv) -> int:
    workload, seed, trace, workdir, result_path = argv[:5]
    seed, trace = int(seed), trace == "1"
    import pathsep

    if os.path.dirname(os.path.abspath(pathsep.__file__)) != os.path.join(SRC, "pathsep"):
        print(f"pathsep was imported from {pathsep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import pathsep.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    ops = workloads.make(workload, seed, workdir)
    # The inputs and expectations held here are the benchmark's, not the
    # program's: keep the cyclic collector from walking them during ops.
    gc.collect()
    gc.freeze()
    setup_ns = time.perf_counter_ns() - T0
    probes = []
    pass_ns, results = run_ops(ops, recorder, probes)
    pass_ns -= sum(probes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    golden = None
    if seed == workloads.DEFAULT_SEED and "--no-golden" not in argv:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
    if recorder is not None:
        recorder.paused = True
    records, failures = judge(ops, results, golden)
    result = {
        "workload": workload, "seed": seed, "traced": trace,
        "setup_s": setup_ns / 1e9, "pass_s": pass_ns / 1e9, "peak_rss_mb": rss_mb,
        "ops": [{"name": op.name, "ms": r[0] / 1e6, "ladder_n": op.ladder_n}
                for op, r in zip(ops, results)],
        "records": {op.name: rec for op, rec in zip(ops, records)},
        "failures": failures,
        "probe_ms": [t / 1e6 for t in probes],
        "spans": recorder.spans if recorder is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
