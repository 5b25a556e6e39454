"""quadsemi benchmark.

    python3 bench/run.py --workload {cli,sweep,oracle} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the package is imported from ``src/``, nothing is
installed.  Workloads (rung lists are in inputs.py):

  cli     check, witness and dot as fresh processes, one at a time in a
          closed loop, on seeded documents over a field ladder of five
          classes, four documents each: small primes, primes of
          1e4-1e5, primes of 1.3e5-2.6e5, extension fields on the table
          path (q <= 1024) and on the digit path (q > 1024).  Every
          command prints the whole closure, so no early exit applies.
  sweep   in-process verify_prop_p3mod4 / verify_lemma_p7mod8 on seeded
          primes, and census_pairs over F_11 and F_9: thousands of small
          decisions, where only verdicts (verify) or closure sizes
          (census) are needed.
  oracle  in-process crosscheck of seeded sets of 2-3 generators (a/a+1
          family or non-square b) over F_13, F_17 (depth 4-5), F_9 (depth
          4), F_25 and F_27 (depth 3), each item with a cold Rabin cache.

With --trace 0 the run measures the end-to-end metrics with tracing off.
Set-up is timed in fresh processes spread over the run, outside the
timed work.  Passes run until --seconds of timed work, finishing the
pass under way, each pinned to one CPU in turn.  Every pass repeats the
same seeded items, and a rung's latency is its fastest pass (see
_summary).  With --trace 1 a fixed number of passes (from --seconds
alone, so counts repeat exactly for a seed) runs twice each, untraced
then traced, in process (the cli workload calls quadsemi.cli.main),
and the per-layer metrics come from the spans; trace.overhead_s is the
median traced pass time minus the median untraced one.  Spans are
written to bench/.work/spans-<workload>-<seed>.jsonl.

Every output is checked outside the timed region; a wrong output, a
crash or an unexpected exit code fails its operations.  The last line of
stdout is the result; the line before it gives sample counts, the
failures, the git SHA, the Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120
# Seconds one untraced plus one traced pass take, checks included, at the
# benchmark's birth; --trace 1 runs --seconds // this many passes.
TRACE_PASS_S = {"cli": 11.0, "sweep": 3.0, "oracle": 5.5}
TRIVIAL_DOC = {"field": {"p": 3}, "generators": [{"a": 0, "b": 2}]}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# What ops_per_s and one command are on each workload.
ALIASES = {
    "cli": {"ops_per_s": "invocations_per_s", "cmd": "one CLI invocation"},
    "sweep": {"ops_per_s": "sets_per_s", "cmd": "one verify_* or census_pairs call"},
    "oracle": {"ops_per_s": "words_per_s", "cmd": "one crosscheck call"},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="quadsemi benchmark")
    parser.add_argument("--workload", choices=("cli", "sweep", "oracle"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv, stdout=subprocess.DEVNULL) -> tuple[float, int, float]:
    """Run one child to completion: wall seconds, exit code and peak RSS
    in MB.  os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would
    be a high-water mark over all children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=stdout, stderr=subprocess.DEVNULL, env=_child_env()
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


CPUS = sorted(os.sched_getaffinity(0))


def _pin_pass(k: int) -> None:
    """Pin pass k, and the children it starts, to one CPU, taking the CPUs
    this process may use in turn.  Other tenants of the host often slow
    one CPU at a time; alternating lets the passes on an unaffected CPU
    set the rung latencies.
    """
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def _sample_setup(setup: list[float], argv, done: float, seconds: int) -> None:
    """Time fresh-process set-ups, spread over the run: one each time the
    timed work passes another 1/SETUP_REPEATS of --seconds.
    """
    while len(setup) < SETUP_REPEATS and len(setup) * seconds <= done * SETUP_REPEATS:
        wall, code, _ = spawn(argv)
        if code != 0:
            raise SystemExit(f"error: set-up command exited {code}: {argv}")
        setup.append(wall)


def _quantile(values, q: float) -> float:
    """Inclusive-method quantile; never outside the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _summary(setup, passes, pass_ops: int, rss, rss_n) -> tuple[list[float], dict]:
    """Rung latencies and end-to-end metrics (value, sample count) from
    the complete passes of a run.

    passes holds, per pass, the latency of each rung's item; every pass
    runs the same items.  Other tenants of the host slow a CPU down by up
    to half, for seconds to minutes, and never speed it up, so each rung's
    latency is its fastest pass (as with timeit).  A pass made of those is
    the run's wall_s, and ops_per_s divides the operations of one pass by
    it; command percentiles are taken over the rung values, so their
    sample count is the number of rungs.
    """
    rungs = [min(col) for col in zip(*passes)]
    wall = sum(rungs)
    return rungs, {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (wall, len(passes)),
        "cmd_p50_ms": (1000 * _quantile(rungs, 0.5), len(rungs)),
        "cmd_p90_ms": (1000 * _quantile(rungs, 0.9), len(rungs)),
        "ops_per_s": (pass_ops / wall, pass_ops * len(passes)),
        "peak_rss_mb": (rss, rss_n),
    }


# -- timed runs (--trace 0) ----------------------------------------------


def timed_cli(seed: int, seconds: int, tmp: Path) -> dict:
    import inputs
    import workloads

    trivial = tmp / "trivial.json"
    trivial.write_text(json.dumps(TRIVIAL_DOC))
    setup_argv = [sys.executable, "-m", "quadsemi.cli", "check", str(trivial)]

    docs = inputs.cli_pass(seed)
    for i, d in enumerate(docs):
        (tmp / f"{i}.json").write_text(json.dumps(d.doc))
    setup, records, passes, k = [], [], [], 0
    while (done := sum(map(sum, passes))) < seconds:
        _pin_pass(k)
        _sample_setup(setup, setup_argv, done, seconds)
        walls = []
        for i, d in enumerate(docs):
            out = tmp / f"{k}-{i}.out"
            with open(out, "wb") as fh:
                doc = str(tmp / f"{i}.json")
                argv = [sys.executable, "-m", "quadsemi.cli", d.command, doc]
                wall, code, rss = spawn(argv, stdout=fh)
            records.append((d, code, out, rss))
            walls.append(wall)
        passes.append(walls)
        k += 1
    os.sched_setaffinity(0, CPUS)
    _sample_setup(setup, setup_argv, float("inf"), seconds)

    # Checked after the loop: a child's ru_maxrss starts from the size of
    # the process that spawned it, so the runner stays small until here.
    failures = []
    for d, code, out, _ in records:
        why = workloads.checked_cli_failure(d, code, out.read_text())
        if why:
            failures.append(f"{d.command} {d.doc}: {why}")
    return {
        "summary": _summary(
            setup, passes, len(docs), max(r[3] for r in records), len(records),
        ),
        "attempted": len(records),
        "failures": failures,
        "failed": len(failures),
    }


def _library(workload_name: str):
    """The in-process workload, its pass maker and the fields it uses."""
    import inputs
    import workloads

    if workload_name == "sweep":
        return workloads.Sweep(), inputs.sweep_pass, inputs.sweep_fields()
    return workloads.Oracle(), inputs.oracle_pass, inputs.oracle_fields()


def timed_library(workload_name: str, seed: int, seconds: int) -> dict:
    from spans import cold_cache

    workload, make_pass, fields = _library(workload_name)
    # a fresh process imports quadsemi and builds every field the workload uses
    code = f"import quadsemi\nfor p, e in {fields!r}:\n    quadsemi.make_field(p, e)\n"
    setup_argv = [sys.executable, "-c", code]
    workload.build_fields()

    items = make_pass(seed)
    pass_ops = sum(map(workload.ops, items))
    setup, passes, failed, failures, k = [], [], 0, [], 0
    while (done := sum(map(sum, passes))) < seconds:
        _pin_pass(k)
        _sample_setup(setup, setup_argv, done, seconds)
        latencies = []
        for item in items:
            prepared = workload.prepare(item)
            cold_cache()
            start = time.perf_counter()
            result, crash = _run_item(workload, item, prepared)
            latencies.append(time.perf_counter() - start)
            bad = crash or workload.failed(item, result)
            if bad:
                failed += bad
                failures.append(_failure(item, bad, result, crash))
            del result
        passes.append(latencies)
        k += 1
    os.sched_setaffinity(0, CPUS)
    _sample_setup(setup, setup_argv, float("inf"), seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "summary": _summary(setup, passes, pass_ops, rss, 1),
        "attempted": pass_ops * len(passes),
        "failures": failures,
        "failed": failed,
    }


def _failure(item, bad: int, result, crash: int) -> str:
    return f"{item}: {bad} failed" + (f" ({result})" if crash else "")


def _run_item(workload, item, prepared):
    """(result, 0), or (the exception's text, the item's operations) when
    quadsemi raises: a crash fails the item's operations and the run goes on.
    """
    try:
        return workload.run(item, prepared), 0
    except Exception as exc:  # noqa: BLE001
        return repr(exc), workload.ops(item)


# -- traced runs (--trace 1) ---------------------------------------------


def traced(workload_name: str, seed: int, seconds: int, tmp: Path) -> dict:
    """Fixed passes, each run untraced and then traced in this process."""
    import inputs
    import workloads
    from spans import Tracer, cold_cache

    import quadsemi.cli  # noqa: F401  (cli.main is among the traced functions)

    if workload_name == "cli":
        workload, make_pass = workloads.CliInProcess(tmp), inputs.cli_pass
    else:
        workload, make_pass, _ = _library(workload_name)
    tracer = Tracer()
    tracer.install()
    tracer.item = "setup"
    cold_cache()
    workload.build_fields()
    tracer.collect_cache_stats()
    tracer.uninstall()

    plain, traced_times, ops, failed, failures, stdout_bytes = [], [], 0, 0, [], 0
    items = make_pass(seed)
    for k in range(max(1, int(seconds // TRACE_PASS_S[workload_name]))):
        _pin_pass(k)
        for times in (plain, traced_times):
            on = times is traced_times
            results, total = [], 0.0
            if on:
                tracer.install()
            for i, item in enumerate(items):
                tracer.item = f"{k}.{i}"
                prepared = workload.prepare(item)
                cold_cache()
                start = time.perf_counter()
                results.append(_run_item(workload, item, prepared))
                total += time.perf_counter() - start
                if on:
                    tracer.collect_cache_stats()
            if on:
                tracer.uninstall()
                if workload_name == "cli":
                    stdout_bytes += sum(
                        len(out[1].encode()) for out, crash in results if not crash
                    )
            times.append(total)
            for item, (result, crash) in zip(items, results):  # checked untraced
                ops += workload.ops(item)
                bad = crash or workload.failed(item, result)
                if bad:
                    failed += bad
                    failures.append(_failure(item, bad, result, crash))
    os.sched_setaffinity(0, CPUS)
    layers = tracer.layer_metrics()
    layers["cli.stdout_bytes"] = stdout_bytes
    layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain)
    tracer.write_spans(BENCH / ".work" / f"spans-{workload_name}-{seed}.jsonl")
    return {
        "layers": layers,
        "wall_s": {"untraced": plain, "traced": traced_times},
        "attempted": ops,
        "failures": failures,
        "failed": failed,
    }


# -- output ----------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quadsemi" / "__init__.py").is_file():
        print(f"error: no quadsemi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans

    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if args.trace:
            res = traced(args.workload, args.seed, args.seconds, Path(tmp))
        elif args.workload == "cli":
            res = timed_cli(args.seed, args.seconds, Path(tmp))
        else:
            res = timed_library(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics = {
            name: {"value": res["layers"][name], "unit": unit}
            for name, unit in spans.LAYER_UNITS.items()
        }
        samples = {"wall_s": res["wall_s"]}
    else:
        rungs, summary = res["summary"]
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _) in summary.items()
        }
        samples = {name: n for name, (_, n) in summary.items()}
        samples["rung_ms"] = [round(1000 * r, 3) for r in rungs]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "aliases": ALIASES[args.workload],
        "failures": res["failures"][:20],
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    for why in res["failures"][:20]:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
