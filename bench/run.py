#!/usr/bin/env python3
"""Benchmark of the cdsp analysis pipeline.

    python3 bench/run.py --workload sweep3 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --table           # per-stage table beside ROADMAP's
    python3 bench/run.py --record-golden   # re-record bench/golden.json

Each workload is a closed loop with one client in this process: the next
analysis starts when the previous one returns. Inputs come from --seed; the
loop makes whole passes over them for --seconds (at least MIN_PASSES).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:

  analyses_per_s   inputs per pass / sum of their times
  analysis_ms.p50  median over inputs of the input's time; a failed input
                   counts as the run's largest time
  analysis_ms.p90  90th percentile of the same (>= 100 inputs per workload)
  ok_share         1 - failed_share: inputs whose every analysis had the
                   expected outcome, over inputs (a share that is never 0)
  setup_s          median time of a fresh interpreter importing cdsp and
                   building the workload's inputs
  peak_rss_mb      peak resident memory of this process

An input's time is the median of its passes. Every time is scaled by a
reference block that runs between analyses (see speed.py): the shared
2-core machine this was tuned on changes speed by up to 2x for seconds to
a minute at a time, and the scaled times cancel that. The unscaled p50 and
the plain closed-loop wall rate are printed as well.

With --trace 1 the run spends half its time untraced and half traced (see
tracer.py) and reports the per-layer metrics. The program is imported from
``src/`` of the checkout this file sits in. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are for people. Results and spans go to bench/results/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: a shared 2-core machine
# otherwise measures the scheduler (sweep3 ran at 100-122 cells/s with
# default OpenBLAS threads and 125-145 cells/s with one).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (beside this file)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
RESULTS = BENCH / "results"

DEFAULT_SEED = 1        # the seed whose outputs golden.json records
MIN_PASSES = 2          # per timed phase; each input's time is its median pass
WARMUP_S = 2.0          # untimed warm-up: one pass over the inputs, at most this long
SETUP_REPS = 9
CLI_REPS = 3

# A fresh interpreter importing cdsp and building one workload's inputs.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import cdsp, workloads; "
               "workloads.build(sys.argv[3], int(sys.argv[4]))")

# ROADMAP's baseline table (2-CPU machine, min of 5, ms); None where not given.
TABLE_COLUMNS = ("3-pt ref", "antipodal", "equi k=8", "equi k=16")
ROADMAP_TABLE = {
    "build_trig": (0.12, 0.09, 0.35, 0.74),
    "factorize": (2.1, 1.4, 10.4, 32.8),
    "build_dirichlet": (0.57, 0.41, 1.5, 2.3),
    "extract_C": (0.75, 0.56, 1.5, 2.2),
    "decide": (7.6, 16.9, 68.6, 518),
    "decide, exhaustive": (28.4, 16.7, 396, 3154),
    "oracle": (31, None, None, None),
}
TABLE_SPANS = {"build_trig": "fejer.build_trig", "factorize": "fejer.factorize",
               "build_dirichlet": "dirichlet.build_dirichlet",
               "extract_C": "debranges.extract_C", "decide": "verdict.decide",
               "decide, exhaustive": "verdict.decide", "oracle": "report.run_oracle"}
TABLE_REPS = 5


def die(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import cdsp from this checkout's src/, never from anywhere else."""
    if not (SRC / "cdsp" / "__init__.py").is_file():
        die(f"no program to measure: {SRC / 'cdsp'} is missing")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cdsp
    if SRC not in Path(cdsp.__file__).resolve().parents:
        die(f"cdsp was imported from {cdsp.__file__}, not from {SRC}")


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(extra)
    return env


def environment() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def error_stage(exc: BaseException) -> str:
    """``module.function`` of the innermost cdsp frame that raised."""
    stage = "outside cdsp"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "cdsp":
            stage = f"{path.stem}.{frame.f_code.co_name}"
    return stage


def closed_loop(inputs, call, seconds: float, ref, tracer=None) -> dict:
    """Run whole passes over ``inputs`` until ``seconds`` have passed and at
    least MIN_PASSES passes are done. Only the program call is timed; the
    outputs are pulled out after it, and the reference block (speed.py) runs
    every speed.EVERY_S between calls, outside the timed region. Each time is
    kept scaled by the reference samples around it. Analysis
    ``pass * len(inputs) + idx`` is input ``idx`` in that pass."""
    import workloads
    from cdsp.errors import CdspError
    clock = time.perf_counter
    raw_times, windows, outcomes = [], [], []
    before = ref.sample()
    start = last = clock()
    while clock() - start < seconds or len(raw_times) < MIN_PASSES:
        raw_times.append([])
        windows.append([])
        for idx, (spec, _) in enumerate(inputs):
            raw = err = None
            t0 = clock()
            if tracer is not None:
                tracer.begin(t0)
            try:
                raw = call(spec)
            except Exception as exc:  # every failure is recorded, typed or not
                err = exc
            t1 = clock()
            if tracer is not None:
                tracer.end(t1)
            raw_times[-1].append(t1 - t0)
            windows[-1].append(before)
            if err is None:
                try:
                    out = workloads.extract(raw)
                except (KeyError, TypeError, ValueError) as exc:
                    err = exc
            if err is not None:
                typed = isinstance(err, CdspError)
                if not typed:
                    traceback.print_exception(err, file=sys.stderr)
                out = {"error": type(err).__name__ if typed else f"untyped {type(err).__name__}",
                       "stage": error_stage(err)}
            outcomes.append((idx, out))
            del raw, err
            if clock() - last >= speed.EVERY_S:
                before = ref.sample()
                last = clock()
    wall = clock() - start
    ref.sample()
    scales = [[ref.scale(w) for w in pass_windows] for pass_windows in windows]
    times = [[t * f for t, f in zip(ts, fs)] for ts, fs in zip(raw_times, scales)]
    return {"times": times, "raw_times": raw_times, "scales": scales,
            "outcomes": outcomes, "wall": wall}


def typical(times):
    """Per input, the analysis id and ms of its median pass (the lower
    median for an even number of passes)."""
    n = len(times[0])
    mid = [sorted(range(len(times)), key=lambda p: times[p][i])[(len(times) - 1) // 2]
           for i in range(n)]
    return [p * n + i for i, p in enumerate(mid)], [times[p][i] * 1e3 for i, p in enumerate(mid)]


def check_outcomes(name, inputs, outcomes):
    """Failed analyses as {(input index, reason): occurrences}, and the set
    of inputs that gave a wrong output (see ``workloads.check``)."""
    import workloads
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    failures = Counter()
    wrong = set()
    for idx, out in outcomes:
        spec, role = inputs[idx]
        bad, unmet = workloads.check(role, out, golden.get(spec))
        if bad or unmet:
            failures[(idx, "; ".join(["WRONG " + b for b in bad] + unmet))] += 1
            if bad:
                wrong.add(idx)
    return failures, wrong


def measure_setup(name: str, seed: int, ref) -> float:
    """Median scaled wall time of a fresh interpreter that imports cdsp
    (numpy included) and builds the workload's inputs."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)]
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    return statistics.median(ref.timed(
        lambda: subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                               stdout=subprocess.DEVNULL), SETUP_REPS))


def cli_cold(ref):
    """Median scaled wall ms of a fresh ``python -m cdsp.cli analyze`` of
    ref3, and whether any of its runs gave a wrong answer."""
    import workloads
    cmd = [sys.executable, "-m", "cdsp.cli", "analyze", "-m", workloads.REF3]
    procs = []
    times = ref.timed(lambda: procs.append(subprocess.run(
        cmd, cwd=ROOT, env=child_env(PYTHONPATH=str(SRC)), capture_output=True, text=True)),
        CLI_REPS)
    wrong = False
    for proc in procs:
        try:
            ok = (proc.returncode == 0 and
                  json.loads(proc.stdout)["verdict"]["decision"] == "NotSubnormal")
        except (ValueError, KeyError):
            ok = False
        wrong |= not ok
    return 1e3 * statistics.median(times), wrong


def percentiles(ms, failed=frozenset()):
    """p50 and p90 of the input times. A failed input counts as missing any
    latency limit: it takes the run's largest time, not the time it took
    to fail (an early NotPSD is fast)."""
    import numpy as np
    worst = max(ms)
    p50, p90 = np.percentile([worst if i in failed else t for i, t in enumerate(ms)], [50, 90])
    return float(p50), float(p90)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    """One workload. ``attempted`` counts its inputs and ``failed`` the
    inputs with at least one failed analysis in the run: every input is
    analysed on every pass, and this count depends on the seed alone, not
    on how many passes fit in the run."""
    import workloads
    import tracer as tracing
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if traced else "end_to_end"]
    env = environment()
    ref = speed.Reference()
    inputs = workloads.build(name, seed)
    call = workloads.CALLS[name]
    setup_s = None if traced else measure_setup(name, seed, ref)
    warm_until = time.perf_counter() + WARMUP_S
    for spec, _ in inputs:
        if time.perf_counter() > warm_until:
            break
        try:
            call(spec)
        except Exception:  # counted by the timed loop
            pass

    budget = seconds / 2 if traced else seconds
    plain = closed_loop(inputs, call, budget, ref)
    failures, wrong = check_outcomes(name, inputs, plain["outcomes"])
    attempted = len(inputs)
    failed_inputs = {idx for idx, _ in failures}
    _, mid_ms = typical(plain["times"])
    p50, p90 = percentiles(mid_ms, failed_inputs)
    raw_p50, _ = percentiles(typical(plain["raw_times"])[1], failed_inputs)
    lines = [f"# workload {name}, seed {seed}: {len(inputs)} inputs, closed loop, 1 client",
             "# environment: " + json.dumps(env),
             f"# untraced: {len(plain['outcomes'])} analyses in {plain['wall']:.2f} s "
             f"({len(plain['times'])} passes); per input median of the passes, scaled: "
             f"p50 {p50:.3f} ms, p90 {p90:.3f} ms "
             f"(n={len(inputs)}, {sum(t > p90 for t in mid_ms)} beyond p90); "
             f"unscaled p50 {raw_p50:.3f} ms",
             "# reference block ms: median {:.2f}, min {:.2f}, max {:.2f} ({} samples, "
             "REFERENCE_MS {})".format(statistics.median(ref.samples_ms), min(ref.samples_ms),
                                       max(ref.samples_ms), len(ref.samples_ms),
                                       speed.REFERENCE_MS)]
    extra = {}
    if not traced:
        failed = len(failed_inputs)
        values = {"analyses_per_s": 1e3 * len(mid_ms) / sum(mid_ms),
                  "analysis_ms.p50": p50, "analysis_ms.p90": p90,
                  "ok_share": (attempted - failed) / attempted,
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        lines.append(f"# closed-loop wall rate {len(plain['outcomes']) / plain['wall']:.6g} "
                     f"1/s unscaled; failed_share {failed / attempted!r} "
                     f"({failed} of {attempted} inputs)")
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = closed_loop(inputs, call, budget, ref, tracer)
        finally:
            tracer.uninstall()
        more, more_wrong = check_outcomes(name, inputs, run["outcomes"])
        failures.update(more)
        wrong |= more_wrong
        failed_inputs |= {idx for idx, _ in more}
        cli_ms, cli_wrong = cli_cold(ref)
        if cli_wrong:
            failures[(-1, "cdsp.cli analyze gave a wrong answer")] += 1
            wrong.add(-1)
        attempted += 1
        failed = len({idx for idx, _ in failures})
        mid_ids, traced_ms = typical(run["times"])
        summary = tracer.summarize(mid_ids, [f for fs in run["scales"] for f in fs])
        t50, _ = percentiles(traced_ms, failed_inputs)
        values = {"trace.untraced_analysis_ms.p50": p50, "trace.analysis_ms.p50": t50,
                  "trace.overhead_share": t50 / p50 - 1.0, "cli.analyze_cold.ms": cli_ms}
        for metric in wanted:
            if metric["name"] not in values:
                values[metric["name"]] = summary.metric(metric["name"])
        med_ms, parts = summary.median_breakdown()
        lines.append(f"# traced: {len(run['outcomes'])} analyses ({len(run['times'])} passes); "
                     f"p50 {t50:.3f} ms, overhead {t50 - p50:+.3f} ms "
                     f"({t50 / p50 - 1.0:+.1%}) vs untraced")
        lines.append(f"# self ms by layer of the median traced analysis ({med_ms:.3f} ms): "
                     + ", ".join(f"{k} {v:.3f}" for k, v in
                                 sorted(parts.items(), key=lambda kv: -kv[1])))
        RESULTS.mkdir(exist_ok=True)
        tracer.write_csv(RESULTS / f"spans-{name}-seed{seed}.csv")
        extra["median_breakdown_ms"] = {"analysis_ms": med_ms, "self_ms": parts}

    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {"value": float(values[metric["name"]]),
                                   "unit": metric["unit"]}
        lines.append(f"# {metric['name']:<36} {values[metric['name']]:.6g} {metric['unit']}")
    lines.append(f"# checks: {attempted} inputs attempted, {failed} failed, "
                 f"{len(wrong)} with wrong outputs")
    for (idx, reason), count in sorted(failures.items()):
        spec = inputs[idx][0] if idx >= 0 else workloads.REF3
        role = inputs[idx][1] if idx >= 0 else "cli"
        lines.append(f"# FAIL x{count} input {idx} [{role}] {spec}: {reason}")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  environment=env, reference_ms=ref.samples_ms, input_ms=mid_ms, failures=[
                      {"input": idx, "reason": r, "count": c} for (idx, r), c in failures.items()],
                  **extra)
    (RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            die(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(out[-1])
    names = list(results)
    metric_names = list(results[names[0]]["metrics"])
    print("# " + " " * 34 + "".join(f"{n:>14}" for n in names))
    for m in metric_names:
        unit = results[names[0]]["metrics"][m]["unit"]
        print(f"# {m + ' [' + unit + ']':<34}"
              + "".join(f"{results[n]['metrics'][m]['value']:>14.6g}" for n in names))
    print(f"# {'failed / attempted':<34}"
          + "".join(f"{str(results[n]['failed']) + '/' + str(results[n]['attempted']):>14}"
                    for n in names))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()}}
    print(json.dumps(combined), flush=True)
    return 0


def stage_table() -> int:
    """ROADMAP's baseline table (inclusive ms of each top-level stage, min of
    TABLE_REPS) measured through the tracer, beside ROADMAP's numbers."""
    import workloads
    import tracer as tracing
    from cdsp import measure, report
    from cdsp.policy import NumericPolicy
    pol = NumericPolicy()
    specs = (workloads.REF3, workloads.ANTIPODAL, workloads.equi(8), workloads.equi(16))
    measures = [measure.parse_measure(s) for s in specs]
    runs = []   # (row, column) of each traced analysis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for col, m in enumerate(measures):
            for exhaustive in (False, True):
                for _ in range(TABLE_REPS):
                    tracer.begin(time.perf_counter())
                    report.PipelineResult(m, pol, exhaustive_psd=exhaustive)
                    tracer.end(time.perf_counter())
                    runs.append((exhaustive, col))
        for _ in range(TABLE_REPS):
            tracer.begin(time.perf_counter())
            report.run_oracle(measures[0], pol)
            tracer.end(time.perf_counter())
            runs.append(("oracle", 0))
    finally:
        tracer.uninstall()
    stages = tracing.top_level_stage_ms(tracer)
    best = defaultdict(lambda: float("inf"))
    for (mode, col), ms in zip(runs, stages):
        for row, span in TABLE_SPANS.items():
            row_mode = {"decide, exhaustive": True, "oracle": "oracle"}.get(row, False)
            if mode == row_mode and span in ms:
                best[row, col] = min(best[row, col], ms[span])
    print("# stage (ms), traced, min of", TABLE_REPS, "| ROADMAP baseline | ratio")
    print(f"# {'':<20}" + "".join(f"{c:>11}" for c in TABLE_COLUMNS) + " |"
          + "".join(f"{c:>11}" for c in TABLE_COLUMNS))
    table = {}
    for row, ref in ROADMAP_TABLE.items():
        got = [best[row, c] if (row, c) in best else None for c in range(4)]
        table[row] = {"measured_ms": got, "roadmap_ms": list(ref)}
        cell = lambda v: f"{v:>11.3f}" if v is not None else f"{'-':>11}"  # noqa: E731
        ratio = "".join(f"{g / r:>10.2f}x" if g is not None and r else f"{'-':>11}"
                        for g, r in zip(got, ref))
        print(f"# {row:<20}" + "".join(cell(g) for g in got) + " |"
              + "".join(cell(r) for r in ref) + " |" + ratio)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "table.json").write_text(json.dumps(
        {"environment": environment(), "columns": TABLE_COLUMNS, "rows": table},
        indent=1) + "\n", encoding="utf-8")
    return 0


def record_golden() -> int:
    """Record every input's decision and max_offdiag_norm (or typed error)
    for DEFAULT_SEED. Only a change to the benchmark itself re-records."""
    import workloads
    from cdsp.errors import CdspError
    golden = {}
    for name in workloads.WORKLOADS:
        entries = {}
        for spec, _ in workloads.build(name, DEFAULT_SEED):
            try:
                out = workloads.extract(workloads.CALLS[name](spec))
                entries[spec] = {"decision": out["decision"],
                                 "max_offdiag_norm": out["norm"]}
            except CdspError as exc:
                entries[spec] = {"error": type(exc).__name__}
        golden[name] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep3", "ladder", "audit", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true", help="print the per-stage table")
    ap.add_argument("--record-golden", action="store_true",
                    help="re-record the expected outputs of the default seed")
    args = ap.parse_args(argv)
    if not (args.table or args.record_golden or args.workload):
        ap.error("one of --workload, --table or --record-golden is required")
    load_program()
    if args.table:
        return stage_table()
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
