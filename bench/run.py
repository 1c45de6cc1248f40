"""Run one bredon benchmark workload and print its metrics.

    python3 bench/run.py --workload vw-ktheory --seed 0 --seconds 10 --trace 0

One operation is one in-process call of ``bredon.cli.main`` on a generated
spec file, with ``--format machine --output <file>``; it parses the spec,
computes and writes the JSON report.  The loop is closed: one client, one
thread, and the next operation starts when the previous one returns.
Every report is checked against the hand-written references in
``workloads.py``, so a fast wrong answer counts as a failed operation.

``--trace 0`` measures the end-to-end metrics with tracing off: the
operation time as a ratio to a fixed reference computation timed around
each operation (``reference.py``), set-up time and peak memory.
``--trace 1`` alternates untraced and traced operations on the seed's
first block order and reports the per-layer metrics of the traced ones,
plus ``trace.overhead``, the ratio of their median wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print the same metrics for people.  A results file with the machine
record goes to ``bench/out/``, and traced runs also write their spans
there.  The program is imported from ``src/`` of the checkout; without it
the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_seconds
from tracer import Tracer, metric, op_metrics
from workloads import WORKLOADS, block_orders, spec_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The machine's speed drifts within a run, so setup_s is the median of
# fresh starts spread over the run.  They skip the site module (-S): the
# environment's .pth hooks cost 50-120 ms per start, none of it bredon's.
SETUP_STARTS = 15
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import bredon; "
              "from bredon.specfile import parse_spec; "
              "parse_spec(open(sys.argv[2], encoding='utf-8').read())")
# Reference time spent after each operation, as a share of its time.
REFERENCE_SHARE = 0.1
# Every end-to-end value measured; BENCHMARK.json names the ones gated.
UNITS = {"setup_s": "s", "op_s": "s", "op_ref": "ratio", "peak_rss_mb": "MB"}
EXIT_NO_PROGRAM = 2


def load_program():
    """Import ``bredon`` from this checkout's ``src``, or return None."""
    if not (SRC / "bredon" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bredon.cli
    if SRC not in Path(bredon.cli.__file__).resolve().parents:
        return None
    return bredon.cli


def run_op(cli, workload, spec: Path, output: Path):
    """One operation: (wall seconds, reasons it failed, empty if none)."""
    argv = workload.argv(str(spec), str(output))
    output.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(output.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return elapsed, [f"exit code {code}, no readable report: {exc}"]
    try:
        return elapsed, workload.check(code, report)
    except (AttributeError, KeyError, TypeError) as exc:
        return elapsed, [f"malformed report: {exc!r}"]


def fresh_start(spec: Path) -> float:
    """Wall time of a fresh interpreter importing bredon and parsing a spec."""
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # shows up as 50 ms steps in the measured times.
    subprocess.run([sys.executable, "-E", "-S", "-c", SETUP_CODE, str(SRC),
                    str(spec)], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def high_percentile(values):
    """(p, value): the highest of p50/p90/p99 with ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99, 90, 50):
        rank = -(-p * n // 100)  # nearest rank, ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def machine_record(seed: int) -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "git_commit": commit, "seed": seed}


def run_untraced(cli, workload, specs, workdir, seconds):
    """Closed loop over the specs in turn.

    After each operation the reference computation runs for about
    ``REFERENCE_SHARE`` of the operation's time; each operation's ratio is
    taken against the mean of the reference times just before and just
    after it.  Fresh starts for ``setup_s`` are spread over the run.  An
    operation starts only if the medians so far say it ends before the
    deadline, so a run takes about ``seconds`` whatever the operation cost.
    """
    times, ratios, failures, setups = [], [], [], []
    output = workdir / "report.json"
    unit = reference_seconds(1)
    before = reference_seconds(1)
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        now = time.perf_counter()
        while len(setups) < min(SETUP_STARTS,
                                SETUP_STARTS * (now - begin) / seconds):
            setups.append(fresh_start(specs[0]))
            now = time.perf_counter()
        if times and now + (1 + REFERENCE_SHARE) * statistics.median(
                times) > deadline:
            break
        spec = specs[len(times) % len(specs)]
        elapsed, problems = run_op(cli, workload, spec, output)
        after = reference_seconds(max(1, round(REFERENCE_SHARE * elapsed
                                               / unit)))
        times.append(elapsed)
        ratios.append(elapsed / ((before + after) / 2))
        before = after
        failures.extend(problems[:1])
    while len(setups) < SETUP_STARTS:
        setups.append(fresh_start(specs[0]))
    return times, ratios, failures, setups


def run_traced(cli, workload, spec, workdir, seconds, tracer):
    """Alternate untraced and traced operations on one spec."""
    plain, traced, failures = [], [], []
    output = workdir / "report.json"
    deadline = time.perf_counter() + seconds
    while not traced or (time.perf_counter() + statistics.median(plain)
                         + statistics.median(traced) <= deadline):
        for traced_now in ((False, True) if len(traced) % 2 == 0
                           else (True, False)):
            if traced_now:
                tracer.op = len(traced)
                tracer.install()
                try:
                    elapsed, problems = run_op(cli, workload, spec, output)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
            else:
                elapsed, problems = run_op(cli, workload, spec, output)
                plain.append(elapsed)
            failures.extend(problems[:1])
    return plain, traced, failures


def end_to_end(cli, workload, specs, workdir, seconds, config, record):
    times, ratios, failures, setups = run_untraced(cli, workload, specs,
                                                   workdir, seconds)
    measured = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(times),
        "op_ref": statistics.median(ratios),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p, tail = high_percentile(times)
    record.update(op_seconds=times, op_ref_ratios=ratios,
                  setup_seconds=setups, op_percentile={"p": p, "value": tail},
                  measured=measured)
    values = {m["name"]: (measured[m["name"]], m["unit"])
              for m in config["end_to_end"]}
    return values, len(times), failures


def per_layer(cli, workload, spec, workdir, seconds, config, record,
              spans_path):
    tracer = Tracer()
    plain, traced, failures = run_traced(cli, workload, spec, workdir,
                                         seconds, tracer)
    per_op = [op_metrics(tracer, k) for k in range(len(traced))]
    values = {}
    for m in config["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            value = statistics.median(traced) / statistics.median(plain)
        else:
            per = [metric(op, name) for op in per_op]
            counted = all(isinstance(v, int) for v in per)
            value = (statistics.median_low if counted
                     else statistics.median)(per)
        values[name] = (value, m["unit"])
    record.update(trace_overhead=values["trace.overhead"][0],
                  op_seconds={"untraced": plain, "traced": traced})
    tracer.write_spans(spans_path)
    return values, len(plain) + len(traced), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    if cli is None:
        sys.stderr.write(f"error: no bredon package under {SRC}\n")
        return EXIT_NO_PROGRAM
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    orders = block_orders(workload.blocks, args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine_record(args.seed),
              "orders": [list(o) for o in orders]}

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"tmp-{label}-{os.getpid()}"
    workdir.mkdir()
    try:
        specs = [workdir / f"spec{k}.json" for k in range(len(orders))]
        for spec, order in zip(specs, orders):
            spec.write_text(spec_text(order), encoding="utf-8")
        if args.trace:
            values, attempted, failures = per_layer(
                cli, workload, specs[0], workdir, args.seconds, config,
                record, OUT / f"{label}-spans.jsonl")
        else:
            values, attempted, failures = end_to_end(
                cli, workload, specs, workdir, args.seconds, config, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record.update(attempted=attempted, failed=failed,
                  error_rate=failed / attempted, failures=failures[:10],
                  metrics=metrics)
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n",
                                       encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    print(f"  {'error_rate':<40} {failed / attempted:.4g} ratio")
    if args.trace:
        shown = values
    else:
        shown = {k: (v, UNITS[k]) for k, v in record["measured"].items()}
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not args.trace:
        p, tail = record["op_percentile"].values()
        if p:
            print(f"  {'op_s p' + str(p):<40} {tail:.6g} s "
                  f"(10+ of {attempted} operations beyond it)")
        else:
            print(f"  {'op_s tail':<40} none: {attempted} operations, "
                  "fewer than 20")
    for reason in failures[:5]:
        print(f"  failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
