"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q

They run real operations of the vw-ktheory workload (about 0.3 s each)
and one short benchmark run per test that needs a whole process.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bredon  # noqa: E402
import bredon.cli  # noqa: E402
from run import run_op  # noqa: E402
from tracer import (END, ENTRY_POINTS, LAYERS, NAME, START,  # noqa: E402
                    Tracer, op_metrics, self_times)
from workloads import (FLAGSHIP, FLAGSHIP_PRODUCT_GROUPS,  # noqa: E402
                       WORKLOADS, Workload, block_orders, spec_text)

VW_KTHEORY = WORKLOADS["vw-ktheory"]


def _spec(tmp_path, order) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(spec_text(order), encoding="utf-8")
    return path


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def flagship_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    output = tmp / "out.json"
    code = bredon.cli.main(VW_KTHEORY.argv(str(_spec(tmp, FLAGSHIP)),
                                           str(output)))
    return code, json.loads(output.read_text(encoding="utf-8"))


def test_seed_zero_is_the_spec_file_order():
    spec = json.loads((ROOT / "specs" / "vafa_witten.json").read_text())
    assert tuple(spec["blocks"]) == FLAGSHIP
    assert block_orders(FLAGSHIP, 0)[0] == FLAGSHIP


def test_seeds_permute_the_same_orders():
    orders = block_orders(FLAGSHIP, 0)
    assert len(orders) == len(set(orders)) == 6
    for seed in (1, 2, 3):
        assert sorted(block_orders(FLAGSHIP, seed)) == sorted(orders)
        assert block_orders(FLAGSHIP, seed) == block_orders(FLAGSHIP, seed)


def test_reference_accepts_the_flagship_report(flagship_report):
    code, report = flagship_report
    assert VW_KTHEORY.check(code, report) == []


def test_free_rank_off_by_one_is_an_error(flagship_report):
    code, report = flagship_report
    for path in (("cohomology", "2"), ("k_theory", "k0"),
                 ("k_homology", "k1")):
        bad = copy.deepcopy(report)
        node = bad
        for key in path:
            node = node[key]
        node["free_rank"] += 1
        assert VW_KTHEORY.check(code, bad), path


def test_wrong_exit_code_is_an_error(flagship_report):
    code, report = flagship_report
    assert VW_KTHEORY.check(3, report)
    verify = WORKLOADS["vw-verify"]
    assert verify.check(0, {"ok": False})


def test_verify_reference():
    degrees = {str(d): {"complex": {"free_rank": r,
                                    "invariant_factors": list(t)}}
               for d, (r, t) in enumerate(FLAGSHIP_PRODUCT_GROUPS)}
    report = {"ok": False,
              "certificates": {"folds": [{"oracle": {"degrees": degrees}}]}}
    verify = WORKLOADS["vw-verify"]
    assert verify.check(3, report) == []
    assert verify.check(3, dict(report, ok=True))
    degrees["4"]["complex"]["free_rank"] = 2
    assert verify.check(3, report)


def test_malformed_report_is_an_error(tmp_path, monkeypatch):
    def main(argv):
        Path(argv[argv.index("--output") + 1]).write_text("[1, 2]")
        return 0
    monkeypatch.setattr(bredon.cli, "main", main)
    _, problems = run_op(bredon.cli, VW_KTHEORY, _spec(tmp_path, FLAGSHIP),
                         tmp_path / "out.json")
    assert problems and problems[0].startswith("malformed report")


def test_failed_check_counts_as_failed_operation(tmp_path):
    wrong = Workload("wrong-exit", FLAGSHIP, "ktheory", (), 3,
                     VW_KTHEORY.ranks)
    _, problems = run_op(bredon.cli, wrong, _spec(tmp_path, FLAGSHIP),
                         tmp_path / "out.json")
    assert problems == ["exit code 0, expected 3"]


@pytest.mark.parametrize("order", block_orders(FLAGSHIP, 0))
def test_every_flagship_order_passes_the_reference(tmp_path, order):
    _, problems = run_op(bredon.cli, VW_KTHEORY, _spec(tmp_path, order),
                         tmp_path / "out.json")
    assert problems == []


def _bindings():
    """Every (namespace, name, object) binding of a traced entry point."""
    out = []
    namespaces = [m for k, m in sys.modules.items()
                  if k == "bredon" or k.startswith("bredon.")]
    for _, module_name, attr, _ in ENTRY_POINTS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            out.append((cls, meth, cls.__dict__[meth]))
            continue
        fn = getattr(owner, attr)
        out.extend((ns, key, fn) for ns in namespaces
                   for key, value in vars(ns).items() if value is fn)
    return out


def test_self_times_sum_to_operation_time_and_uninstall_restores(tmp_path):
    before = _bindings()
    assert any(ns is bredon and key == "snf" for ns, key, _ in before)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert all(getattr(ns, key) is not fn for ns, key, fn in before)
        elapsed, problems = run_op(bredon.cli, VW_KTHEORY,
                                   _spec(tmp_path, FLAGSHIP),
                                   tmp_path / "out.json")
    finally:
        tracer.uninstall()
    assert problems == []
    assert all(getattr(ns, key) is fn for ns, key, fn in before)

    root = tracer.spans[0]
    assert root[NAME] == "cli.main"
    assert sum(self_times(tracer.spans)) == pytest.approx(
        root[END] - root[START], rel=1e-9)
    metrics = op_metrics(tracer, 0)
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + ("trace",))
    assert layers == pytest.approx(elapsed, rel=0.02, abs=0.002)
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_trace_counts_repeat_exactly():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in config["per_layer"]
               if m["unit"] in ("count", "bits")]
    runs = []
    for _ in range(2):
        done = _bench("--workload", "vw-ktheory", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({n: result["metrics"][n]["value"] for n in counted})
    assert runs[0] == runs[1]
    assert runs[0]["intlinalg.smith.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "vw-ktheory", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
