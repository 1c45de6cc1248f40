"""The benchmark tracer on one certified run.

``bench/test_bench.py`` traces only the ``ktheory`` workload, which builds
no product complex.  This traces one ``verify --tor-depth 2
--full-product-oracle`` run on the flagship, the vw-verify workload, so
the counters that read the cochain modules of a block are exercised.
"""

import importlib
import json
import sys
from pathlib import Path

import bredon.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import ENTRY_POINTS, Tracer, op_metrics  # noqa: E402
from workloads import FLAGSHIP, WORKLOADS, spec_text  # noqa: E402


def resolve(module_name, attr):
    """The object an entry point names: a function, or a class's method."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def test_verify_run_records_the_product_counters(tmp_path):
    entries = [(module_name, attr) for _, module_name, attr, _ in ENTRY_POINTS]
    originals = [resolve(*entry) for entry in entries]
    assert all(callable(fn) for fn in originals)

    workload = WORKLOADS["vw-verify"]
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text(FLAGSHIP), encoding="utf-8")
    output = tmp_path / "out.json"
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        # every entry point is bound to its wrapper in its own module
        assert all(resolve(*entry) is not fn
                   for entry, fn in zip(entries, originals))
        code = bredon.cli.main(workload.argv(str(spec), str(output)))
    finally:
        tracer.uninstall()
    assert [resolve(*entry) for entry in entries] == originals
    report = json.loads(output.read_text(encoding="utf-8"))
    assert workload.check(code, report) == []

    metrics = op_metrics(tracer, 0)
    # one product per fold, reduced and validated again, and one for each
    # of the pairs (line-minus, plane-i) and (plane-i, plane-i); the pair
    # (line-minus, line-minus) is the first fold's
    assert metrics["pullback.product_complex.calls"] == 3 + 2
    assert metrics["complexes.cochain.calls"] == 2 + 3 * 2 + 2
    assert metrics["complexes.validate.calls"] == 10
    # the largest cochain module in flat coordinates, 4 per cell: of the
    # products, and of the blocks whose cohomology is taken
    assert metrics["pullback.product_complex.flat_dim"] == 168
    assert metrics["complexes.cohomology.flat_dim"] == 84
    # each fold's groups are row 0 of its derived page, and its modules
    # are built when the next fold reads them: the folds tensor 1 + 2
    # pairs of modules (the last fold's 4 never), the pairs (line-minus,
    # plane-i) and (plane-i, plane-i) 2 + 4.  Only those 6 pieces are
    # flattened, beside the 12 presentations that present_lattice checks
    assert metrics["repring.tensor.calls"] == 1 + 2 + 2 + 4
    assert metrics["repring.flatten.calls"] == 6 + 12
    assert metrics["intlinalg.smith.calls"] == 68
