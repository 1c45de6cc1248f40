"""Benchmark workloads, their seeded inputs and their reference checks.

A workload is one ``bredon`` CLI invocation on a generated spec file.  The
seed orders the spec's block list; the tensor product is commutative and
associative, so every order has the same answer and only the cost moves.

The references below are written by hand.  Each pins only facts that hold
for every block order and for either answer route (tensor fold or product
complex): exit codes and free ranks.  Torsion is deliberately not pinned,
because the tensor fold carries 2-torsion that the product complex does
not (README, "Acceptance status").
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

POINT_GROUP_ORDER = 4

# The block order of specs/vafa_witten.json: Z^6 x| Z/4.
FLAGSHIP = ("line-minus", "line-minus", "plane-i", "plane-i")
# Z^8 x| Z/4, the 5-block spec of the ROADMAP.
Z8 = ("line-minus", "line-minus", "plane-i", "plane-i", "plane-i")

# Free ranks of H^d, d = 0 .. dimension.  Sources:
# - H^0 of the flagship is 42, the README's rational character count
#   1 + 3*3 + 4^4/8.  The same count with three plane blocks gives
#   1 + 3*3*3 + 4^5/16 = 92 for Z8.
# - Each plane block has H^2 = Z (README: plane block H^0 = Z^8, H^2 = Z),
#   line blocks are concentrated in degree 0, and free ranks agree between
#   the tensor fold and the product complex at every fold (README).  So
#   H^(2k) has free rank binomial(planes, k): 2, 1 for the flagship (the
#   product-complex groups Z^42, Z^2, Z of ROADMAP item 1) and 3, 3, 1
#   for Z8.  Odd degrees are zero.
FLAGSHIP_RANKS = (42, 0, 2, 0, 1, 0, 0)
Z8_RANKS = (92, 0, 3, 0, 3, 0, 1, 0, 0)

# The flagship's accumulated product complex at the last fold, degrees
# 0..6: Z^42, 0, Z^2, 0, Z, 0, 0 (ROADMAP item 1).  The product complex
# is the same space for every block order.
FLAGSHIP_PRODUCT_GROUPS = ((42, ()), (0, ()), (2, ()), (0, ()), (1, ()),
                           (0, ()), (0, ()))


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple
    command: str
    flags: tuple
    exit_code: int
    ranks: tuple

    def argv(self, spec_path: str, output_path: str) -> list:
        return [self.command, spec_path, *self.flags,
                "--format", "machine", "--output", output_path]

    def check(self, exit_code: int, report) -> list:
        """Reasons the operation's result is wrong; empty when correct."""
        if exit_code != self.exit_code:
            return [f"exit code {exit_code}, expected {self.exit_code}"]
        if self.command == "ktheory":
            return _check_ktheory(report, self.ranks)
        return _check_verify(report)


def _free_rank(report, *path):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node.get("free_rank") if isinstance(node, dict) else None


def _check_ktheory(report, ranks) -> list:
    problems = []
    cohomology = report.get("cohomology", {})
    extra = sorted(set(cohomology) - {str(d) for d in range(len(ranks))})
    if extra:
        problems.append(f"cohomology in unexpected degrees {extra}")
    for d, want in enumerate(ranks):
        got = _free_rank(cohomology, str(d)) if str(d) in cohomology else 0
        if got != want:
            problems.append(f"H^{d} free rank {got}, expected {want}")
    # K^0 and K_0 are the even sums, K^1 and K_1 the odd sums (all free
    # ranks here sit in even degrees); the UCT keeps free ranks.
    even = sum(ranks[0::2])
    odd = sum(ranks[1::2])
    for path, want in ((("k_theory", "k0"), even), (("k_theory", "k1"), odd),
                       (("k_homology", "k0"), even),
                       (("k_homology", "k1"), odd)):
        got = _free_rank(report, *path)
        if got != want:
            problems.append(f"{'.'.join(path)} free rank {got}, "
                            f"expected {want}")
    return problems


def _check_verify(report) -> list:
    if report.get("ok") is not False:
        return [f"verify reported ok={report.get('ok')!r}, expected false"]
    try:
        degrees = report["certificates"]["folds"][-1]["oracle"]["degrees"]
        got = tuple((degrees[str(d)]["complex"]["free_rank"],
                     tuple(degrees[str(d)]["complex"]["invariant_factors"]))
                    for d in range(len(FLAGSHIP_PRODUCT_GROUPS)))
    except (KeyError, IndexError, TypeError) as exc:
        return [f"last fold has no product-complex groups ({exc!r})"]
    if got != FLAGSHIP_PRODUCT_GROUPS:
        return [f"last fold product complex {got}, "
                f"expected {FLAGSHIP_PRODUCT_GROUPS}"]
    return []


WORKLOADS = {
    w.name: w for w in (
        Workload("vw-ktheory", FLAGSHIP, "ktheory", (), 0, FLAGSHIP_RANKS),
        # Exit 3: the collapse and oracle certificates fail by design.
        Workload("vw-verify", FLAGSHIP, "verify",
                 ("--tor-depth", "2", "--full-product-oracle"), 3, ()),
        Workload("z8-ktheory", Z8, "ktheory", (), 0, Z8_RANKS),
    )
}


def block_orders(blocks: tuple, seed: int) -> list:
    """Every distinct order of ``blocks``, in a sequence chosen by ``seed``.

    Seed 0 starts with ``blocks`` as given; operation k of a run uses
    entry k modulo the length, so a run visits the orders evenly.
    """
    orders = sorted(set(itertools.permutations(blocks)))
    random.Random(seed).shuffle(orders)
    if seed == 0:
        orders.remove(tuple(blocks))
        orders.insert(0, tuple(blocks))
    return orders


def spec_text(order: tuple) -> str:
    return json.dumps({"point_group_order": POINT_GROUP_ORDER,
                       "blocks": list(order)}, indent=2) + "\n"
