"""Acceptance criteria, asserted with exact equality of canonical groups.

Every criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with
``pytest -s`` to see the lines for passing criteria as well) and enforces
its runtime budget.  All arithmetic is exact.

Seven criteria (1 through 7) pin published values that exact computation
shows to be arithmetically wrong.  They fall in two kinds:

* Criteria 1, 2, 3 and 7 assert the corrected exact values, kept in
  ``CORRECTED`` and ``COLLAPSE_ROWS`` below.  Each of those values is
  recomputed from first principles, without the engine's module, tensor or
  Tor code, in ``test_acceptance_oracles.py``.  Every corrected check
  prints the published value beside the asserted one.
* Criteria 4, 5 and 6 keep the published values verbatim and are marked
  ``golden_defect``.  They fail with a message showing the exact computed
  value next to the published one: the published values are unreachable,
  and the engine's own answers there are wrong too (the product of two
  blocks makes one cell per pair of cells where the pair splits into
  several orbits).  Deselect them with ``pytest -m "not golden_defect"``.
"""

import random
import time

import pytest

from conftest import freed_action
from bredon.complexes import (
    bredon_cochain_complex,
    builtin_block,
    builtin_block_names,
    cohomology_table,
)
from bredon.intlinalg import FgAbGroup, IntMatrix, determinant, smith_diagonal, snf
from bredon.ktheory import full_report
from bredon.pullback import (
    PullbackSpec,
    kunneth_tensor,
    product_complex,
    run_pullback,
)
from bredon.repring import (
    PointGroup,
    free_module,
    quotient_by_ideal,
    restriction_module,
    tensor_over_ring,
    tor,
)

PG4 = PointGroup(4)

Z = FgAbGroup.free


def G(free_rank, *torsion):
    """Z^free_rank ⊕ Z/t_1 ⊕ ..., torsion orders given as a divisibility chain."""
    return FgAbGroup(free_rank, torsion)


# Corrected values of criteria 1-3, keyed by criterion and check label.
# With M = H^0 of a block, R = R(Z/4) = Z[eta]/(eta^4 - 1), I = (eta^2 - 1)
# and J = (eta - 1), M/I and M/J are quotient_by_ideal(M, 2) and (M, 1).
# H^0(line) = {(x, y) in R^2 : x = y in R(Z/2)} is R ⊕ R/(eta^2 + 1), whose
# second summand leaves (Z/2)^2 in M/I and Z/2 in M/J.  A(x)H^0(Y) is the
# ring tensor of the first fold A with H^0(plane), not H^0 of a product.
CORRECTED = {
    1: {"H^0/I": G(2, 2, 2), "H^0/J": G(1, 2)},
    2: {"H^0/I": G(4, 2), "H^0/J": G(1, 2, 4)},
    3: {"A/I": G(2, 2, 2, 2, 2, 2, 2), "A/J": G(1, 2, 2, 2),
        "A(x)H^0(Y)": G(20, 2, 2, 2),
        "A(x)H^0(Y)/I": G(4, *[2] * 16),
        "A(x)H^0(Y)/J": G(1, *[2] * 10, 4)},
}

# Criterion 7: the nonzero derived rows p >= 1 of each fold, keyed by
# (p, q).  Fold 1 is Tor_1(R/(eta^2 + 1), R/(eta^2 + 1)) = R/(eta^2 + 1, 2);
# fold 2 follows from A = R ⊕ (R/(eta^2 + 1))^3 and the 2-periodic
# resolution of R/(eta^2 + 1).
COLLAPSE_ROWS = {
    1: {(1, 0): G(0, 2, 2)},
    2: {(1, 0): G(0, 2, 2, 2), (2, 0): G(0, 2, 2, 2), (2, 2): G(0, 2, 2, 2)},
    3: {(1, 0): G(0, *[2] * 14, 4, 4), (1, 2): G(0, *[2] * 9),
        (1, 4): G(0, 2, 2, 2, 4), (2, 0): G(0, *[2] * 12),
        (2, 2): G(0, *[2] * 17, 4, 4), (2, 4): G(0, 2, 2, 2)},
}


class Criterion:
    """Collects expected-vs-computed checks and prints one verdict line.

    A check that asserts a corrected value carries the published value it
    replaces as ``published``; that value is printed beside the asserted
    one on PASS and on FAIL.  A check without it asserts the published
    ("golden") value itself.
    """

    def __init__(self, number, title, budget_seconds):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.checks = []
        self.start = time.monotonic()

    def check(self, label, computed, expected, published=None):
        self.checks.append(
            (label, computed, expected, computed == expected, published))

    def check_true(self, label, condition):
        self.checks.append((label, condition, True, bool(condition), None))

    @staticmethod
    def _describe(label, computed, expected, ok, published):
        if published is None:
            return f"{label}: golden {expected} | computed {computed}"
        if ok:
            return f"{label}: {computed} | published {published}"
        return (f"{label}: expected {expected} | computed {computed} "
                f"| published {published}")

    def finish(self):
        elapsed = time.monotonic() - self.start
        failures = [c for c in self.checks if not c[3]]
        verdict = "PASS" if not failures and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.title}): {verdict} "
              f"[{elapsed:.2f}s / budget {self.budget}s]")
        for c in self.checks:
            if not c[3] or c[4] is not None:
                print("    " + self._describe(*c))
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget "
            f"({elapsed:.2f}s)")
        if failures:
            detail = "; ".join(self._describe(*c) for c in failures)
            raise AssertionError(
                f"criterion {self.number} values not met: {detail}")


def vafa_witten_blocks():
    line = builtin_block("line-minus")
    plane = builtin_block("plane-i")
    return (line, line, plane, plane)


def test_criterion_1_line_block():
    crit = Criterion(1, "line block", 1.0)
    table = cohomology_table(bredon_cochain_complex(builtin_block("line-minus")))
    H0 = table.module(0)
    crit.check("H^0", table.group(0), Z(6))
    crit.check("H^1", table.group(1), FgAbGroup.trivial())
    crit.check("H^0/I", quotient_by_ideal(H0, 2).flatten(),
               CORRECTED[1]["H^0/I"], published=Z(2))
    crit.check("H^0/J", quotient_by_ideal(H0, 1).flatten(),
               CORRECTED[1]["H^0/J"], published=Z(1))
    crit.finish()


def test_criterion_2_plane_block():
    crit = Criterion(2, "plane block", 1.0)
    table = cohomology_table(bredon_cochain_complex(builtin_block("plane-i")))
    H0, H2 = table.module(0), table.module(2)
    crit.check("H^0", table.group(0), Z(8))
    crit.check("H^1", table.group(1), FgAbGroup.trivial())
    crit.check("H^2", table.group(2), Z(1))
    crit.check("H^0/I", quotient_by_ideal(H0, 2).flatten(),
               CORRECTED[2]["H^0/I"], published=Z(2))
    crit.check("H^0/J", quotient_by_ideal(H0, 1).flatten(),
               CORRECTED[2]["H^0/J"], published=Z(1))
    crit.check("H^2/I", quotient_by_ideal(H2, 2).flatten(), Z(1))
    crit.check("H^2/J", quotient_by_ideal(H2, 1).flatten(), Z(1))
    crit.finish()


def test_criterion_3_tensor_chain():
    crit = Criterion(3, "tensor chain", 1.0)
    line = cohomology_table(bredon_cochain_complex(builtin_block("line-minus")))
    plane = cohomology_table(bredon_cochain_complex(builtin_block("plane-i")))
    A = kunneth_tensor(line, line)
    A0 = A.module(0)
    crit.check("A", A.group(0), Z(10))
    crit.check("A/I", quotient_by_ideal(A0, 2).flatten(),
               CORRECTED[3]["A/I"], published=Z(2))
    crit.check("A/J", quotient_by_ideal(A0, 1).flatten(),
               CORRECTED[3]["A/J"], published=Z(1))
    B = kunneth_tensor(A, plane)
    B0 = B.module(0)
    crit.check("A(x)H^0(Y)", B.group(0),
               CORRECTED[3]["A(x)H^0(Y)"], published=Z(20))
    crit.check("A(x)H^0(Y)/I", quotient_by_ideal(B0, 2).flatten(),
               CORRECTED[3]["A(x)H^0(Y)/I"], published=Z(6))
    crit.check("A(x)H^0(Y)/J", quotient_by_ideal(B0, 1).flatten(),
               CORRECTED[3]["A(x)H^0(Y)/J"], published=Z(1))
    crit.finish()


@pytest.mark.golden_defect
def test_criterion_4_full_vafa_witten():
    crit = Criterion(4, "full Vafa-Witten cohomology", 5.0)
    spec = PullbackSpec(PG4, vafa_witten_blocks())
    table = run_pullback(spec).final
    crit.check("H^0", table.group(0), Z(44))
    crit.check("H^2", table.group(2), Z(2))
    crit.check("H^4", table.group(4), Z(1))
    for d in table.degrees():
        if d not in (0, 2, 4):
            crit.check(f"H^{d}", table.group(d), FgAbGroup.trivial())
    crit.finish()


@pytest.mark.golden_defect
def test_criterion_5_k_theory():
    crit = Criterion(5, "K-theory and K-homology", 5.0)
    spec = PullbackSpec(PG4, vafa_witten_blocks())
    report = full_report(spec)
    crit.check("K^0", report.k_theory.k0, Z(47))
    crit.check("K^1", report.k_theory.k1, FgAbGroup.trivial())
    crit.check("K_0(C*_r)", report.k_homology.k0, Z(47))
    crit.check("K_1(C*_r)", report.k_homology.k1, FgAbGroup.trivial())
    crit.finish()


@pytest.mark.golden_defect
def test_criterion_6_oracle_equivalence():
    crit = Criterion(6, "product-complex oracle", 60.0)
    spec = PullbackSpec(PG4, vafa_witten_blocks(), full_product_oracle=True)
    run = run_pullback(spec)
    for record in run.folds:
        crit.check_true(
            f"{record.label} oracle equality",
            record.oracle is not None and record.oracle.ok)
    # the single accumulated 4-fold product complex
    acc = bredon_cochain_complex(spec.blocks[0])
    for block in spec.blocks[1:]:
        acc = product_complex(acc, bredon_cochain_complex(block))
    crit.check("4-fold degree-0 flattened rank",
               acc.modules[0].flatten().free_rank, 104)
    full = cohomology_table(acc)
    crit.check("4-fold H^0", full.group(0), Z(44))
    crit.check("4-fold H^2", full.group(2), Z(2))
    crit.check("4-fold H^4", full.group(4), Z(1))
    crit.finish()


def test_criterion_7_collapse_certificates():
    crit = Criterion(7, "collapse certificates", 30.0)
    spec = PullbackSpec(PG4, vafa_witten_blocks(), tor_depth=2)
    run = run_pullback(spec)
    for record in run.folds:
        rows = {(p, q): str(g) for p, q, g in record.collapse_failures}
        expected = {pq: str(g)
                    for pq, g in COLLAPSE_ROWS[record.index].items()}
        crit.check(f"{record.label} rows p>=1",
                   rows, expected, published={})
    crit.finish()


def test_criterion_8_property_suites():
    crit = Criterion(8, "property suites", 60.0)

    # Smith normal form invariants on >= 1000 random small matrices
    rng = random.Random(20260808)
    checked = 0
    for _ in range(1000):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        A = IntMatrix(r, c, [[rng.randint(-9, 9) for _ in range(c)]
                             for _ in range(r)])
        dec = snf(A)
        assert dec.U * A * dec.V == dec.D
        assert abs(determinant(dec.U)) == 1
        assert abs(determinant(dec.V)) == 1
        diag = dec.diagonal()
        nonzero = [d for d in diag if d]
        assert diag[:len(nonzero)] == nonzero
        assert all(d >= 0 for d in diag)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        checked += 1
    crit.check("random Smith-form matrices checked", checked >= 1000, True)

    # d^2 = 0 and equivariance for all built-in and product complexes
    complexes = {name: bredon_cochain_complex(builtin_block(name))
                 for name in builtin_block_names()}
    products = {
        "line*line": product_complex(complexes["line-minus"],
                                     complexes["line-minus"]),
        "line*plane": product_complex(complexes["line-minus"],
                                      complexes["plane-i"]),
        "plane*plane": product_complex(complexes["plane-i"],
                                       complexes["plane-i"]),
    }
    products["line*line*plane*plane"] = product_complex(
        product_complex(products["line*line"], complexes["plane-i"]),
        complexes["plane-i"])
    for label, cx in {**complexes, **products}.items():
        maps = cx.differentials
        actions = [freed_action(orders) for orders in cx.cells]
        equivariant = all(mat * actions[d] == actions[d + 1] * mat
                          for d, mat in enumerate(maps))
        d_squared = all((b * a).is_zero() for a, b in zip(maps, maps[1:]))
        crit.check_true(f"{label}: d^2 = 0 and equivariant",
                        equivariant and d_squared)

    # Euler characteristic: conservation, and multiplicativity per
    # character block (flattened alternating sums are not multiplicative
    # under the ring tensor: line*line has 16 - 8 + 2 = 10, not 6 * 6)
    from test_pullback import character_euler

    for label, cx in {**complexes, **products}.items():
        table = cohomology_table(cx)
        homological = sum((-1) ** d * table.group(d).free_rank
                          for d in table.degrees())
        crit.check(f"{label}: Euler conservation",
                   cx.euler_characteristic(), homological)
    for (la, lb) in (("line-minus", "line-minus"), ("line-minus", "plane-i"),
                     ("plane-i", "plane-i")):
        cx, cy = complexes[la], complexes[lb]
        pa = character_euler(cx)
        pb = character_euler(cy)
        prod = products[{"line-minus": "line", "plane-i": "plane"}[la]
                        + "*" + {"line-minus": "line", "plane-i": "plane"}[lb]]
        crit.check(f"{la}*{lb}: blockwise Euler multiplicativity",
                   character_euler(prod),
                   (pa[0] * pb[0], pa[1] * pb[1], pa[2] * pb[2]))

    # tensor commutativity, unit laws, and tor[0] = tensor
    line_H0 = cohomology_table(complexes["line-minus"]).module(0)
    plane_H0 = cohomology_table(complexes["plane-i"]).module(0)
    catalog = [free_module(PG4, 1), restriction_module(PG4, 2),
               restriction_module(PG4, 1), line_H0, plane_H0]
    unit = free_module(PG4, 1)
    for M in catalog:
        crit.check("unit law", tensor_over_ring(unit, M).flatten(),
                   M.flatten())
    for M in catalog:
        for N in catalog:
            forward = tensor_over_ring(M, N).flatten()
            crit.check("tensor commutativity",
                       tensor_over_ring(N, M).flatten(), forward)
            crit.check("tor[0] = tensor", tor(M, N, 0)[0], forward)

    # lattice round trips: presenting a lattice-with-automorphism gives a
    # module whose flatten carries a conjugate action
    from test_repring import induced_action_conjugator, rotation_module
    from bredon.repring import LatticeModule

    cases = [
        rotation_module(),
        LatticeModule(PG4, 1, IntMatrix.identity(1)),
        LatticeModule(PG4, 4, IntMatrix.from_rows(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])),
        LatticeModule(PG4, 2, IntMatrix.from_rows([[0, 1], [1, 0]])),
    ]
    for L in cases:
        W, induced = induced_action_conjugator(L)
        crit.check_true("lattice round trip: conjugator is unimodular",
                        all(d == 1 for d in smith_diagonal(W)))
        crit.check("lattice round trip: action conjugate",
                   W * induced, L.action * W)

    crit.finish()
