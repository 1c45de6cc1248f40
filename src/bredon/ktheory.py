"""Topological K-theory and K-homology from even-concentrated cohomology.

When the Bredon cohomology of the classifying space is concentrated in
even degrees, the Atiyah-Hirzebruch spectral sequence collapses and the
equivariant K-groups are the even and odd sums.  Dualizing with the
universal coefficient sequence gives Bredon homology and, through the
homological spectral sequence, equivariant K-homology.  Identifying the
K-homology of the classifying space with the K-theory of the reduced
group C*-algebra uses the Baum-Connes isomorphism, which is recorded as a
cited assumption and never computed.
"""

from __future__ import annotations

from .complexes import CohomologyTable
from .intlinalg import FgAbGroup, _Value, hom_ext_z
from .pullback import PullbackRun, PullbackSpec, run_pullback

BAUM_CONNES_ASSUMPTION = (
    "K_*(C*_r(Gamma)) is identified with the equivariant K-homology of the "
    "classifying space for proper actions through the Baum-Connes assembly "
    "map, an isomorphism here by results of Higson-Kasparov (a-T-menability); "
    "recorded as an assumption, not computed."
)


class KTheoryResult(_Value):
    """Equivariant K-theory in degrees 0 and 1.

    When ``collapsed`` is false the sums are only upper bounds read off
    the second page, never asserted as the actual K-groups.
    """

    __slots__ = ("k0", "k1", "collapsed")

    def __init__(self, k0: FgAbGroup, k1: FgAbGroup, collapsed: bool):
        self.k0, self.k1, self.collapsed = k0, k1, collapsed


def ahss_collapse(H: CohomologyTable) -> KTheoryResult:
    """Collapse the Atiyah-Hirzebruch spectral sequence when possible.

    The sequence collapses exactly when all odd-degree entries vanish; in
    that case K^0 and K^1 are the even and odd sums.  Otherwise the sums
    are reported with ``collapsed = False`` as bounds only.
    """
    k0, k1 = _even_odd_sums({d: H.group(d) for d in H.degrees()})
    return KTheoryResult(k0, k1, collapsed=k1.is_trivial)


def _even_odd_sums(groups: dict):
    """The direct sums of the even-degree and of the odd-degree groups."""
    sums = [FgAbGroup.trivial(), FgAbGroup.trivial()]
    for d, g in sorted(groups.items()):
        sums[d % 2] = sums[d % 2].direct_sum(g)
    return sums


def uct_dualize(H: CohomologyTable) -> dict:
    """Bredon homology from cohomology by the universal coefficient sequence.

    Degree-n homology is Hom(H^n, Z) plus Ext(H^(n+1), Z); for an
    all-free table this returns the table itself.  Torsion in degree
    n + 1 therefore shows up in homological degree n, possibly degree -1.
    """
    out = {}
    degrees = H.degrees()
    if not degrees:
        return out
    for n in range(min(degrees) - 1, max(degrees) + 1):
        hom, _ = hom_ext_z(H.group(n))
        _, ext = hom_ext_z(H.group(n + 1))
        value = hom.direct_sum(ext)
        if not value.is_trivial:
            out[n] = value
    return out


def homology_k_groups(homology: dict) -> KTheoryResult:
    """K-homology sums from a Bredon homology table (homological page)."""
    k0, k1 = _even_odd_sums(homology)
    collapsed = k1.is_trivial and all(d >= 0 for d in homology)
    return KTheoryResult(k0, k1, collapsed=collapsed)


class FullReport:
    """The end-to-end result of a pullback run.

    Carries the cohomology table, both K-theory results, the homology
    table, all computed certificates and the recorded assumption that
    identifies K-homology with the K-theory of the reduced C*-algebra.
    """

    __slots__ = ("spec", "run", "cohomology", "k_theory", "homology",
                 "k_homology", "assumptions", "notes")

    def __init__(self, spec: PullbackSpec, run: PullbackRun,
                 cohomology: CohomologyTable, k_theory: KTheoryResult,
                 homology: dict, k_homology: KTheoryResult, assumptions: tuple,
                 notes: list | None = None):
        self.spec, self.run, self.cohomology = spec, run, cohomology
        self.k_theory, self.k_homology = k_theory, k_homology
        self.homology, self.assumptions = homology, assumptions
        self.notes = [] if notes is None else notes


def full_report(spec: PullbackSpec) -> FullReport:
    """Run the pipeline end to end and assemble the report.

    Certificate failures are recorded in the report rather than raised,
    so the report always describes exactly what was computed.
    """
    run = run_pullback(spec)
    H = run.final
    kt = ahss_collapse(H)
    homology = uct_dualize(H)
    kh = homology_k_groups(homology)
    notes = []
    if not kt.collapsed:
        notes.append("odd-degree cohomology present: K-theory sums are "
                     "second-page bounds, not computed K-groups")
    if not kh.collapsed:
        notes.append("homology is not concentrated in even nonnegative "
                     "degrees: K-homology sums are second-page bounds")
    notes.extend(str(failure) for failure in run.failures())
    return FullReport(spec, run, H, kt, homology, kh,
                      (BAUM_CONNES_ASSUMPTION,), notes)
