"""The tensor fold, the product-complex oracle, and the derived page."""

import functools
import importlib.util
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_modules
from bredon.complexes import (
    CohomologyEntry,
    CohomologyTable,
    GcwBlock,
    block_module,
    bredon_cochain_complex,
    builtin_block,
    builtin_block_names,
    cohomology_table,
    validate_block,
)
from bredon.intlinalg import (
    FgAbGroup,
    IntMatrix,
    RowEchelonLattice,
    smith_diagonal,
    snf,
)
from bredon.pullback import (
    CollapseFailureError,
    _boundary_terms,
    _freed_map,
    PullbackSpec,
    TorsionObstructionError,
    compute_pullback_cohomology,
    em_e2,
    kunneth_tensor,
    product_complex,
    reduce_block,
    run_pullback,
)
from bredon.repring import (
    FpModule,
    direct_sum_modules,
    quotient_by_ideal,
    tensor_over_ring,
)

FLAGSHIP_ORDERS = sorted(set(itertools.permutations(
    ("line-minus", "line-minus", "plane-i", "plane-i"))))

VW_TABLE = {
    0: FgAbGroup(42, (2,) * 15),
    2: FgAbGroup(2, (2,) * 20 + (4, 4)),
    4: FgAbGroup(1, (2, 2, 2)),
}


def character_euler(complex_):
    """Euler characteristic split by rational character blocks.

    Returns (plus, minus, gauss) where the pieces count, per degree with
    sign, the dimensions of the eigenvalue-1 part, the eigenvalue minus-1
    part, and the remaining part (as dimension over the degree-two field)
    of the flattened modules.  Computed directly from ranks of shift - 1
    and shift + 1, independent of the tensor machinery.
    """
    from conftest import free_coordinates, shift_matrix

    plus = minus = gauss = 0
    for d in range(complex_.dimension + 1):
        module = complex_.modules[d]
        P, S, rank = free_coordinates(module)
        if rank == 0:
            continue
        act = P * shift_matrix(module) * S
        ident = IntMatrix.identity(rank)
        d_plus = rank - sum(1 for x in smith_diagonal(act - ident) if x)
        d_minus = rank - sum(1 for x in smith_diagonal(act + ident) if x)
        d_gauss = (rank - d_plus - d_minus) // 2
        sign = -1 if d % 2 else 1
        plus += sign * d_plus
        minus += sign * d_minus
        gauss += sign * d_gauss
    return plus, minus, gauss


class TestProductComplex:
    def test_line_squared_ranks(self, line_complex):
        pc = product_complex(line_complex, line_complex)
        assert pc.flattened_ranks() == [16, 8, 2]
        assert pc.euler_characteristic() == 10

    def test_point_is_unit(self, line_complex, plane_complex, point_complex):
        for cx in (line_complex, plane_complex):
            pc = product_complex(cx, point_complex)
            assert pc.flattened_ranks() == cx.flattened_ranks()

    def test_character_euler_multiplicative(self, line_complex, plane_complex):
        cases = [
            (line_complex, line_complex),
            (line_complex, plane_complex),
            (plane_complex, plane_complex),
        ]
        for cx, cy in cases:
            px, mx, gx = character_euler(cx)
            py, my, gy = character_euler(cy)
            pc = product_complex(cx, cy)
            assert character_euler(pc) == (px * py, mx * my, gx * gy)

    def test_line_euler_blocks(self, line_complex, plane_complex):
        assert character_euler(line_complex) == (1, 1, 2)
        assert character_euler(plane_complex) == (2, 3, 2)

    def test_d_squared_validated(self, line_complex, plane_complex):
        pc = product_complex(line_complex, plane_complex)
        assert validate_block(pc).ok


@settings(max_examples=40, deadline=None)
@given(st.lists(small_modules(), min_size=1, max_size=3))
def test_sum_of_pruned_modules_is_pruned(mods):
    # why the fold does not prune its sums: the summands' coordinates are
    # disjoint, so no relation of one lies in the span of the others
    S = direct_sum_modules([M.pruned() for M in mods])
    assert S.pruned().relations == S.relations


class TestProductBlock:
    def test_catalog_pairs_follow_the_gcd_rule(self):
        # each product module must present the same module as the ring
        # tensor of the factor modules, and the product must be a valid block
        for a, b in itertools.product(builtin_block_names(), repeat=2):
            X, Y = builtin_block(a), builtin_block(b)
            P = product_complex(X, Y)
            assert validate_block(P).ok
            for t in range(P.dimension + 1):
                pieces = [tensor_over_ring(block_module(X, i),
                                           block_module(Y, t - i))
                          for i in range(max(0, t - Y.dimension),
                                         min(X.dimension, t) + 1)]
                got = block_module(P, t).relation_lattice()
                want = direct_sum_modules(pieces).relation_lattice()
                assert all(got.contains(r) for r in want.basis_rows())
                assert all(want.contains(r) for r in got.basis_rows())

    def test_compare_script_covers_all_pairs(self, capsys):
        path = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
                / "compare_block_products.py")
        spec = importlib.util.spec_from_file_location("compare_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main() == 0
        out = capsys.readouterr().out
        pairs = list(itertools.combinations_with_replacement(
            builtin_block_names(), 2))
        assert len(pairs) == 6
        for a, b in pairs:
            assert f"{a} * {b}:" in out


CATALOG_SEQUENCES = [names for n in (2, 3, 4) for names
                     in itertools.product(builtin_block_names(), repeat=n)]


@functools.lru_cache(maxsize=None)
def unreduced(names):
    """The product of the named blocks, never reduced."""
    if len(names) == 1:
        return builtin_block(names[0])
    return product_complex(unreduced(names[:-1]),
                           builtin_block(names[-1]))


@functools.lru_cache(maxsize=None)
def reduced(names):
    """The accumulated product, reduced after each fold as run_pullback
    does it."""
    if len(names) == 1:
        return builtin_block(names[0])
    return reduce_block(product_complex(reduced(names[:-1]),
                                      builtin_block(names[-1])))


def groups(block):
    table = cohomology_table(bredon_cochain_complex(block))
    return [table.group(d) for d in range(block.dimension + 1)]


class TestReduceBlock:
    @pytest.mark.parametrize("names", CATALOG_SEQUENCES, ids="*".join)
    def test_fold_keeps_every_group(self, names):
        product = product_complex(reduced(names[:-1]),
                                  builtin_block(names[-1]))
        block = reduce_block(product)
        assert validate_block(block).ok
        assert block.dimension == product.dimension
        want = groups(unreduced(names))
        # the product of the reduced accumulation, and its reduction
        assert groups(product) == want
        assert groups(block) == want
        assert reduce_block(block) == block

    def test_flagship_last_reduction_is_pinned(self, monkeypatch, pg4,
                                               line_block, plane_block):
        import bredon.pullback

        seen = []

        def recording(block):
            seen.append(reduce_block(block))
            return seen[-1]
        monkeypatch.setattr(bredon.pullback, "reduce_block", recording)
        run_pullback(PullbackSpec(pg4, (line_block, line_block, plane_block,
                                        plane_block), full_product_oracle=True))
        ranks = [[sum(orders) for orders in block.cells] for block in seen]
        assert ranks == [[16, 6, 0], [34, 14, 1, 0, 0],
                         [74, 32, 2, 0, 1, 0, 0]]
        assert seen[-1] == reduced(
            ("line-minus", "line-minus", "plane-i", "plane-i"))

    def test_hand_block(self, pg4):
        # degree 0: x, c, p, z of order 4; degree 1: y, b, q, w of orders
        # 4, 2, 4, 2.  x -> y is the unit -eta and x -> b is 1; c -> y is
        # eta^2 + eta^3 and p -> q is 1 + eta, both non-units; z -> w is 1
        # between unequal isotropy orders
        src, tgt = (4, 4, 4, 4), (4, 2, 4, 2)
        terms = [[(0, 1, -1), (1, 0, 1)],
                 [(0, 2, 1), (0, 3, 1)],
                 [(2, 0, 1), (2, 1, 1)],
                 [(3, 0, 1)]]
        block = GcwBlock("hand", pg4, 1, (src, tgt),
                         (_freed_map(src, tgt, terms),))
        assert validate_block(block).ok
        out = reduce_block(block)
        # only x and y cancel; c -> b fills in with
        # -(1)(-eta^3)(eta^2 + eta^3) = eta^5 + eta^6 = eta + 1 mod eta^2 - 1
        assert out.cells == ((4, 4, 4), (2, 4, 2))
        assert _boundary_terms(out, 0) == [[(0, 0, 1), (0, 1, 1)],
                                           [(1, 0, 1), (1, 1, 1)],
                                           [(2, 0, 1)]]
        assert validate_block(out).ok
        assert groups(out) == groups(block)
        assert reduce_block(out) == out


class TestKunneth:
    def test_line_squared(self, line_table):
        A = kunneth_tensor(line_table, line_table)
        assert A.group(0) == FgAbGroup.free(10)
        assert all(A.group(d).is_trivial for d in A.degrees() if d != 0)

    def test_fold_two(self, line_table, plane_table):
        A = kunneth_tensor(line_table, line_table)
        B = kunneth_tensor(A, plane_table)
        assert B.group(0) == FgAbGroup(20, (2, 2, 2))
        assert B.group(2) == FgAbGroup(1, (2, 2, 2))
        M = B.module(0)
        assert quotient_by_ideal(M, 2).flatten() == FgAbGroup(4, (2,) * 16)
        assert quotient_by_ideal(M, 1).flatten() == FgAbGroup(1, (2,) * 10 + (4,))

    def test_tensor_chain_values(self, line_table, plane_table):
        A = kunneth_tensor(line_table, line_table)
        M = A.module(0)
        assert quotient_by_ideal(M, 2).flatten() == FgAbGroup(2, (2,) * 6)
        assert quotient_by_ideal(M, 1).flatten() == FgAbGroup(1, (2, 2, 2))

    def test_point_is_unit(self, line_table, plane_table, point_table):
        for table in (line_table, plane_table):
            out = kunneth_tensor(table, point_table)
            assert out.groups_equal(table)

    def test_associative_on_groups(self, line_table, plane_table):
        left = kunneth_tensor(kunneth_tensor(line_table, line_table),
                              plane_table)
        right = kunneth_tensor(line_table,
                               kunneth_tensor(line_table, plane_table))
        assert left.groups_equal(right)

    @pytest.mark.parametrize("order", FLAGSHIP_ORDERS, ids="-".join)
    def test_fold_sums_the_pieces(self, order, line_table, plane_table):
        # every fold entry is the plain sum of its pieces, with the group
        # a fresh flattening of that sum would give
        tables = [{"line-minus": line_table, "plane-i": plane_table}[name]
                  for name in order]
        acc = tables[0]
        for table in tables[1:]:
            out = kunneth_tensor(acc, table)
            for k in range(out.max_degree() + 1):
                module = out.module(k)
                pieces = [tensor_over_ring(acc.module(i), table.module(k - i))
                          for i in range(k + 1) if not acc.group(i).is_trivial
                          and not table.group(k - i).is_trivial]
                fresh = FpModule(module.group, module.ngens, module.relations)
                assert out.group(k) == fresh.flatten()
                if pieces:
                    assert module == direct_sum_modules(pieces).pruned()
                else:
                    assert module.ngens == 0
            acc = out

    def test_torsion_obstruction(self, line_table, pg4):
        torsion_only = CohomologyTable(pg4, {
            0: CohomologyEntry(FgAbGroup(0, (4,)), None)})
        with pytest.raises(TorsionObstructionError, match="degree 0"):
            kunneth_tensor(torsion_only, line_table)


class TestOracle:
    def test_line_pair_exact(self, line_complex, line_table):
        pc = product_complex(line_complex, line_complex)
        ct = cohomology_table(pc)
        kt = kunneth_tensor(line_table, line_table)
        assert kt.groups_equal(ct)

    def test_free_ranks_agree_on_all_pairs(self, line_complex, plane_complex,
                                           line_table, plane_table):
        # rationalized consistency: the fold and the product complex agree
        # on free ranks in every degree, even where torsion differs
        pairs = [
            (line_complex, line_complex, line_table, line_table),
            (line_complex, plane_complex, line_table, plane_table),
            (plane_complex, plane_complex, plane_table, plane_table),
        ]
        for cx, cy, tx, ty in pairs:
            ct = cohomology_table(product_complex(cx, cy))
            kt = kunneth_tensor(tx, ty)
            degrees = set(ct.entries) | set(kt.entries)
            for d in degrees:
                assert ct.group(d).free_rank == kt.group(d).free_rank

    def test_mixed_pair_torsion_difference(self, line_complex, plane_complex,
                                           line_table, plane_table):
        ct = cohomology_table(product_complex(line_complex, plane_complex))
        kt = kunneth_tensor(line_table, plane_table)
        assert kt.group(0) == FgAbGroup(12, (2,))
        assert ct.group(0) == FgAbGroup.free(12)


class TestDerivedPage:
    def test_zero_row_matches_kunneth(self, line_table, plane_table):
        page = em_e2(line_table, plane_table, 1)
        fold = kunneth_tensor(line_table, plane_table)
        for d in fold.degrees():
            assert page.entry(0, d) == fold.group(d)

    def test_free_side_kills_higher_rows(self, line_table, point_table):
        page = em_e2(line_table, point_table, 2)
        assert page.rows_above_zero() == []
        page = em_e2(point_table, line_table, 2)
        assert page.rows_above_zero() == []

    def test_line_pair_obstruction(self, line_table):
        page = em_e2(line_table, line_table, 2)
        assert page.entry(0, 0) == FgAbGroup.free(10)
        assert page.entry(1, 0) == FgAbGroup(0, (2, 2))
        assert page.entry(2, 0).is_trivial

    def test_plane_pair_page(self, plane_table):
        page = em_e2(plane_table, plane_table, 2)
        assert page.entry(0, 0) == FgAbGroup.free(18)
        assert page.entry(0, 2) == FgAbGroup(2, (2, 2, 4, 4))
        assert page.entry(0, 4) == FgAbGroup.free(1)
        assert page.entry(1, 0) == FgAbGroup(0, (2, 2, 4, 4))


@functools.lru_cache(maxsize=None)
def folded(names):
    """The table of the named catalog blocks, each fold's groups read off
    its derived page as run_pullback does it."""
    table = cohomology_table(builtin_block(names[-1]))
    if len(names) == 1:
        return table
    acc = folded(names[:-1])
    return kunneth_tensor(acc, table, em_e2(acc, table, 1))


class TestFoldFromPage:
    @pytest.mark.parametrize("names", CATALOG_SEQUENCES, ids="*".join)
    def test_page_fold_equals_the_eager_fold(self, names):
        acc = folded(names[:-1])
        table = cohomology_table(builtin_block(names[-1]))
        lazy = kunneth_tensor(acc, table, em_e2(acc, table, 1))
        eager = kunneth_tensor(acc, table)
        assert lazy.degrees() == eager.degrees()
        assert [lazy.group(k) for k in lazy.degrees()] == [
            eager.group(k) for k in eager.degrees()]
        for k in lazy.degrees():
            assert lazy.entries[k]._build is not None  # unbuilt until read
            module = lazy.module(k)
            assert module == eager.module(k)
            assert module.flatten() == eager.module(k).flatten()

    def test_last_fold_is_never_built(self, pg4, line_block, plane_block):
        run = run_pullback(PullbackSpec(
            pg4, (line_block, line_block, plane_block, plane_block),
            tor_depth=2))
        assert all(entry._build is not None
                   for entry in run.final.entries.values())
        assert run.final.group(0) == VW_TABLE[0]


class TestPipeline:
    def test_single_line(self, pg4, line_block):
        table = compute_pullback_cohomology(PullbackSpec(pg4, (line_block,)))
        assert table.group(0) == FgAbGroup.free(6)

    def test_point_squared(self, pg4, point_block):
        table = compute_pullback_cohomology(
            PullbackSpec(pg4, (point_block, point_block)))
        assert table.group(0) == FgAbGroup.free(4)

    def test_vafa_witten_fold(self, pg4, line_block, plane_block):
        spec = PullbackSpec(pg4, (line_block, line_block,
                                  plane_block, plane_block))
        table = compute_pullback_cohomology(spec)
        for d in table.degrees():
            assert table.group(d) == VW_TABLE.get(d, FgAbGroup.trivial())

    def test_fold_order_matches_reversal(self, pg4, line_block, plane_block):
        blocks = (line_block, line_block, plane_block, plane_block)
        fwd = compute_pullback_cohomology(PullbackSpec(pg4, blocks))
        rev = compute_pullback_cohomology(PullbackSpec(pg4, blocks[::-1]))
        assert fwd.groups_equal(rev)

    def test_strict_collapse_failure(self, pg4, line_block):
        spec = PullbackSpec(pg4, (line_block, line_block), tor_depth=1)
        with pytest.raises(CollapseFailureError, match="fold 1"):
            compute_pullback_cohomology(spec)

    def test_strict_oracle_success(self, pg4, line_block):
        # the line pair is the one fold whose oracle holds integrally
        spec = PullbackSpec(pg4, (line_block, line_block), oracle_check=True,
                            full_product_oracle=True)
        table = compute_pullback_cohomology(spec)
        assert table.group(0) == FgAbGroup.free(10)

    def test_strict_oracle_failure(self, pg4, line_block, plane_block):
        from bredon.pullback import OracleMismatchError

        spec = PullbackSpec(pg4, (line_block, plane_block), oracle_check=True)
        with pytest.raises(OracleMismatchError, match="degree 0"):
            compute_pullback_cohomology(spec)

    def test_full_oracle_records_line_pair(self, pg4, line_block):
        spec = PullbackSpec(pg4, (line_block, line_block),
                            full_product_oracle=True)
        run = run_pullback(spec)
        assert run.folds[0].oracle is not None
        assert run.folds[0].oracle.ok

    def test_full_oracle_vafa_witten_ranks(self, pg4, line_block, plane_block):
        spec = PullbackSpec(pg4, (line_block, line_block,
                                  plane_block, plane_block),
                            full_product_oracle=True)
        run = run_pullback(spec)
        last = run.folds[-1].oracle
        assert last is not None
        assert last.ranks_ok
        # the accumulated product complex has free cohomology
        complex_side = dict(zip(last.degrees, last.complex_groups))
        assert complex_side[0] == FgAbGroup.free(42)
        assert complex_side[2] == FgAbGroup.free(2)
        assert complex_side[4] == FgAbGroup.free(1)

    def test_at_least_one_block_required(self, pg4):
        with pytest.raises(ValueError):
            PullbackSpec(pg4, ())

    def test_engine_smith_inputs_match_the_dense_diagonal(
            self, monkeypatch, pg4, line_block, plane_block):
        # the relation columns of every fold piece (repring flattens them)
        # and every freed differential (complexes), as the certified
        # flagship run meets them
        import bredon.complexes
        import bredon.repring

        inputs = {}
        for module in (bredon.complexes, bredon.repring):
            seen = inputs[module.__name__] = []

            def recording(A, seen=seen):
                seen.append(A)
                return smith_diagonal(A)
            monkeypatch.setattr(module, "smith_diagonal", recording)
        run_pullback(PullbackSpec(
            pg4, (line_block, line_block, plane_block, plane_block),
            tor_depth=2, oracle_check=True, full_product_oracle=True))
        assert all(inputs.values())
        for seen in inputs.values():
            for A in seen:
                assert smith_diagonal(A) == snf(A).diagonal()


class TestCertificateWork:
    """The certificates compute each input once, and only what they read."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
        return calls

    def test_product_oracle_builds_no_product_module(
            self, monkeypatch, pg4, line_block, plane_block):
        import bredon.complexes

        calls = self.count_calls(monkeypatch, bredon.complexes,
                                 "present_lattice")
        blocks = (line_block, line_block, plane_block, plane_block)
        run_pullback(PullbackSpec(pg4, blocks))
        plain = len(calls)
        calls.clear()
        run = run_pullback(PullbackSpec(pg4, blocks, oracle_check=True,
                                        full_product_oracle=True))
        assert len(run.pair_oracles) == 3
        assert all(r.oracle is not None for r in run.folds)
        # the fold reads the block modules; the product tables are read
        # only for their groups, so none of their modules gets built
        assert plain > 0
        assert len(calls) == plain

    def test_fold_echelons_no_direct_sum_from_scratch(
            self, monkeypatch, pg4, line_block, plane_block):
        added = []  # the lattice of every add call, kept alive for id()
        add = RowEchelonLattice.add

        def counting(lattice, vec):
            added.append(lattice)
            add(lattice, vec)
        monkeypatch.setattr(RowEchelonLattice, "add", counting)
        run = run_pullback(PullbackSpec(
            pg4, (line_block, line_block, plane_block, plane_block)))
        touched = {id(lattice) for lattice in added}
        # the fold's sums carry echelons assembled from their pieces'
        for entry in run.final.entries.values():
            module = entry.module
            assert module._rel_lattice is not None
            assert id(module._rel_lattice) not in touched
        # each piece's relations are echelonned once
        assert len(added) <= 612

    def test_one_cochain_complex_per_distinct_block(
            self, monkeypatch, pg4, line_block, plane_block):
        import bredon.pullback

        calls = self.count_calls(monkeypatch, bredon.pullback,
                                 "bredon_cochain_complex")
        run = run_pullback(PullbackSpec(
            pg4, (line_block, line_block, plane_block, plane_block)))
        assert [args[0] for args in calls] == [line_block, plane_block]
        assert run.block_tables[0] is run.block_tables[1]
        assert run.block_tables[2] is run.block_tables[3]
