"""Pauli string algebra: products, commutation, generator sets, rendering."""
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabwit import (
    DimensionError,
    DomainError,
    GeneratorSet,
    PauliString,
    cluster_generators,
    ghz_generators,
    subgroup_product,
)

from oracles import dense_pauli, identify_pauli

paulis = lambda n: st.builds(
    PauliString.from_ops,
    st.text(alphabet="IXYZ", min_size=n, max_size=n),
    st.sampled_from([1, -1, 1j, -1j]),
)


def from_letters(letters, phase=1):
    return PauliString.from_ops(letters, phase)


class TestMultiply:
    def test_involution(self):
        x = from_letters("X")
        assert x * x == PauliString.identity(1)

    def test_xy_gives_iz(self):
        p = from_letters("X") * from_letters("Y")
        assert p.ops == "Z" and p.phase == 1j

    def test_ghz_generator_product(self):
        p = from_letters("ZZI") * from_letters("IZZ")
        assert str(p) == "+ZIZ"

    def test_matches_dense_oracle_exhaustively(self):
        # every phased pair on one site, every letter pair on two sites
        singles = [from_letters(c, ph) for c in "IXYZ" for ph in (1, -1, 1j, -1j)]
        for a, b in itertools.product(singles, repeat=2):
            got = a * b
            want = dense_pauli(a.ops) * a.phase @ (dense_pauli(b.ops) * b.phase)
            phase, ops = identify_pauli(want, 1)
            assert (got.ops, got.phase) == (ops, phase)
        doubles = ["".join(t) for t in itertools.product("IXYZ", repeat=2)]
        for sa, sb in itertools.product(doubles, repeat=2):
            got = from_letters(sa) * from_letters(sb)
            phase, ops = identify_pauli(dense_pauli(sa) @ dense_pauli(sb), 2)
            assert (got.ops, got.phase) == (ops, phase)

    def test_associative_exhaustive_three_sites(self):
        strings = [from_letters("".join(t))
                   for t in itertools.product("IXYZ", repeat=3)]
        for a, b, c in itertools.product(strings, repeat=3):
            assert (a * b) * c == a * (b * c)

    @given(a=paulis(6), b=paulis(6), c=paulis(6))
    def test_associative_random(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_associative_thousand_triples(self, rng):
        phases = [1, -1, 1j, -1j]
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            a, b, c = (
                PauliString.from_ops("".join(rng.choice(list("IXYZ"), size=n)),
                                     phases[int(rng.integers(4))])
                for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_identity_is_neutral(self):
        p = from_letters("XYZI", -1j)
        e = PauliString.identity(4)
        assert e * p == p and p * e == p

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            from_letters("X") * from_letters("XX")


class TestCommutes:
    def test_two_anticommuting_sites_commute(self):
        assert from_letters("XX").commutes(from_letters("ZZ"))

    def test_single_anticommuting_site(self):
        assert not from_letters("XI").commutes(from_letters("ZI"))

    def test_ghz_generators_pairwise(self):
        gens = ghz_generators(5).generators
        assert all(a.commutes(b) for a, b in itertools.product(gens, repeat=2))

    @given(a=paulis(4), b=paulis(4))
    def test_against_dense_oracle(self, a, b):
        ma = dense_pauli(a.ops)
        mb = dense_pauli(b.ops)
        assert a.commutes(b) == np.allclose(ma @ mb, mb @ ma)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            from_letters("XY").commutes(from_letters("X"))


class TestGenerators:
    def test_ghz_frozen_sets(self):
        assert [g.ops for g in ghz_generators(3).generators] == ["XXX", "ZZI", "IZZ"]
        assert [g.ops for g in ghz_generators(2).generators] == ["XX", "ZZ"]
        assert [g.ops for g in ghz_generators(4).generators] == \
            ["XXXX", "ZZII", "IZZI", "IIZZ"]

    def test_cluster_frozen_sets(self):
        assert [g.ops for g in cluster_generators(4).generators] == \
            ["XZII", "ZXZI", "IZXZ", "IIZX"]
        assert [g.ops for g in cluster_generators(2).generators] == ["XZ", "ZX"]
        assert [g.ops for g in cluster_generators(3).generators] == ["XZI", "ZXZ", "IZX"]

    def test_all_phases_positive(self):
        for n in range(2, 8):
            for make in (ghz_generators, cluster_generators):
                assert all(g.phase == 1 for g in make(n).generators)

    @pytest.mark.parametrize("make", [ghz_generators, cluster_generators])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_commuting_and_self_inverse(self, make, n):
        gens = make(n).generators
        for i, a in enumerate(gens):
            assert a * a == PauliString.identity(n)
            for b in gens[i + 1:]:
                assert a.commutes(b)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_domain_errors(self, n):
        with pytest.raises(DomainError):
            ghz_generators(n)
        with pytest.raises(DomainError):
            cluster_generators(n)

    def test_dependent_generators_rejected(self):
        a = from_letters("ZZI")
        b = from_letters("IZZ")
        with pytest.raises(DomainError):
            GeneratorSet(3, (a, b, a * b))


class TestSubgroupProduct:
    def test_empty_subset_is_identity(self):
        for make in (ghz_generators, cluster_generators):
            assert subgroup_product(make(4), 0) == PauliString.identity(4)

    def test_ghz_subset_23(self):
        # generators 2 and 3 of the n=3 set: ZZI * IZZ
        p = subgroup_product(ghz_generators(3), 0b110)
        assert str(p) == "+ZIZ"

    def test_cluster_subset_13(self):
        # XZI * IZX: the Z letters collide and cancel
        p = subgroup_product(cluster_generators(3), 0b101)
        assert str(p) == "+XIX"

    @pytest.mark.parametrize("make", [ghz_generators, cluster_generators])
    def test_matches_dense_oracle(self, make, rng):
        gens = make(4)
        for subset in rng.choice(16, size=8, replace=False):
            m = np.eye(16, dtype=complex)
            for k in range(4):
                if (int(subset) >> k) & 1:
                    m = m @ dense_pauli(gens.generators[k].ops)
            got = subgroup_product(gens, int(subset))
            phase, ops = identify_pauli(m, 4)
            assert (got.ops, got.phase) == (ops, phase)

    @pytest.mark.parametrize("make", [ghz_generators, cluster_generators])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_group_order(self, make, n):
        gens = make(n)
        elements = {subgroup_product(gens, s) for s in range(1 << n)}
        assert len(elements) == 1 << n
        # stabilizer group elements are Hermitian: phase +-1
        assert all(p.phase in (1, -1) for p in elements)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_single_setting_subsets_have_positive_phase(self, n):
        ghz = ghz_generators(n)
        for picks in range(1 << (n - 1)):
            assert subgroup_product(ghz, picks << 1).phase == 1
        cluster = cluster_generators(n)
        even = [k for k in range(2, n + 1, 2)]
        odd = [k for k in range(1, n + 1, 2)]
        for indices in (even, odd):
            for picks in range(1 << len(indices)):
                mask = sum(1 << (k - 1) for j, k in enumerate(indices)
                           if (picks >> j) & 1)
                assert subgroup_product(cluster, mask).phase == 1

    def test_bad_subset_mask(self):
        with pytest.raises(DomainError):
            subgroup_product(ghz_generators(3), 1 << 3)
        with pytest.raises(DomainError):
            subgroup_product(ghz_generators(3), -1)


class TestRendering:
    @pytest.mark.parametrize("text", ["+XZI", "-XYZ", "+iXY", "-iZZ", "+I"])
    def test_str_round_trip(self, text):
        assert str(PauliString.parse(text)) == text

    def test_parse_without_sign(self):
        assert PauliString.parse("XZI") == PauliString.parse("+XZI")

    @given(p=paulis(5))
    def test_parse_inverts_str(self, p):
        assert PauliString.parse(str(p)) == p

    @pytest.mark.parametrize("bad", ["", "+", "ABC", "X Z", "+jXX", "++XX"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            PauliString.parse(bad)

    def test_ops_and_letter_at(self):
        p = PauliString.parse("-iXYZI")
        assert p.ops == "XYZI"
        assert [p.letter_at(q) for q in (1, 2, 3, 4)] == ["X", "Y", "Z", "I"]
        assert p.phase == -1j

    def test_bad_phase(self):
        with pytest.raises(DomainError):
            PauliString.from_ops("XX", phase=2)
