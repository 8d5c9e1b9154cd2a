"""Pauli algebra checked against dense matrices.

Every algebraic claim (products, phases, commutation) is compared with the
literal 2^n x 2^n matrix computation for small n, so the bitmask arithmetic
never has to be trusted on its own.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcode_lt.pauli import (
    DimensionError,
    MeasurementPattern,
    PauliOperator,
    PauliSpan,
    commutes_qubitwise,
    fits,
    iter_bits,
    packed,
    spread,
)

from _oracles import (
    dense,
    pattern_from_chars,
    pauli_from_letters,
    pauli_from_string,
    span_contains,
    symplectic_rank,
)


def all_ops(n: int, phases=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for p in phases:
                yield PauliOperator(n, x, z, p)


# -- products and phases ------------------------------------------------


def test_product_matches_dense_exhaustive_two_qubits():
    ops = list(all_ops(2, phases=(0, 1, 2, 3)))
    for a in ops:
        for b in ops:
            got = dense(a * b)
            want = dense(a) @ dense(b)
            assert np.allclose(got, want), (a, b)


def test_product_matches_dense_sampled_three_qubits():
    rng = np.random.default_rng(7)
    for _ in range(300):
        xa, za, xb, zb = (int(v) for v in rng.integers(0, 8, size=4))
        pa, pb = (int(v) for v in rng.integers(0, 4, size=2))
        a = PauliOperator(3, xa, za, pa)
        b = PauliOperator(3, xb, zb, pb)
        assert np.allclose(dense(a * b), dense(a) @ dense(b))


def test_known_products():
    x = pauli_from_string("X")
    z = pauli_from_string("Z")
    y = pauli_from_string("Y")
    assert (x * z).to_string() == "-iY"
    assert (z * x).to_string() == "+iY"
    assert (x * y).to_string() == "+iZ"
    assert x * x == PauliOperator(1)
    assert (y * y) == PauliOperator(1)


def test_path_graph_generator_product():
    # K_0 K_1 on the two-vertex path: (X tensor Z)(Z tensor X) = Y tensor Y
    k0 = pauli_from_string("XZ")
    k1 = pauli_from_string("ZX")
    prod = k0 * k1
    assert prod.to_string() == "+YY"
    assert np.allclose(dense(prod), dense(k0) @ dense(k1))


def test_constructor_masks_to_n_qubits_and_phase_mod_4():
    assert PauliOperator(2, 0b111, 0b100, 7) == (2, 0b11, 0, 3)
    assert PauliOperator(3, -1, -2, -1) == (3, 0b111, 0b110, 3)


def test_string_round_trip():
    for text in ["+XIZY", "-YYZ", "+iXZ", "-iIII", "+I"]:
        assert pauli_from_string(text).to_string() == text


def test_single_letter_constructor():
    op = PauliOperator(4, 1 << 2, 1 << 2, 1)  # Y = i X Z on qubit 2
    assert op.to_string() == "+IIYI"
    assert op.weight == 1
    assert op.support == 4


def test_commutes_matches_dense():
    ops = list(all_ops(2))
    for a in ops:
        for b in ops:
            da, db = dense(a), dense(b)
            want = np.allclose(da @ db, db @ da)
            assert a.commutes(b) == want, (a, b)


def test_dimension_mismatch_raises():
    a = pauli_from_string("XX")
    b = pauli_from_string("X")
    with pytest.raises(DimensionError):
        _ = a * b
    with pytest.raises(DimensionError):
        a.commutes(b)


# -- hypothesis properties ------------------------------------------------

op_strategy = st.builds(
    PauliOperator,
    st.just(4),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 3),
)


@given(op_strategy, op_strategy, op_strategy)
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(op_strategy)
def test_square_is_real_identity(a):
    sq = a * a
    assert sq.x == 0 and sq.z == 0
    assert sq.phase in (0, 2)


@given(op_strategy, op_strategy)
def test_commutation_symmetric(a, b):
    assert a.commutes(b) == b.commutes(a)


@given(op_strategy, op_strategy)
def test_weight_subadditive(a, b):
    assert (a * b).weight <= a.weight + b.weight


# -- qubit-wise commutation ------------------------------------------------

_STATUSES = ".XYZA_"


def _qubitwise_reference(letters, statuses, completed):
    for q, letter in enumerate(letters):
        if letter == "I":
            continue
        st_q = statuses[q]
        if st_q == ".":
            if completed:
                return False
            continue
        if st_q == "_":
            return False
        if st_q != letter:
            return False
    return True


def test_qubitwise_commutation_definition():
    # letter A stands for an arbitrary-basis reading, which only fits()
    # takes; Pauli letter strings also go through commutes_qubitwise
    for statuses in itertools.product(_STATUSES, repeat=3):
        pattern = pattern_from_chars("".join(statuses))
        for letters in itertools.product("IXYZA", repeat=3):
            # letter k of (X, Y, Z, A) on qubit q packs to bit q + 3k
            need = sum(1 << (q + 3 * "XYZA".index(ch))
                       for q, ch in enumerate(letters) if ch != "I")
            for completed in (True, False):
                want = _qubitwise_reference(letters, statuses, completed)
                got = fits(need, pattern.letters if completed
                           else pattern.allowed())
                assert got == want, (letters, statuses, completed)
                if "A" in letters:
                    continue
                op = pauli_from_letters("".join(letters))
                assert op.masks == need
                got = commutes_qubitwise(op, pattern, completed)
                assert got == want, (letters, statuses, completed)


def test_pattern_updates_are_functional():
    m = MeasurementPattern(3)
    m2 = m.measure(1, "X")
    assert m.unmeasured == 0b111
    assert m2.unmeasured == 0b101
    m3 = m2.lose(0)
    assert [m3.status(q) for q in range(3)] == ["lost", "X", "unmeasured"]
    with pytest.raises(ValueError):
        m3.measure(0, "Z")
    # a basis is one of the letters X, Y, Z and A
    for basis in ("fusion", "F", "I", "x"):
        with pytest.raises(ValueError):
            m3.measure(2, basis)
    m4 = m3.lose(2)
    with pytest.raises(ValueError):
        m4.lose(2)


def _allowed_reference(statuses, prospective: bool, n: int) -> int:
    """``allowed`` one letter at a time: letter k of XYZA on qubit q is
    bit q + k*n."""
    bits = 0
    for q, status in enumerate(statuses):
        for k, letter in enumerate("XYZA"):
            if status == letter or prospective and status == "unmeasured":
                bits |= 1 << q + k * n
    return bits


def test_pattern_walks_place_letters_at_other_lengths():
    # at n = 3 a wrong q + 3k and the right q + k*n place the same bits
    rng = random.Random(23)
    for n in (5, 9, 14):
        for _ in range(20):
            pattern, statuses = MeasurementPattern(n), ["unmeasured"] * n
            for q in rng.sample(range(n), rng.randint(0, n)):
                for basis in ("XY", "a"):
                    with pytest.raises(ValueError):
                        pattern.measure(q, basis)
                if rng.random() < 0.25:
                    pattern, statuses[q] = pattern.lose(q), "lost"
                else:
                    basis = rng.choice("XYZA")
                    pattern, statuses[q] = pattern.measure(q, basis), basis
                assert [pattern.status(i) for i in range(n)] == statuses
                for prospective in (True, False):
                    assert ((pattern.allowed() if prospective
                             else pattern.letters)
                            == _allowed_reference(statuses, prospective, n))
                twin = pattern_from_chars(pattern.chars())
                assert twin == pattern and hash(twin) == hash(pattern)


def _packed_reference(x: int, z: int, n: int) -> int:
    """``packed`` one qubit at a time."""
    bits = 0
    for q in range(n):
        letter = "IXZY"[x >> q & 1 | (z >> q & 1) << 1]
        if letter != "I":
            bits |= 1 << q + "XYZA".index(letter) * n
    return bits


def test_packed_and_spread_on_ints_and_uint64_arrays():
    # n = 16 fills all 64 bits of a uint64 with the four letters
    rng = random.Random(29)
    for n in (5, 14, 16):
        x = [rng.getrandbits(n) for _ in range(50)]
        z = [rng.getrandbits(n) for _ in range(50)]
        want = [_packed_reference(a, b, n) for a, b in zip(x, z)]
        assert [packed(a, b, n) for a, b in zip(x, z)] == want
        assert [PauliOperator(n, a, b).masks for a, b in zip(x, z)] == want
        got = packed(np.array(x, np.uint64), np.array(z, np.uint64), n)
        assert got.dtype == np.uint64 and got.tolist() == want
        for letters in ("XYZA", "A", "XZ", "Y"):
            want = [sum(1 << q + "XYZA".index(ch) * n
                        for q in iter_bits(a) for ch in letters) for a in x]
            assert [spread(a, n, letters) for a in x] == want
            got = spread(np.array(x, np.uint64), n, letters)
            assert got.dtype == np.uint64 and got.tolist() == want


def test_pattern_statuses_round_trip():
    statuses = ["X", "lost", "A", "unmeasured", "Z"]
    m = pattern_from_chars("X_A.Z")
    assert [m.status(i) for i in range(5)] == statuses
    assert m.chars() == "X_A.Z"
    for chars in ("XF", "X?", "I"):
        with pytest.raises(ValueError):
            pattern_from_chars(chars)


# -- span and rank ----------------------------------------------------------


def _brute_span(ops):
    n = ops[0].n
    members = {(0, 0)}
    for bits in range(1, 1 << len(ops)):
        acc = PauliOperator(n)
        for i in iter_bits(bits):
            acc = acc * ops[i]
        members.add((acc.x, acc.z))
    return members


def test_span_membership_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        gens = [
            PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        want = _brute_span(gens)
        span = PauliSpan(n, gens)
        assert len(want) == 1 << len(span.rows)
        for x in range(1 << n):
            for z in range(1 << n):
                op = PauliOperator(n, x, z)
                assert span_contains(span, op) == ((op.x, op.z) in want)


def test_symplectic_rank_examples():
    ops = [pauli_from_string(s) for s in ["XX", "ZZ", "YY"]]
    assert symplectic_rank(ops) == 2  # XX * ZZ = YY up to phase
    assert symplectic_rank([]) == 0
    assert symplectic_rank([PauliOperator(3)]) == 0


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]
