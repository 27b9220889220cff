"""Keystream, constellation, and encoder checks.

The scalar register and per-symbol encoder in ``codec_oracles`` are checked
against fixed reference values here, then serve as the oracle for the
package's array encoder.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_oracles as scalar
import entropy_oracles as oracle
import fock_oracles
from yzero import codec


def prime_factors(n: int) -> "set[int]":
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_degree4_reference_sequence():
    ks = scalar.Keystream(0x13, 0b0001, 1)
    bits = [ks.step() for _ in range(15)]
    assert bits == [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1]
    assert ks.register == 0b0001
    # the unit row of seed 2^0 at one bit per symbol is the same output
    assert codec.unit_keystreams(0x13, 15, 1)[0].tolist() == bits


def test_degree4_visits_every_nonzero_state():
    ks = scalar.Keystream(0x13, 1, 1)
    seen = set()
    for _ in range(15):
        seen.add(ks.register)
        ks.step()
    assert seen == set(range(1, 16))


@pytest.mark.parametrize("degree", sorted(d for d in codec.PRIMITIVE_POLYS if d <= 16))
def test_registered_polynomials_have_full_period(degree):
    period = (1 << degree) - 1
    ks = scalar.Keystream(codec.PRIMITIVE_POLYS[degree], 1, 1)
    # the order of the state map divides 2^d - 1; ruling out every maximal
    # proper divisor certifies the order is exactly 2^d - 1
    marks = {period // q for q in prime_factors(period)}
    early_return = False
    for step in range(1, period + 1):
        ks.step()
        if step in marks and ks.register == 1:
            early_return = True
    assert not early_return
    assert ks.register == 1


def test_keystream_properties_and_validation():
    ks = scalar.Keystream(0x11D, 0xA5, 3)
    assert ks.degree == 8
    assert ks.taps == 0x1D
    with pytest.raises(ValueError):
        scalar.Keystream(0x11D, 0, 3)
    with pytest.raises(ValueError):
        scalar.Keystream(0x11D, 0x100, 3)
    with pytest.raises(ValueError):
        scalar.Keystream(0x10, 1, 1)  # constant term absent
    with pytest.raises(ValueError):
        scalar.Keystream(0x3, 1, 1)  # degree below 2
    with pytest.raises(ValueError):
        scalar.Keystream(0x11D, 1, 0)
    with pytest.raises(ValueError):
        scalar.Keystream(0x11D, 1, 1, osk=True)  # no room for a scramble bit
    # the unit rows refuse the same polynomials and chunk widths
    for poly, bits in ((0x10, 1), (0x3, 1), (0x11D, 0)):
        with pytest.raises(ValueError):
            codec.unit_keystreams(poly, 4, bits)


def test_keystream_next_assembles_msb_first():
    ks = scalar.Keystream(0x11D, 0x5B, 3)
    ref = scalar.Keystream(0x11D, 0x5B, 3)
    for _ in range(40):
        k, parity, scramble = scalar.keystream_next(ks)
        b = [ref.step() for _ in range(3)]
        assert k == (b[0] << 2) | (b[1] << 1) | b[2]
        assert parity == b[2]
        assert scramble == 0


def test_keystream_next_osk_splits_trailing_bit():
    ks = scalar.Keystream(0x11D, 0x5B, 3, osk=True)
    ref = scalar.Keystream(0x11D, 0x5B, 3)
    for _ in range(40):
        k, parity, scramble = scalar.keystream_next(ks)
        b = [ref.step() for _ in range(3)]
        assert k == (b[0] << 1) | b[1]
        assert parity == b[1]
        assert scramble == b[2]


def test_keystream_copy_steps_in_lockstep():
    ks = scalar.Keystream(0x1053, 0x321, 4, osk=True)
    dup = ks.copy()
    assert dup.osk and dup.bits_per_symbol == 4
    for _ in range(30):
        assert ks.step() == dup.step()


def test_keystream_table_matches_scalar_stepping():
    rng = np.random.default_rng(2024)
    for osk in (False, True):
        seeds = rng.integers(1, 256, size=7, dtype=np.uint32)
        table, parity, scramble = oracle.keystream_table(
            0x11D, 12, 3, seeds=seeds, osk=osk)
        for row, seed in enumerate(seeds):
            ks = scalar.Keystream(0x11D, int(seed), 3, osk=osk)
            for t in range(12):
                k, p, s = scalar.keystream_next(ks)
                assert table[row, t] == k
                assert parity[row, t] == p
                assert scramble[row, t] == s


def test_keystream_table_defaults_to_all_nonzero_seeds():
    table, parity, scramble = oracle.keystream_table(0x13, 5, 2)
    assert table.shape == (15, 5)
    npt.assert_array_equal(scramble, np.zeros((15, 5), dtype=np.uint8))
    npt.assert_array_equal(parity, (table & 1).astype(np.uint8))


def test_keystream_table_input_checks():
    with pytest.raises(ValueError):
        oracle.keystream_table((1 << 25) | 0b11, 4, 1)
    with pytest.raises(ValueError):
        oracle.keystream_table(0x13, 4, 1, seeds=np.array([0], dtype=np.uint32))
    with pytest.raises(ValueError):
        oracle.keystream_table(0x13, 4, 1, seeds=np.array([16], dtype=np.uint32))


def test_halfplane_label_quadrants_and_ties():
    assert codec.halfplane_label(math.pi / 2) == 1
    assert codec.halfplane_label(3 * math.pi / 2) == 0
    # on-axis ties: the axis point is up, its antipode is down
    assert codec.halfplane_label(0.0) == 1
    assert codec.halfplane_label(math.pi) == 0
    assert codec.halfplane_label(-math.pi / 2 + 2 * math.pi) == 0
    assert codec.halfplane_label(0.3 + 6 * math.pi) == 1


def test_constellation_geometry():
    for m in (1, 2, 8):
        c = codec.Constellation(m=m, energy=4.0)
        assert c.n_states == 2 * m
        # state j sits at phase pi j / M from the label axis
        npt.assert_allclose(c.amplitudes(), 2.0 * np.exp(1j * math.pi * np.arange(2 * m) / m),
                            rtol=0.0, atol=1e-15)
        labels = np.array([c.label(j) for j in range(2 * m)])
        npt.assert_array_equal(labels[:m], np.ones(m, dtype=labels.dtype))
        npt.assert_array_equal(labels[m:], np.zeros(m, dtype=labels.dtype))


def test_constellation_validation():
    with pytest.raises(ValueError):
        codec.Constellation(m=12, energy=1.0)
    with pytest.raises(ValueError):
        codec.Constellation(m=0, energy=1.0)
    with pytest.raises(ValueError):
        codec.Constellation(m=4, energy=-1.0)
    with pytest.raises(ValueError):
        codec.Constellation(m=4, energy=math.nan)
    with pytest.raises(ValueError):
        codec.Constellation(m=4, energy=1.0).label(8)


def test_encode_exhaustive_truth_table():
    c = codec.Constellation(m=8, energy=2.0)
    table = codec._pair_index_table(c)
    for basis in range(8):
        parity = basis & 1
        for bit in (0, 1):
            rec = scalar.encode(bit, basis, 0, c)
            assert rec.basis == basis and rec.bit == bit and rec.parity == parity
            assert rec.index in (basis, basis + 8)
            assert table[bit, basis] == rec.index
            # transmitted half-plane label is the line bit: data XOR parity
            assert rec.label == bit ^ parity
            assert c.label(rec.index) == rec.label


def test_encode_pair_member_selection():
    table = codec._pair_index_table(codec.Constellation(m=8, energy=2.0))
    # even basis: bit 1 lands on the upper half-plane member
    assert table[1, 2] == 2
    assert table[0, 2] == 10
    # odd basis: the parity flip sends bit 1 to the lower member
    assert table[1, 3] == 11
    assert table[0, 3] == 3


def test_encode_scramble_flip_matches_bit_flip():
    c = codec.Constellation(m=8, energy=2.0, osk=True)
    plain = codec.Constellation(m=8, energy=2.0)
    for basis in range(8):
        for bit in (0, 1):
            assert scalar.encode(bit, basis, 1, c).index == \
                scalar.encode(bit ^ 1, basis, 0, plain).index
            assert scalar.encode(bit, basis, 0, c).index == \
                scalar.encode(bit, basis, 0, plain).index
    with pytest.raises(ValueError):
        scalar.encode(0, 0, 1, plain)
    with pytest.raises(ValueError):
        scalar.encode(0, 8, 0, c)
    with pytest.raises(ValueError):
        scalar.encode(2, 0, 0, c)


def test_encode_sequence_line_bits_are_data_xor_parity():
    c = codec.Constellation(m=4, energy=1.0)
    ref = scalar.Keystream(0x11D, 0x3C, 2)
    rng = np.random.default_rng(55)
    bits = rng.integers(0, 2, size=64, dtype=np.uint8)
    indices = codec.encode_sequence(bits, 0x11D, 0x3C, c)
    for index, bit in zip(indices, bits):
        k, parity, _ = scalar.keystream_next(ref)
        assert index % c.m == k
        assert c.label(index) == bit ^ parity


def test_encode_sequence_zero_data_reads_out_parity_stream():
    c = codec.Constellation(m=4, energy=1.0)
    indices = codec.encode_sequence(np.zeros(40, dtype=np.uint8), 0x11D, 0x3C, c)
    npt.assert_array_equal(c.label(indices), scalar.parity_stream(0x11D, 0x3C, 2, 40))


def test_encode_sequence_width_and_flag_checks():
    c = codec.Constellation(m=4, energy=1.0)
    zeros = np.zeros(4, dtype=np.uint8)
    assert codec.encode_sequence(zeros, 0x11D, 0xFF, c).shape == (4,)
    for poly, seed in ((0x11D, 0), (0x11D, 0x100), (0x10, 1), (0x3, 1)):
        with pytest.raises(ValueError):
            codec.encode_sequence(zeros, poly, seed, c)
    for bits in ([0, 2], [0, -1], [0.5], [[0, 1]]):
        with pytest.raises(ValueError):
            codec.encode_sequence(bits, 0x11D, 1, c)
    # no basis bit at m = 1; no scrambling bit in the encoder
    for bad in (codec.Constellation(m=1, energy=1.0),
                codec.Constellation(m=4, energy=1.0, osk=True)):
        with pytest.raises(ValueError):
            codec.encode_sequence(zeros, 0x11D, 1, bad)


def test_encode_sequence_osk_uses_scramble_bit():
    # the oracle's scrambling encoder, the basis of bit_bound(osk) = 1/2
    c = codec.Constellation(m=4, energy=1.0, osk=True)
    ks = scalar.Keystream(0x11D, 0x3C, 3, osk=True)
    ref = ks.copy()
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 5, dtype=np.uint8)
    records = scalar.encode_records(bits, ks, c)
    for rec, bit in zip(records, bits):
        k, parity, s = scalar.keystream_next(ref)
        assert rec.basis == k
        assert rec.osk_flip == s
        assert c.label(rec.index) == (bit ^ s) ^ parity
        assert rec.label == (bit ^ s) ^ parity
    with pytest.raises(ValueError):
        scalar.encode_records(bits, scalar.Keystream(0x11D, 1, 3), c)


@st.composite
def encoder_cases(draw):
    degree = draw(st.integers(2, 20))
    poly = (1 << degree) | draw(st.integers(0, (1 << (degree - 1)) - 1)) << 1 | 1
    bits_per_basis = draw(st.integers(1, 9))
    n = draw(st.integers(1, 64))
    seed = draw(st.integers(1, (1 << degree) - 1))
    data = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return poly, bits_per_basis, seed, np.array(data, dtype=np.uint8)


@settings(max_examples=150, deadline=None)
@given(encoder_cases())
def test_encode_sequence_and_unit_rows_match_the_scalar_oracle(case):
    poly, bits_per_basis, seed, data = case
    n = data.size
    units = codec.unit_keystreams(poly, n, bits_per_basis)
    want = scalar.unit_keystreams(poly, n, bits_per_basis)
    assert units.dtype == want.dtype
    npt.assert_array_equal(units, want)
    c = codec.Constellation(m=1 << bits_per_basis, energy=1.0)
    npt.assert_array_equal(codec.encode_sequence(data, poly, seed, c),
                           scalar.scalar_indices(data, poly, seed, c))


def test_bit_ensembles_osk_states_indistinguishable():
    c = codec.Constellation(m=8, energy=3.0, osk=True)
    r0, r1, rt = fock_oracles.bit_ensembles(c, p0=0.5, tol=1e-10)
    assert np.max(np.abs(r0.entries - r1.entries)) < 1e-12
    npt.assert_allclose(np.trace(rt.entries).real, 1.0, atol=1e-9)


def test_bit_ensembles_plain_states_differ():
    c = codec.Constellation(m=8, energy=3.0)
    r0, r1, _ = fock_oracles.bit_ensembles(c, p0=0.5, tol=1e-10)
    assert np.max(np.abs(r0.entries - r1.entries)) > 1e-3


def test_bit_ensembles_single_basis_is_antipodal_pair():
    c = codec.Constellation(m=1, energy=2.0)
    r0, r1, _ = fock_oracles.bit_ensembles(c, p0=0.5, tol=1e-12)
    dim = r0.entries.shape[0]
    v1 = fock_oracles.coherent_fock(math.sqrt(2.0) + 0j, dim)
    v0 = fock_oracles.coherent_fock(-math.sqrt(2.0) + 0j, dim)
    npt.assert_allclose(r1.entries, np.outer(v1.coeffs, v1.coeffs.conj()), atol=1e-9)
    npt.assert_allclose(r0.entries, np.outer(v0.coeffs, v0.coeffs.conj()), atol=1e-9)


def test_bit_ensembles_zero_energy_is_vacuum():
    c = codec.Constellation(m=4, energy=0.0)
    _, _, rt = fock_oracles.bit_ensembles(c, p0=0.5, tol=1e-12)
    vac = np.zeros_like(rt.entries)
    vac[0, 0] = 1.0
    npt.assert_allclose(rt.entries, vac, atol=1e-12)


def test_bit_ensembles_total_state_is_prior_mixture():
    c = codec.Constellation(m=4, energy=2.0)
    r0, r1, rt = fock_oracles.bit_ensembles(c, p0=0.3, tol=1e-10)
    npt.assert_allclose(rt.entries, 0.3 * r0.entries + 0.7 * r1.entries, atol=1e-12)
    with pytest.raises(ValueError):
        fock_oracles.bit_ensembles(c, p0=1.5, tol=1e-10)
