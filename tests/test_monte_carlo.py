"""The batched Monte-Carlo paths: stacked Haar draws, the chunked twirl
estimate, the table-driven BB84/B92 rounds and private-quantum-channel
messages with their shared read-only records, and the chunked
private-quantum-channel decode."""

import copy
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from qitools.channels import KrausChannel
from qitools.entanglement import _TWIRL_BATCH, _TWIRL_BLOCK, twirl, twirl_monte_carlo
from qitools.linalg import ATOL, dag, is_unitary, tensor
from qitools.protocols import (_PQC_BATCH, _b92_tables, _bb84_tables, _pqc_templates,
                               _shift_multiply, b92, bb84, private_quantum_channel)
from qitools.rand import (_gram_schmidt, _haar_columns, _haar_normals, haar_unitaries,
                          haar_unitary, random_density, random_kets, random_kraus_ops)


def _haar_reference(d, seed):
    """Single-matrix LAPACK QR with the phases of diag(R) divided out, from
    the same normal draws; haar_unitary agrees with it to rounding."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj(), z


@pytest.mark.parametrize("d", range(1, 9))
def test_haar_unitary_is_first_stacked_sample(d):
    for seed in range(5):
        u = haar_unitary(d, seed)
        assert np.array_equal(u, haar_unitaries(d, 1, seed)[0])
        expected, z = _haar_reference(d, seed)
        assert np.abs(u - expected).max() < 1e-12
        # Defining property: Z = U R with R upper triangular, diag(R) > 0.
        r = dag(u) @ z
        assert np.abs(np.tril(r, -1)).max(initial=0.0) < 1e-12
        assert np.abs(np.diag(r).imag).max() < 1e-12
        assert np.diag(r).real.min() > 0


@pytest.mark.parametrize("d", range(1, 5))
def test_haar_stack_matches_per_sample_reference(d):
    # Sample m is built from its own slice of the one (2, count, d, d)
    # normal block, so a mix-up of the sample order fails here.
    count = 5
    for seed in range(3):
        z = np.random.default_rng(seed).standard_normal((2, count, d, d))
        g = (z[0] + 1j * z[1]) / np.sqrt(2)
        us = haar_unitaries(d, count, seed)
        assert us.shape == (count, d, d)
        for m in range(count):
            q, r = np.linalg.qr(g[m])
            expected = q * (np.diag(r) / np.abs(np.diag(r))).conj()
            assert np.abs(us[m] - expected).max() < 1e-12


@pytest.mark.parametrize("d", [*range(1, 9), 16])
def test_haar_unitaries_unitarity_residual(d):
    us = haar_unitaries(d, 64, d)
    residual = np.abs(np.swapaxes(us.conj(), 1, 2) @ us - np.eye(d)).max()
    # Two passes keep this at rounding; one pass already reaches ~5e-14 at d=8.
    assert residual <= 1e-14


@pytest.mark.parametrize("d, n", [(4, 4), (5, 5)])
def test_random_kraus_ops_trace_preserving_at_large_dilation(d, n):
    # d*n = 16 and 25: one Gram-Schmidt pass loses orthogonality here.
    ops = random_kraus_ops(d, np.random.default_rng(d), count=n)
    assert len(ops) == n
    assert KrausChannel(ops).is_trace_preserving(ATOL)


def test_haar_unitaries_are_unitary():
    us = haar_unitaries(3, 50, np.random.default_rng(1))
    assert us.shape == (50, 3, 3)
    assert all(is_unitary(u) for u in us)


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_monte_carlo_single_sample(d):
    x = random_density(d * d, np.random.default_rng(2))
    uu = tensor(haar_unitary(d, 5), haar_unitary(d, 5))
    assert np.abs(twirl_monte_carlo(x, d, 1, rng=5) - uu @ x @ dag(uu)).max() < 1e-12


def twirl_per_chunk(x, d, samples, seed):
    """The twirl with one _haar_columns draw per _TWIRL_BATCH samples, the
    arithmetic of each chunk unchanged: the draw order without blocks."""
    rng = np.random.default_rng(seed)
    acc = np.zeros_like(x)
    for start in range(0, samples, _TWIRL_BATCH):
        q = _haar_columns(d, min(_TWIRL_BATCH, samples - start), rng)
        uu = (q[:, None, :, None, :] * q[None, :, None, :, :]).reshape(d * d, d * d, -1)
        y = (uu.reshape(d * d, -1).T @ x).reshape(d * d, -1)
        acc += y @ uu.transpose(2, 0, 1).conj().reshape(-1, d * d)
    return acc / samples


# Sample counts on both sides of the chunk and block edges.
EDGE_SAMPLES = [1, 255, 256, 257, 300, 2047, 2048, 2049, 5000]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_twirl_monte_carlo_is_bitwise_the_per_chunk_draws(d, samples):
    x = random_density(d * d, np.random.default_rng(d))
    expected = twirl_per_chunk(x, d, samples, 11)
    assert np.array_equal(twirl_monte_carlo(x, d, samples, rng=11), expected)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_block_drawn_gram_schmidt_is_bitwise_the_chunk_draws(d):
    k, n = _TWIRL_BLOCK, 37
    block = _gram_schmidt(_haar_normals(d, n, np.random.default_rng(d), k))
    rng = np.random.default_rng(d)
    chunks = np.concatenate([_haar_columns(d, n, rng) for _ in range(k)], axis=-1)
    assert block.shape == (d, d, k * n)
    assert np.array_equal(block, chunks)


def test_twirl_monte_carlo_matches_per_sample_loop():
    d = 2
    x = random_density(4, np.random.default_rng(3))
    for samples in EDGE_SAMPLES:
        rng = np.random.default_rng(4)
        sizes = [min(_TWIRL_BATCH, samples - s) for s in range(0, samples, _TWIRL_BATCH)]
        us = np.concatenate([haar_unitaries(d, n, rng) for n in sizes])
        expected = sum(tensor(u, u) @ x @ dag(tensor(u, u)) for u in us) / samples
        assert np.abs(twirl_monte_carlo(x, d, samples, rng=4) - expected).max() < 1e-12, samples


@pytest.mark.parametrize("d", [3, 4])
def test_twirl_monte_carlo_matches_per_sample_loop_in_higher_dimension(d):
    samples = 300
    x = random_density(d * d, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    sizes = [min(_TWIRL_BATCH, samples - s) for s in range(0, samples, _TWIRL_BATCH)]
    us = np.concatenate([haar_unitaries(d, n, rng) for n in sizes])
    expected = sum(tensor(u, u) @ x @ dag(tensor(u, u)) for u in us) / samples
    assert np.abs(twirl_monte_carlo(x, d, samples, rng=10) - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_monte_carlo_partial_chunk_agrees_with_twirl(d):
    samples = 300  # not a multiple of the chunk size
    x = random_density(d * d, np.random.default_rng(6))
    err = twirl_monte_carlo(x, d, samples, rng=7) - twirl(x)
    # |(U(x)U) x (U(x)U)^dag|_jk^2 summed over k has mean twirl(x^2)_jj.
    row_var = np.real(np.diag(twirl(x @ x)))
    sigma = np.sqrt(np.minimum.outer(row_var, row_var) / samples)
    assert np.all(np.abs(err.real) <= 5 * sigma)
    assert np.all(np.abs(err.imag) <= 5 * sigma)


def test_twirl_monte_carlo_rejects_bad_input():
    x = random_density(4, np.random.default_rng(8))
    with pytest.raises(ValueError, match="^samples must be a positive integer$"):
        twirl_monte_carlo(x, 2, 0)
    with pytest.raises(ValueError, match=r"^expected a 9 x 9 matrix, got \(4, 4\)$"):
        twirl_monte_carlo(x, 3, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_twirls_reject_non_finite_operator(bad):
    x = random_density(4, np.random.default_rng(8))
    x[1, 2] = bad
    with pytest.raises(ValueError, match=r"operator\[6\]: entries must be finite"):
        twirl(x)
    with pytest.raises(ValueError, match=r"operator\[6\]: entries must be finite"):
        twirl_monte_carlo(x, 2, 10)


@pytest.mark.parametrize("samples", [2.5, 3.0, "3", None])
def test_twirl_monte_carlo_rejects_non_integer_samples(samples):
    x = random_density(4, np.random.default_rng(8))
    with pytest.raises(ValueError, match="samples must be an integer"):
        twirl_monte_carlo(x, 2, samples)


def test_twirl_monte_carlo_accepts_numpy_integer_samples():
    x = random_density(4, np.random.default_rng(8))
    assert np.array_equal(twirl_monte_carlo(x, 2, np.int64(7), rng=1),
                          twirl_monte_carlo(x, 2, 7, rng=1))


def test_bb84_table_is_built_once_and_read_only():
    _bb84_tables.cache_clear()
    cold = [bb84(500, eve=eve, rng=3).to_dict() for eve in ("none", "intercept_resend")]
    table = _bb84_tables()[0]
    warm = [bb84(500, eve=eve, rng=3).to_dict() for eve in ("none", "intercept_resend")]
    assert cold == warm
    assert _bb84_tables()[0] is table
    assert _bb84_tables.cache_info().misses == 1
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    # p_one[bit, prepared basis, measured basis]: exact where the bases agree.
    assert np.array_equal(table[:, [0, 1], [0, 1]], [[0.0, 0.0], [1.0, 1.0]])
    assert np.abs(table[:, [0, 1], [1, 0]] - 0.5).max() < 1e-15


@pytest.mark.parametrize("fraction", [1.5, -0.5, float("nan")])
def test_bb84_rejects_bad_sample_fraction(fraction):
    with pytest.raises(ValueError, match="sample_fraction"):
        bb84(10, sample_fraction=fraction)


def test_bb84_sample_fraction_endpoints():
    none = bb84(400, rng=1, sample_fraction=0.0)
    assert none.summary["released_count"] == 0 and none.summary["qber"] == 0.0
    every = bb84(400, rng=1, sample_fraction=1.0)
    assert all(r["released"] == r["sifted"] for r in every.records)


@pytest.mark.parametrize("eve", ["none", "intercept_resend"])
def test_bb84_records_agree_with_summary(eve):
    rep = bb84(3000, eve=eve, rng=12)
    recs = rep.records
    assert len(recs) == rep.rounds == 3000
    assert all(r["sifted"] == (r["alice_basis"] == r["bob_basis"]) for r in recs)
    assert all(r["sifted"] for r in recs if r["released"])
    sifted = [r for r in recs if r["sifted"]]
    released = [r for r in sifted if r["released"]]
    assert rep.summary["sift_rate"] == len(sifted) / rep.rounds
    assert rep.summary["released_count"] == len(released)
    assert rep.summary["qber"] == np.mean([r["alice_bit"] != r["bob_bit"] for r in released])
    if eve == "none":
        assert all(r["alice_bit"] == r["bob_bit"] for r in sifted)
        assert all(r["eve_bit"] is None for r in recs)
        assert rep.summary["eve_correct_fraction"] is None
    else:
        fraction = np.mean([r["eve_bit"] == r["alice_bit"] for r in sifted])
        assert rep.summary["eve_correct_fraction"] == fraction


def test_b92_records_agree_with_summary():
    rep = b92(3000, 0.3, rng=13)
    conclusive = [r for r in rep.records if r["outcome"] != "?"]
    assert rep.summary["conclusive_rate"] == len(conclusive) / rep.rounds
    assert all(r["bob_bit"] == int(r["outcome"]) - 1 for r in conclusive)
    assert all(r["bob_bit"] is None for r in rep.records if r["outcome"] == "?")
    errors = sum(r["bob_bit"] != r["alice_bit"] for r in conclusive)
    assert rep.summary["conclusive_errors"] == errors == 0


# Reference record builders: one dict literal per round from the same draws,
# as the protocols built their records before the templates.

def bb84_reference(rounds, eve, seed, sample_fraction):
    rng = np.random.default_rng(seed)
    p_one = _bb84_tables()[0]
    a_basis, b_basis, x = rng.integers(2, size=(3, rounds))
    sent_bit, sent_basis, eve_col = x, a_basis, [None] * rounds
    if eve == "intercept_resend":
        e_basis = rng.integers(2, size=rounds)
        eve_bit = (rng.random(rounds) < p_one[x, a_basis, e_basis]).astype(int)
        sent_bit, sent_basis, eve_col = eve_bit, e_basis, eve_bit.tolist()
    y = (rng.random(rounds) < p_one[sent_bit, sent_basis, b_basis]).astype(int)
    sifted = a_basis == b_basis
    released = sifted & (rng.random(rounds) < sample_fraction)
    return [
        {
            "alice_basis": ab,
            "bob_basis": bb,
            "alice_bit": xa,
            "bob_bit": yb,
            "eve_bit": eb,
            "sifted": sf,
            "released": rl,
        }
        for ab, bb, xa, yb, eb, sf, rl in zip(
            a_basis.tolist(), b_basis.tolist(), x.tolist(), y.tolist(),
            eve_col, sifted.tolist(), released.tolist(),
        )
    ]


def b92_reference(rounds, overlap, seed):
    rng = np.random.default_rng(seed)
    cdf = _b92_tables(float(overlap))[0]
    outcomes = ("1", "2", "?")  # those of unambiguous_two_pure, in the order of cdf
    x = rng.integers(2, size=rounds)
    idx = (rng.random(rounds)[:, None] >= cdf[x]).sum(axis=1)
    bob_of = [None if o == "?" else int(o) - 1 for o in outcomes]
    return [
        {"alice_bit": xa, "outcome": outcomes[k], "bob_bit": bob_of[k]}
        for xa, k in zip(x.tolist(), idx.tolist())
    ]


def pqc_reference(d, n_messages, seed):
    return [{"key": key} for key, _ in pqc_messages(d, n_messages, seed)]


def pqc_messages(d, n_messages, seed):
    """(key, decode fidelity) per message, from all keys and all kets drawn at once."""
    rng = np.random.default_rng(seed)
    basis = _shift_multiply(d)
    picks = rng.integers(len(basis.keys), size=n_messages)
    (kets,) = random_kets([d], n_messages, rng)
    u = basis.unitaries[picks]
    decoded = u.conj().transpose(0, 2, 1) @ (u @ kets[:, :, None])
    fidelities = np.abs((kets.conj() * decoded[:, :, 0]).sum(axis=1))
    return [(basis.keys[j], f) for j, f in zip(picks.tolist(), fidelities.tolist())]


def assert_same_records(got, expected):
    """Equal records with equal key order and the same type for every value."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        assert list(g) == list(e)
        assert [type(v) for v in g.values()] == [type(v) for v in e.values()]


@pytest.mark.parametrize("eve", ["none", "intercept_resend"])
@pytest.mark.parametrize("fraction", [0.0, 0.25, 1.0])
def test_bb84_records_match_the_dict_literal_reference(eve, fraction):
    for seed in range(10):
        rep = bb84(400, eve=eve, rng=seed, sample_fraction=fraction)
        assert_same_records(rep.records, bb84_reference(400, eve, seed, fraction))


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.5, 0.9])
def test_b92_records_match_the_dict_literal_reference(overlap):
    for seed in range(10):
        assert_same_records(b92(400, overlap, rng=seed).records, b92_reference(400, overlap, seed))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pqc_records_match_the_numpy_scalar_reference(d):
    for seed in range(10):
        rep = private_quantum_channel(d, 40, rng=seed)
        assert_same_records(rep.records, pqc_reference(d, 40, seed))


SHARED_PROTOCOLS = [
    (lambda: bb84(300, eve="intercept_resend", rng=4),
     lambda: bb84_reference(300, "intercept_resend", 4, 0.25)),
    (lambda: bb84(300, rng=4), lambda: bb84_reference(300, "none", 4, 0.25)),
    (lambda: b92(300, 0.3, rng=4), lambda: b92_reference(300, 0.3, 4)),
    (lambda: private_quantum_channel(3, 300, rng=4), lambda: pqc_reference(3, 300, 4)),
    (lambda: private_quantum_channel(2, 257, rng=5), lambda: pqc_reference(2, 257, 5)),
]

MUTATIONS = [
    lambda r: r.__setitem__("alice_bit", 99),
    lambda r: r.__delitem__("alice_bit"),
    lambda r: r.clear(),
    lambda r: r.pop("alice_bit"),
    lambda r: r.popitem(),
    lambda r: r.setdefault("extra", 1),
    lambda r: r.update(alice_bit=99),
]


@pytest.mark.parametrize("protocol, reference", SHARED_PROTOCOLS)
def test_shared_records_are_read_only(protocol, reference):
    rep = protocol()
    record = rep.records[0]
    for mutate in MUTATIONS:
        with pytest.raises(TypeError, match=r"read-only; use dict\(record\)"):
            mutate(record)
    with pytest.raises(TypeError, match="read-only"):
        record |= {"alice_bit": 99}  # __ior__
    copied = dict(record)
    copied["alice_bit"] = 99
    assert type(copied) is dict and copied != record
    assert isinstance(record, dict)
    assert_same_records(protocol().records, reference())


@pytest.mark.parametrize("protocol, reference", SHARED_PROTOCOLS)
def test_shared_records_round_trip(protocol, reference):
    rep = protocol()
    for clone in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert clone == rep
        assert type(clone.records[0]) is type(rep.records[0])
        assert_same_records(clone.records, reference())
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["records"] == json.loads(json.dumps(reference())) and doc["rounds"] == rep.rounds


@pytest.mark.parametrize("protocol, templates, count", [
    (lambda: bb84(100_000, eve="intercept_resend", rng=1), lambda: _bb84_tables()[1], 96),
    (lambda: private_quantum_channel(10, 100_000, rng=3), lambda: _pqc_templates(10), 100),
], ids=["bb84", "pqc"])
def test_long_reports_share_the_templates(protocol, templates, count):
    templates = templates()  # built outside the trace
    tracemalloc.start()
    try:
        rep = protocol()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rep.records) == 100_000
    assert len({id(r) for r in rep.records}) <= len(templates) == count
    assert all(any(r is t for t in templates) for r in rep.records[:200])
    # One pointer per round; a dict per round held about 28 MB.
    assert held < 4e6


def test_shared_records_are_a_tuple_gathered_from_a_read_only_table():
    for protocol, _ in SHARED_PROTOCOLS:
        assert type(protocol().records) is tuple
    for templates in (_bb84_tables()[1], _b92_tables(0.3)[1], _pqc_templates(3)):
        assert templates.dtype == object and not templates.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            templates[0] = {}


def test_pqc_decode_memory_does_not_grow_with_the_messages():
    private_quantum_channel(10, 1)  # build the per-d tables outside the trace
    tracemalloc.start()
    try:
        rep = private_quantum_channel(10, 100_000, rng=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.records) == 100_000
    # A chunk's kets and gathered U and U^dag take 16 d^2 _PQC_BATCH bytes or
    # less each (1.6 MB), and the key picks, fidelities and records 0.8 MB
    # each.  Drawing every ket at once peaked at about 50 MB here, and
    # gathering U and U^dag for every message took 16 d^2 bytes each way per
    # message.
    assert peak < 10e6


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_pqc_chunks_decode_the_whole_stream(d):
    for n in (0, 1, _PQC_BATCH, _PQC_BATCH + 1, 2 * _PQC_BATCH + 3):
        rep = private_quantum_channel(d, n, rng=n)
        messages = pqc_messages(d, n, n)
        assert_same_records(rep.records, [{"key": key} for key, _ in messages])
        # The kets of consecutive chunks are the rows of one draw: the same bits.
        assert rep.summary["min_decode_fidelity"] == min((f for _, f in messages), default=1.0)


def test_b92_bob_bits_follow_the_templates():
    for overlap in (0.0, 0.3, 0.9):
        _, templates, bits = _b92_tables(overlap)
        assert not bits.flags.writeable
        assert bits.tolist() == [-1 if r["bob_bit"] is None else r["bob_bit"]
                                 for r in templates]


def test_record_templates_are_built_once_per_process():
    _bb84_tables.cache_clear()
    _b92_tables.cache_clear()
    _pqc_templates.cache_clear()
    for seed in range(3):
        for eve in ("none", "intercept_resend"):
            bb84(200, eve=eve, rng=seed)
        for overlap in (0.3, 0.5):
            b92(200, overlap, rng=seed)
        for d in (2, 3):
            private_quantum_channel(d, 200, rng=seed)
    assert _bb84_tables.cache_info().misses == 1
    assert len(_bb84_tables()[1]) == 96
    assert _b92_tables.cache_info().misses == 2
    assert _b92_tables.cache_info().maxsize is not None
    assert _pqc_templates.cache_info().misses == 2
    assert _pqc_templates.cache_info().maxsize is not None
    assert [r["key"] for r in _pqc_templates(3)] == list(_shift_multiply(3).keys)
    cdf, templates, _ = _b92_tables(0.5)
    assert len(templates) == 2 * cdf.shape[1]
