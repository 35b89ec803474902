"""The private quantum channel encodes and decodes all messages at once."""

import numpy as np
import pytest

from qitools.discrimination import fidelity
from qitools.linalg import dag, outer
from qitools.protocols import ShiftMultiplyBasis, private_quantum_channel
from qitools.rand import (
    haar_unitaries,
    haar_unitary,
    random_density,
    random_hermitian,
    random_ket,
    random_kets,
    random_kraus_ops,
)


def pqc_by_message(d, n_messages, seed):
    """Reference per-message loop: (key, decode fidelity) for each message.

    The keys are drawn first, as one block; then one ket per message.
    """
    rng = np.random.default_rng(seed)
    basis = ShiftMultiplyBasis.build(d)
    keys = basis.keys
    picks = rng.integers(len(keys), size=n_messages)
    out = []
    for pick in picks:
        key = keys[int(pick)]
        u = basis.unitaries[int(pick)]
        message = random_ket(d, rng)
        cipher = u @ outer(message) @ dag(u)
        decoded = dag(u) @ cipher @ u
        out.append((key, fidelity(decoded, outer(message))))
    return out


@pytest.mark.parametrize("n_messages", [0, 1, 50])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_pqc_matches_per_message_loop(d, n_messages):
    for seed in (0, 17):
        rep = private_quantum_channel(d, n_messages, rng=seed)
        expected = pqc_by_message(d, n_messages, seed)
        assert [r["key"] for r in rep.records] == [k for k, _ in expected]
        lowest = rep.summary["min_decode_fidelity"]
        assert isinstance(lowest, float)
        assert abs(lowest - min((f for _, f in expected), default=1.0)) <= 1e-12


def test_batched_pqc_accepts_a_generator():
    rep = private_quantum_channel(3, 20, rng=np.random.default_rng(5))
    assert [r["key"] for r in rep.records] == [k for k, _ in pqc_by_message(3, 20, 5)]
    assert rep.seed == "external-generator"


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_keyless_choi_deviation_reports_zero_below_atol(d):
    rep = private_quantum_channel(d, 3, rng=1)
    assert rep.summary["keyless_choi_deviation"] == 0.0


@pytest.mark.parametrize("draw", [
    lambda d: random_ket(d, 0),
    lambda d: haar_unitaries(d, 3, 0),
    lambda d: haar_unitary(d, 0),
    lambda d: random_kets([d], 3, 0),
    lambda d: random_kets([2, d], 3, 0),
    lambda d: random_density(d, 0),
    lambda d: random_hermitian(d, 0),
])
@pytest.mark.parametrize("d", [0, -2])
def test_random_draws_reject_nonpositive_dimension(draw, d):
    with pytest.raises(ValueError, match="^dimension must be a positive integer$"):
        draw(d)


@pytest.mark.parametrize("rank", [0, -1])
def test_random_density_rejects_nonpositive_rank(rank):
    with pytest.raises(ValueError, match="^rank must be a positive integer$"):
        random_density(2, 0, rank=rank)


@pytest.mark.parametrize("draw", [
    lambda n: haar_unitaries(2, n, 0),
    lambda n: random_kets([2], n, 0),
], ids=["haar_unitaries", "random_kets"])
def test_random_stacks_reject_negative_count(draw):
    with pytest.raises(ValueError, match="^count must be a non-negative integer$"):
        draw(-1)
    assert np.size(draw(0)) == 0


@pytest.mark.parametrize("draw, name", [
    (lambda v: haar_unitaries(2, v, 0), "count"),
    (lambda v: random_kets([2], v, 0), "count"),
    (lambda v: random_kraus_ops(2, 0, count=v), "count"),
    (lambda v: random_density(2, 0, rank=v), "rank"),
    (lambda v: random_ket(v, 0), "dimension"),
])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True, np.random.default_rng(0)])
def test_random_draws_reject_a_non_integer_size(draw, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        draw(value)


def test_random_draws_accept_numpy_integer_sizes():
    two = np.int64(2)
    assert haar_unitaries(2, two, 0).shape == (2, 2, 2)
    assert random_kets([two], two, 0)[0].shape == (2, 2)
    assert len(random_kraus_ops(two, 0, count=two)) == 2
    assert random_density(two, 0, rank=np.int32(1)).shape == (2, 2)


def test_random_optional_sizes_are_keyword_only():
    # the generator in the count slot used to fail inside a comparison
    with pytest.raises(ValueError, match="^count must be an integer, got Generator"):
        random_kets((2,), np.random.default_rng(0), 3)
    with pytest.raises(TypeError):
        random_kraus_ops(2, 0, 2)
    with pytest.raises(TypeError):
        random_density(2, 0, 1)


def test_pqc_rejects_negative_message_count():
    with pytest.raises(ValueError, match="^n_messages must be a non-negative integer$"):
        private_quantum_channel(2, -1, rng=0)
    assert private_quantum_channel(2, 0, rng=0).records == ()
