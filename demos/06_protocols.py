"""Protocol simulations: teleportation, superdense coding, QKD, processors."""

import numpy as np

from qitools.channels import make, unitary_channel
from qitools.protocols import (
    b92,
    bb84,
    mean_king,
    phase_damping_processor,
    private_quantum_channel,
    probabilistic_processor,
    processor_identity_check,
    processor_pair,
    superdense,
    teleport,
)
from qitools.rand import haar_unitary, random_density
from qitools.states import State

print("== Teleportation (d = 3) ==")
rep = teleport(State(random_density(3, np.random.default_rng(0))), rng=0)
deviation = max(abs(p - 1 / 9) for p in rep.summary["probabilities"])
# the deviation itself is rounding noise; print the bound it meets
bound = "< 1e-12" if deviation < 1e-12 else f"{deviation:.1e}"
print(f"{rep.rounds} Bell outcomes, probabilities all 1/9 (max deviation {bound})")
print(f"worst corrected output fidelity {rep.summary['min_fidelity']:.12f}")

print("\n== Superdense coding ==")
for message in range(4):
    rep = superdense(message)
    print(f"message {message:02b} decoded as {rep.summary['decoded']:02b} "
          f"with certainty; intercepted qubit is I/2")

print("\n== BB84 with and without an eavesdropper (20000 rounds, seed 7) ==")
clean = bb84(20000, eve="none", rng=7)
tapped = bb84(20000, eve="intercept_resend", rng=7)
print(f"sift rate ~ {clean.summary['sift_rate']:.3f}")
print(f"QBER without Eve: {clean.summary['qber']:.4f}")
print(f"QBER with intercept-resend Eve: {tapped.summary['qber']:.4f} (theory 0.25)")
print(f"Eve's correct-bit fraction: {tapped.summary['eve_correct_fraction']:.4f} (theory 0.75)")

print("\n== B92 on states with overlap 1/2 ==")
rep = b92(20000, 0.5, rng=7)
print(f"conclusive rate {rep.summary['conclusive_rate']:.4f} (theory 0.5), "
      f"errors among conclusive rounds: {rep.summary['conclusive_errors']}")

print("\n== Private quantum channel (d = 2) ==")
rep = private_quantum_channel(2, 6, rng=3)
print(f"keyless average channel = total contraction "
      f"(Choi deviation {rep.summary['keyless_choi_deviation']:.1e})")
print(f"key cost {rep.summary['key_bits_total']:.0f} bits for {rep.rounds} messages")

print("\n== Mean king ==")
rep = mean_king()
print(np.round(np.array(rep.summary["table"]), 2))
print(f"Alice guesses the king's outcome correctly with probability "
      f"{rep.summary['success_probability']:.0f}")

print("\n== Programming two channels on one processor ==")
proc, xi1, xi2 = processor_pair(make("depolarizing", d=2, p=0.25),
                                unitary_channel(haar_unitary(2, 1)))
total, scalar = processor_identity_check(proc.kraus_for_program(xi1),
                                         proc.kraus_for_program(xi2))
print(f"program overlap <Xi1|Xi2> = {scalar:.3f} (direct sum forces orthogonality)")

proc, xi_i, xi_u = phase_damping_processor()
print("phase damping family runs on a single two-dimensional program space")

print("\n== Probabilistic universal processor (d = 2) ==")
rep = probabilistic_processor(2, haar_unitary(2, 5), rng=5)
print(f"success probability {rep.summary['p_success']:.6f} (= 1/d^2), "
      f"conditional fidelity {rep.summary['min_fidelity']:.9f}")
