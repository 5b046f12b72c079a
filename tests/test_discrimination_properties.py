"""Property tests of the closed-form discrimination certificate on random,
repeated, nearly repeated and basis-state sets of six qubit kets."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ordergame.quantum import KET, certify_discrimination, haar_qubit_unitary  # noqa: E402

unit = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
settings = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def six_kets(draw):
    """Six unit kets, each random, a basis state of KET, or a copy or nudge of an earlier one."""
    kets = []
    for _ in range(6):
        kind = draw(st.sampled_from(("random", "basis", "copy", "nudge") if kets else ("random", "basis")))
        if kind == "random":
            theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
            kets.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))
        elif kind == "basis":
            kets.append(KET[draw(st.sampled_from(sorted(KET)))])
        else:
            ket = kets[draw(st.integers(0, len(kets) - 1))]
            if kind == "nudge":
                step = draw(st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3)))
                ket = ket + step * np.array([draw(unit) + 1j * draw(unit), draw(unit) + 1j * draw(unit)])
                ket = ket / np.linalg.norm(ket)
            kets.append(ket)
    return np.array(kets)


@settings
@hypothesis.given(st.lists(six_kets(), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
# a nudge of 1e-159: the pair's subnormal Gram entry left a primal residual of 5.9e-7
@hypothesis.example([np.array([KET["0"], [1.0, 9.82528408e-160], *[KET["0"]] * 4], dtype=complex)], 0)
def test_every_certificate_verifies(instances, seed):
    kets = np.array(instances)
    # certify_discrimination raises unless every check holds within 1e-9
    scan = certify_discrimination(kets)
    assert max(scan.max_primal_residual, scan.max_dual_violation, scan.max_gap) <= 1e-9
    assert np.all((1.0 / 6.0 - 1e-12 <= scan.values) & (scan.values <= 1.0 / 3.0 + 1e-12))
    # the optimum depends on the set of states, not on their order or frame
    rng = np.random.default_rng(seed)
    u = haar_qubit_unitary(rng)
    moved = certify_discrimination(kets[:, rng.permutation(6)] @ u.T)
    assert np.max(np.abs(moved.values - scan.values)) <= 1e-9
