"""A closed-form oracle for every `recover` and `oneway` row under the whole noise model.

Preparation noise is white noise of weight 1 - v, and for each interfering
pair (i, j) two Z-type terms: ZZ dephasing (d, {i, j}) and the pair source's
visibility flip ((1 - V)/2, {i}).  A term (w, S) applies Z on S with
probability w.  It flips the parity of a region Q iff |S & Q| is odd, so
independent terms compose to

    p_flip(Q) = (1 - eps) / 2,   eps = prod over odd terms of (1 - 2w).

A lost qubit leaves every support, but the regions below never hold it, so
it changes no parity.

- `recover`, one lost qubit: Q is the plan's target block, the lowest intact
  one.  The noiseless part gives p = 2^-(Z blocks + X steps) to a branch whose
  Z outcomes agree within every block, else 0, and the white part gives
  q = 2^-(total - 2) to every branch.  A Z flip of the target block is a
  logical error that costs 1 - <in|X|in>^2 of fidelity; a Z error on a
  Z-measured block only adds a global phase.
- `oneway`: Q is the loss case's readout, rotation and redundant photons.
  Every branch has probability 1/8; a Z on the helper or the erased photon
  does not reach the output.

The plan layout and the loss cases' photon roles are rebuilt here, not read
from the package.
"""

import math
from itertools import product

from hypothesis import example, given, settings, strategies as st

from losskit.cluster import rotation_sweep
from losskit.codes import CodeParams, LogicalInput, lab_pairs
from losskit.qsim import NoiseSpec
from losskit.recovery import recovery_sweep

TOL = 1e-12
CAP = CodeParams(2, 6)   # the 12-qubit cap
# (readout, rotation, redundant) photons of each loss case; photon k is qubit k - 1
ONEWAY_REGIONS = {"photon2": (1, 4, 5), "photon4": (1, 2, 3)}


def flip_probability(spec, region):
    """Probability that the spec's Z-type terms flip the parity of the qubits ``region``."""
    eps = 1.0
    for i, j in spec.pairs:
        for weight, support in ((spec.pair_dephasing_d, {i, j}),
                                ((1 - spec.epr_visibility) / 2, {i})):
            if len(support & region) % 2:
                eps *= 1 - 2 * weight
    return (1 - eps) / 2


def expected_recover_rows(inp, params, spec, losses):
    """``(input, lost, branch, probability, fidelity)`` of each nonzero recovery branch."""
    n, m, v = params.n, params.m, spec.white_noise_v
    x_in = 2 * (inp.a0.conjugate() * inp.a1).real   # <in|X|in>
    rows = []
    for lost in losses:
        target_block = 1 if lost < n else 0
        # Z steps: the survivors of each other block, in block and qubit order; then X steps
        z_sizes = [n - (b == lost // n) for b in range(m) if b != target_block]
        z_slices = [slice(sum(z_sizes[:i]), sum(z_sizes[:i + 1])) for i in range(len(z_sizes))]
        k = n * m - 2
        p, q = 2.0 ** -(len(z_sizes) + n - 1), 2.0 ** -k
        region = set(range(target_block * n, (target_block + 1) * n))
        f_z = 1 - flip_probability(spec, region) * (1 - x_in ** 2)
        for bits in product((0, 1), repeat=k):
            agree = all(len(set(bits[block])) == 1 for block in z_slices)
            prob = v * p * agree + (1 - v) * q
            if prob > 0:
                rows.append((inp.name, str(lost), "".join(map(str, bits)), prob,
                             (v * p * agree * f_z + (1 - v) * q / 2) / prob))
    return rows


def expected_oneway_rows(cases, alphas, spec):
    """``(input, lost, branch, probability, fidelity)`` of each rotation branch."""
    v = spec.white_noise_v
    rows = []
    for case in cases:
        region = {photon - 1 for photon in ONEWAY_REGIONS[case]}
        fidelity = v * (1 - flip_probability(spec, region)) + (1 - v) / 2
        rows += len(alphas) * [("phi5", case, "".join(map(str, bits)), 1 / 8, fidelity)
                               for bits in product((0, 1), repeat=3)]
    return rows


def assert_rows_match(got, expected):
    """Same rows in the same order, each probability and fidelity to ``TOL``."""
    assert [(r.input, r.lost, r.branch) for r in got] == [row[:3] for row in expected]
    for r, (*_, prob, fidelity) in zip(got, expected):
        assert abs(r.probability - prob) <= TOL, r
        assert abs(r.fidelity - fidelity) <= TOL, r


@st.composite
def noise_specs(draw, n_qubits):
    """The whole noise model on ``n_qubits``: v, d, V and a set of distinct pairs.

    v is 1 exactly or at most 0.99: just below 1, whether a disagreeing branch
    is kept depends on the engine's zero-probability threshold, not on the model.
    """
    v = draw(st.floats(0.0, 0.99)) if draw(st.booleans()) else 1.0
    qubit = st.integers(0, n_qubits - 1)
    pairs = draw(st.lists(st.tuples(qubit, qubit).filter(lambda ij: ij[0] != ij[1]),
                          unique=True, max_size=2 * n_qubits))
    return NoiseSpec(v, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), pairs)


@st.composite
def recover_cases(draw):
    """A code of at most 10 qubits, an input, a noise spec and one or two lost qubits."""
    n = draw(st.integers(2, 5))
    params = CodeParams(n, draw(st.integers(2, 10 // n)))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(-math.pi, math.pi))
    inp = LogicalInput.normalized(math.cos(theta / 2),
                                  complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2),
                                  "in")
    losses = draw(st.lists(st.integers(0, params.total - 1), min_size=1, max_size=2,
                           unique=True))
    return params, inp, draw(noise_specs(params.total)), losses


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recover_cases())
# the cap, every one of its 12 losses: 12 x 1024 rows under the lab's pairs
@example((CAP, LogicalInput.normalized(math.cos(0.5), complex(math.cos(0.7), math.sin(0.7))
                                       * math.sin(0.5), "in"),
          NoiseSpec(0.9, 0.05, 0.95, lab_pairs(CAP, "R")), list(range(CAP.total))))
def test_recovery_sweep_rows_follow_the_closed_form(case):
    params, inp, spec, losses = case
    got = recovery_sweep([inp], params, spec, losses=losses)
    assert_rows_match(got, expected_recover_rows(inp, params, spec, losses))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(noise_specs(5),
       st.lists(st.sampled_from(sorted(ONEWAY_REGIONS)), min_size=1, max_size=2, unique=True),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=3, unique=True))
def test_rotation_sweep_rows_follow_the_closed_form(spec, cases, alphas):
    got = rotation_sweep(cases, alphas, spec)
    assert [r.alpha for r in got] == [a for _ in cases for a in alphas for _ in range(8)]
    assert_rows_match(got, expected_oneway_rows(cases, alphas, spec))
