import dataclasses
import hashlib
import re

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

import kestenlab as kl
from kestenlab.env_models import (MATRIX_FAMILIES, NOT_CHECKABLE, VECTOR_FAMILIES,
                                  ConfigurationError, build_law, random_rotations)
from kestenlab.rng import substream


def test_scalar_two_point_support(scalar_env):
    m, q = kl.sample_pairs(scalar_env, substream(1), 2000)
    assert set(np.unique(m)) == {0.5, 2.0}
    assert set(np.unique(q)) == {-1.0, 1.0}


def test_similarity_norm_equals_scale(similarity_env):
    m = similarity_env.matrix_law.sample(substream(2), 500)
    norms = np.linalg.norm(m, ord=2, axis=(-2, -1))
    # |vM| = c for every unit v: the operator norm must be an atom of c
    assert np.all(np.isin(np.round(norms, 10), (0.5, 2.0)))
    v = np.array([0.6, 0.8])
    vm_norms = np.linalg.norm(np.einsum("j,njk->nk", v, m), axis=1)
    assert np.allclose(vm_norms, norms, atol=1e-12)


# Haar on SO(d), d >= 2: E tr R = 0, E (tr R)^2 = 1 (2 at d = 2) and
# E R_ij^2 = 1/d.  Each estimate must lie within Z standard errors of its value.
Z = 5.0
HAAR_DRAWS = 100_000


def _within(x, value):
    return abs(x.mean() - value) <= Z * x.std() / np.sqrt(len(x))


@pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 2)])
def test_rotation_moments_are_haar(dim, seed):
    rot = random_rotations(substream(seed), HAAR_DRAWS, dim)
    trace = np.trace(rot, axis1=1, axis2=2)
    assert _within(trace, 0.0)
    assert _within(trace ** 2, 2.0 if dim == 2 else 1.0)
    for i in range(dim):
        for j in range(dim):
            assert _within(rot[:, i, j] ** 2, 1.0 / dim)


@pytest.mark.parametrize("seed", [3, 4])
def test_rotation_angle_is_uniform_at_d2(seed):
    rot = random_rotations(substream(seed), HAAR_DRAWS, 2)
    angle = np.arctan2(rot[:, 1, 0], rot[:, 0, 0])
    assert stats.kstest(angle, stats.uniform(-np.pi, 2.0 * np.pi).cdf).pvalue > 1e-3


@pytest.mark.parametrize("seed", [3, 4])
def test_rotation_angle_and_axis_are_haar_at_d3(seed):
    rot = random_rotations(substream(seed), HAAR_DRAWS, 3)
    # the rotation angle has density (1 - cos t) / pi on [0, pi]
    cos = np.clip((np.trace(rot, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    assert stats.kstest(np.arccos(cos), lambda t: (t - np.sin(t)) / np.pi).pvalue > 1e-3
    # e1 R is uniform on S^2, so each of its coordinates is uniform on [-1, 1]
    assert stats.kstest(rot[:, 0, 2], stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3


def test_spatial_similarity_and_diag_rotation_draws():
    values, probs = (2.0, 0.5), (1 / 3, 2 / 3)
    m = kl.Similarity(3, values, probs).sample(substream(5), 5000)
    c = substream(5).choice(np.asarray(values), size=5000, p=probs)
    v = substream(6).standard_normal((16, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vm_norms = np.linalg.norm(np.einsum("gj,njk->ngk", v, m), axis=2)
    assert np.all(np.abs(vm_norms - c[:, None]) <= 1e-12)
    d = kl.DiagonalTimesRotation(3, log_sigma=1.0).sample(substream(7), 5000)
    assert np.all(np.linalg.det(d) > 0.0)


# SHA-1 of each dimension's draws at a fixed seed, so that a change to one
# dimension's sampler shows whether it left the others' streams bit for bit.
# The d = 2 rotations come from points in the unit disk, d = 3 from unit
# quaternions, d = 4 from QR.
PINNED_DRAWS = {
    "rotations d=2": "c31fba87a94b31b9191b6c4cb431fd506fe51564",
    "rotations d=3": "d1d4115ff181df3ab18021f157138490f17dcd7b",
    "rotations d=4": "d2e743fbe6d35f283413db0cd46de8ffe162768d",
    "similarity d=2": "5594160ffcd2bcd31f41086fa102808a6a807236",
}


def test_draw_streams_match_their_pinned_digests():
    draws = {
        "rotations d=2": random_rotations(substream(0), 64, 2),
        "rotations d=3": random_rotations(substream(0), 64, 3),
        "rotations d=4": random_rotations(substream(0), 64, 4),
        "similarity d=2": kl.Similarity(2, (2.0, 0.5), (1 / 3, 2 / 3)).sample(substream(0), 64),
    }
    digests = {name: hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest()
               for name, x in draws.items()}
    assert digests == PINNED_DRAWS


def test_symmetric_q_signs_are_fair_bits():
    # one packed bit per draw: each sign is +1 with probability
    # 1/2, and neighbours agree with probability 1/2, also where they come
    # from different bytes
    env = kl.Environment(dim=1, matrix_law=kl.ScalarTwoPoint(),
                         vector_law=kl.ConstantVector((1.0,)), q_symmetric=True)
    count = 100_003
    signs = kl.sample_q(env, substream(13), count)[:, 0]
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert _within(signs == 1.0, 0.5)
    assert _within(signs[1:] == signs[:-1], 0.5)
    across = np.arange(8, count, 8)
    assert _within(signs[across] == signs[across - 1], 0.5)


def test_degenerate_constant_family():
    env = kl.Environment(dim=2,
                         matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.ConstantVector((1.0, 0.0)))
    m, q = kl.sample_pairs(env, substream(3), 1)
    assert np.array_equal(m[0], 0.5 * np.eye(2))
    assert np.array_equal(q[0], np.array([1.0, 0.0]))


def test_sampler_determinism(scalar_env):
    m1, q1 = kl.sample_pairs(scalar_env, substream(99), 100)
    m2, q2 = kl.sample_pairs(scalar_env, substream(99), 100)
    assert np.array_equal(m1, m2) and np.array_equal(q1, q2)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_rotations_are_special_orthogonal(dim, seed):
    rot = random_rotations(substream(seed), 8, dim)
    eye = np.broadcast_to(np.eye(dim), rot.shape)
    assert np.allclose(np.matmul(rot, np.swapaxes(rot, 1, 2)), eye, atol=1e-10)
    assert np.allclose(np.linalg.det(rot), 1.0, atol=1e-10)


@given(st.floats(min_value=0.1, max_value=3.0), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_gaussian_matrices_nonsingular(scale, seed):
    # no determinant rejection: the draws are the stream's normals, scaled,
    # and a singular one has probability 0
    law = kl.GaussianMatrix(dim=2, scale=scale)
    m = law.sample(substream(seed), 64)
    assert np.array_equal(m, scale * substream(seed).standard_normal((64, 2, 2)))
    assert np.all(np.linalg.det(m) != 0.0)


def test_mixture_uses_all_components():
    law = kl.MatrixMixture(
        components=(kl.ConstantMatrix(((2.0,),)), kl.ConstantMatrix(((0.25,),))),
        weights=(0.5, 0.5))
    m = law.sample(substream(6), 400)
    assert set(np.unique(m)) == {0.25, 2.0}


def test_mixture_law_carries_dim():
    law = kl.MatrixMixture(components=(kl.Similarity(2, (2.0,), (1.0,)),
                                       kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5)))),
                           weights=(0.5, 0.5))
    assert law.dim == 2
    env = kl.Environment(dim=2, matrix_law=law, vector_law=kl.ConstantVector((1.0, 0.0)))
    assert env.matrix_law.dim == 2


def test_mixture_rejects_components_of_different_dim():
    with pytest.raises(ConfigurationError, match="dimension"):
        kl.MatrixMixture(components=(kl.ScalarTwoPoint(), kl.Similarity(2, (2.0,), (1.0,))),
                         weights=(0.5, 0.5))


def test_invalid_parameters_raise():
    with pytest.raises(ConfigurationError):
        kl.ScalarTwoPoint((2.0, 0.5), (0.7, 0.7))
    with pytest.raises(ConfigurationError):
        kl.Similarity(2, (2.0, -0.5), (0.5, 0.5))
    with pytest.raises(ConfigurationError):
        kl.GaussianVector(2, scale=0.0)
    with pytest.raises(ConfigurationError):
        kl.Environment(dim=2, matrix_law=kl.ScalarTwoPoint(),
                       vector_law=kl.GaussianVector(2))


# a value for each field that some family requires: as a config block
# writes it, and as the dataclass takes it
REQUIRED = {
    "scale_values": ([2.0], (2.0,)),
    "scale_probs": ([1.0], (1.0,)),
    "matrix": ([[0.5]], ((0.5,),)),
    "components": ([{"family": "constant", "matrix": [[0.5]]}],
                   (kl.ConstantMatrix(((0.5,),)),)),
    "weights": ([1.0], (1.0,)),
    "values": ([1.0], (1.0,)),
    "first": ([1.0], (1.0,)),
    "second": ([-1.0], (-1.0,)),
}


@pytest.mark.parametrize("families, name", [
    (families, name) for families in (MATRIX_FAMILIES, VECTOR_FAMILIES) for name in families])
def test_block_of_required_keys_builds_the_defaults(families, name):
    cls = families[name]
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.name != "dim"]
    block = {"family": name, **{k: REQUIRED[k][0] for k in required}}
    dim = {"dim": 1} if "dim" in {f.name for f in dataclasses.fields(cls)} else {}
    assert build_law(block, families, 1, "law") == cls(**dim, **{k: REQUIRED[k][1] for k in required})


@pytest.mark.parametrize("value", [10 ** 400, float("nan"), float("-inf")])
def test_float_key_refuses_a_number_no_float_holds(value):
    with pytest.raises(ConfigurationError, match=r"^law\.scale: expected float"):
        build_law({"family": "gaussian", "scale": value}, MATRIX_FAMILIES, 1, "law")


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def test_assumptions_scalar_benchmark_pass(scalar_env):
    report = kl.check_assumptions(scalar_env, 20_000, substream(8))
    # closed-form two-atom moment at the candidate exponent 1.5
    expected = (1 / 3) * 2.0 ** 1.5 + (2 / 3) * 2.0 ** -1.5
    a7 = report.entries["A7"]
    assert a7.verdict == "pass"
    assert abs(a7.estimate - expected) <= 4 * a7.std_error + 1e-9
    for name in ("A1", "A2", "A3", "A6"):
        assert report.verdict(name) == "pass"
    for name in ("A4", "A4*", "A5"):
        assert report.verdict(name) == NOT_CHECKABLE


def test_assumptions_contractive_identity_fails_a7():
    env = kl.Environment(dim=2,
                         matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.GaussianVector(2), kappa0_hint=1.5)
    report = kl.check_assumptions(env, 2000, substream(9))
    a7 = report.entries["A7"]
    assert a7.verdict == "fail"
    assert abs(a7.estimate - 2.0 ** -1.5) < 1e-12


def test_assumptions_a7_infimum_is_exact_off_any_grid():
    # M = O diag(2, 1, 0.5) O^T: inf over unit v of |vM| is 0.5, at v = O e3.
    # The 64-point direction grid A7 once minimised over read 0.534 here, a
    # moment 10.4 % above the exact 0.5^1.5.
    k = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    o = np.eye(3) + np.sin(0.7) * cross + (1.0 - np.cos(0.7)) * cross @ cross
    m = o @ np.diag([2.0, 1.0, 0.5]) @ o.T
    env = kl.Environment(dim=3, matrix_law=kl.ConstantMatrix(tuple(map(tuple, m))),
                         vector_law=kl.GaussianVector(3), kappa0_hint=1.5)
    a7 = kl.check_assumptions(env, 1000, substream(13)).entries["A7"]
    assert abs(a7.estimate - 0.5 ** 1.5) <= 1e-12
    assert a7.verdict == "fail"


def test_assumptions_memory_stays_linear_in_draws(similarity_env, traced_peak):
    # the draws, their singular values and norms peak at about 2.3 MB for
    # 20 000 planar draws; A7's products of every draw with 64 grid
    # directions once peaked at about 63 MB
    peak = traced_peak(lambda: kl.check_assumptions(similarity_env, 20_000, substream(14)))
    assert peak < 10 * 2 ** 20


def test_assumptions_zero_q_fails_a7(scalar_env):
    env = kl.Environment(dim=1, matrix_law=scalar_env.matrix_law,
                         vector_law=kl.ConstantVector((0.0,)), kappa0_hint=1.5)
    report = kl.check_assumptions(env, 2000, substream(10))
    assert report.verdict("A7") == "fail"
    assert report.entries["A7"].detail["q_kappa0_moment"] == 0.0


def test_assumptions_detect_fixed_point():
    # x -> x/2 + e1 has the almost-sure fixed point 2 e1
    env = kl.Environment(dim=2,
                         matrix_law=kl.ConstantMatrix(((0.5, 0.0), (0.0, 0.5))),
                         vector_law=kl.ConstantVector((1.0, 0.0)))
    report = kl.check_assumptions(env, 2000, substream(11))
    assert report.verdict("A6") == "fail"


def test_assumptions_require_enough_samples(scalar_env):
    with pytest.raises(ConfigurationError):
        kl.check_assumptions(scalar_env, 10, substream(12))


def test_a3_reads_invertibility_from_the_singular_values():
    # every draw c O has all its singular values equal to c; at d = 3 the
    # scale 1e-5 gives det 1e-15, which an absolute rule |det M| < 1e-12
    # called singular on 80 % of the draws
    tiny = kl.Environment(dim=3, matrix_law=kl.Similarity(3, (4.0, 1e-5), (0.2, 0.8)),
                          vector_law=kl.GaussianVector(3), kappa0_hint=1.5)
    a3 = kl.check_assumptions(tiny, 2000, substream(15)).entries["A3"]
    assert a3.verdict == "pass" and a3.estimate == 0.0
    rank_one = kl.Environment(dim=2, matrix_law=kl.ConstantMatrix(((1.0, 0.0), (0.0, 0.0))),
                              vector_law=kl.GaussianVector(2))
    a3 = kl.check_assumptions(rank_one, 1000, substream(16)).entries["A3"]
    assert a3.verdict == "fail" and a3.estimate == 1.0


# every bounded field of a family and of Environment, out of range; the same
# values set in a config block are refused in tests/test_cli.py
SCALAR = {"matrix_law": kl.ScalarTwoPoint(), "vector_law": kl.ConstantVector((1.0,))}
OUT_OF_RANGE = [
    (kl.Similarity, {"dim": 0, "scale_values": (2.0,), "scale_probs": (1.0,)}, "dim"),
    (kl.Similarity, {"dim": 2, "scale_values": (2.0, -0.5), "scale_probs": (0.5, 0.5)},
     "scale_values[1]"),
    (kl.GaussianMatrix, {"dim": 0}, "dim"),
    (kl.GaussianMatrix, {"dim": 2, "scale": -2.0}, "scale"),
    (kl.DiagonalTimesRotation, {"dim": 0}, "dim"),
    (kl.DiagonalTimesRotation, {"dim": 2, "log_sigma": -0.1}, "log_sigma"),
    (kl.GaussianVector, {"dim": 0}, "dim"),
    (kl.GaussianVector, {"dim": 2, "scale": 0.0}, "scale"),
    (kl.TwoPointVector, {"first": (1.0,), "second": (-1.0,), "prob_first": 1.5}, "prob_first"),
    (kl.Environment, {"dim": 0, **SCALAR}, "dim"),
    (kl.Environment, {"dim": 1, **SCALAR, "kappa0_hint": 0.0}, "kappa0_hint"),
]


@pytest.mark.parametrize("cls, args, where", OUT_OF_RANGE,
                         ids=[f"{c.__name__}.{w}" for c, _, w in OUT_OF_RANGE])
def test_construction_refuses_a_field_out_of_range(cls, args, where):
    with pytest.raises(ConfigurationError,
                       match=rf"^{cls.__name__}\.{re.escape(where)}: expected a value in "):
        cls(**args)


@pytest.mark.parametrize("dim, values, probs", [
    (2, (2.0, 0.5), (1 / 3, 2 / 3)),
    (3, (2.0, 0.5), (1 / 3, 2 / 3)),
    (2, (0.3, 0.9, 1.7), (0.2, 0.5, 0.3)),
])
def test_similarity_draws_match_choice_times_rotation(dim, values, probs):
    law = kl.Similarity(dim, values, probs)
    rng = substream(100)
    c = rng.choice(np.asarray(values), size=5000, p=probs)
    expected = c[:, None, None] * random_rotations(rng, 5000, dim)
    assert np.array_equal(law.sample(substream(100), 5000), expected)


def test_similarity_scales_are_the_first_draw_of_sample():
    law = kl.Similarity(3, (0.3, 0.9, 1.7), (0.2, 0.5, 0.3))
    expected = substream(103).choice(np.asarray(law.scale_values), size=5000, p=law.scale_probs)
    assert np.array_equal(law.scales(substream(103), 5000), expected)


def test_similarity_planar_draws_fill_sample():
    # M = c (cos, -sin; sin, cos) multiplies x + iy by z = c (cos + i sin)
    law = kl.Similarity(2, (0.3, 0.9, 1.7), (0.2, 0.5, 0.3))
    z = law.planar(substream(104), 5000)
    m = law.sample(substream(104), 5000)
    assert np.array_equal(m[:, :, 0], np.stack([z.real, z.imag], axis=1))
    assert np.array_equal(m[:, :, 1], np.stack([-z.imag, z.real], axis=1))


def test_one_dimensional_similarity_draws_its_scales():
    # random_rotations at d = 1 is the identity and draws nothing
    law = kl.Similarity(1, (0.3, 0.9, 1.7), (0.2, 0.5, 0.3))
    m = law.sample(substream(105), 5000)
    assert m.shape == (5000, 1, 1)
    assert np.array_equal(m[:, 0, 0], law.scales(substream(105), 5000))


def test_atom_draws_match_choice():
    scalar = kl.ScalarTwoPoint((-2.0, -0.5), (1 / 3, 2 / 3))
    expected = substream(101).choice(np.array([-2.0, -0.5]), size=5000, p=scalar.probs)
    assert np.array_equal(scalar.sample(substream(101), 5000)[:, 0, 0], expected)
    # a zero-weight atom is never drawn, as with rng.choice
    mixture = kl.MatrixMixture((kl.ConstantMatrix(((1.0,),)), kl.ConstantMatrix(((2.0,),)),
                                kl.ConstantMatrix(((3.0,),))), (0.5, 0.0, 0.5))
    picks = substream(102).choice(3, size=5000, p=mixture.weights)
    assert np.array_equal(mixture.sample(substream(102), 5000)[:, 0, 0], picks + 1.0)
