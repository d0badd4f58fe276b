import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import enumerate_subgroups

from convlimit.errors import GroupMismatch, InvalidSpec, NotClosedAtTolerance
from convlimit.groups import (
    cyclic_group,
    dihedral_group_4,
    full_subgroup,
    subgroup,
    symmetric_group,
    trivial_subgroup,
)
from convlimit.measures import (
    Measure,
    convolve,
    delta,
    haar,
    haar_subgroup,
    is_haar_idempotent,
    inverse_cdf,
    measure_from_spec,
    right_stabilizer,
    sample,
    translate_left,
    translate_right,
    tv_distance,
)

Z4 = cyclic_group(4)
S3 = symmetric_group(3)
D4 = dihedral_group_4()
GROUPS = [Z4, S3, D4]


def brute_convolve(mu, nu):
    """Oracle: enumerate all (a, b) outcome pairs."""
    g = mu.group
    out = np.zeros(g.order)
    for a in range(g.order):
        for b in range(g.order):
            out[g.mul[a, b]] += mu.weights[a] * nu.weights[b]
    return out


def random_measure(group, rng):
    w = rng.random(group.order) + 1e-3
    return Measure(group, w / w.sum())


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(InvalidSpec):
            Measure(Z4, [0.5, 0.6, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSpec):
            Measure(Z4, [0.5, 0.25, 0.1, 0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidSpec, match="finite"):
            Measure(Z4, [bad, 0.5, 0.5, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidSpec):
            Measure(Z4, [1.0])

    def test_weights_read_only(self):
        mu = haar(Z4)
        with pytest.raises(ValueError):
            mu.weights[0] = 2.0


class TestBasicMeasures:
    def test_haar_subgroup_trivial_is_delta(self):
        assert np.array_equal(
            haar_subgroup(Z4, trivial_subgroup(Z4)).weights, delta(Z4, 0).weights
        )

    def test_haar_subgroup_full_is_haar(self):
        assert np.array_equal(
            haar_subgroup(Z4, full_subgroup(Z4)).weights, haar(Z4).weights
        )

    def test_haar_subgroup_z4_even(self):
        mu = haar_subgroup(Z4, subgroup(Z4, [0, 2]))
        assert np.array_equal(mu.weights, [0.5, 0.0, 0.5, 0.0])


class TestConvolve:
    def test_point_masses(self):
        for g in GROUPS:
            for a in range(g.order):
                for b in range(g.order):
                    got = convolve(delta(g, a), delta(g, b))
                    assert np.array_equal(got.weights, delta(g, int(g.mul[a, b])).weights)

    def test_haar_absorbing(self):
        rng = np.random.default_rng(0)
        for g in GROUPS:
            mu = random_measure(g, rng)
            assert tv_distance(convolve(mu, haar(g)), haar(g)) < 1e-12
            assert tv_distance(convolve(haar(g), mu), haar(g)) < 1e-12

    def test_z4_uniform01_squared(self):
        mu = Measure(Z4, [0.5, 0.5, 0.0, 0.0])
        got = convolve(mu, mu)
        # oracle: enumerate the four outcome pairs
        assert np.array_equal(brute_convolve(mu, mu), [0.25, 0.5, 0.25, 0.0])
        assert np.allclose(got.weights, [0.25, 0.5, 0.25, 0.0], atol=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for g in GROUPS:
            mu, nu = random_measure(g, rng), random_measure(g, rng)
            assert np.allclose(convolve(mu, nu).weights, brute_convolve(mu, nu), atol=1e-14)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            convolve(haar(Z4), haar(S3))

    def test_neutral_element_exact(self):
        rng = np.random.default_rng(2)
        for g in GROUPS:
            mu = random_measure(g, rng)
            e = delta(g, g.identity)
            assert np.array_equal(convolve(e, mu).weights, mu.weights)
            assert np.array_equal(convolve(mu, e).weights, mu.weights)

    def test_haar_idempotent_measures(self):
        for g in GROUPS:
            for H in enumerate_subgroups(g):
                w = haar_subgroup(g, H)
                assert np.abs(convolve(w, w).weights - w.weights).max() < 1e-13


class TestTranslate:
    def test_point_mass(self):
        for a in range(4):
            for b in range(4):
                got = translate_right(delta(Z4, a), b)
                assert np.array_equal(got.weights, delta(Z4, (a + b) % 4).weights)

    def test_haar_subgroup_invariant_within(self):
        H = subgroup(Z4, [0, 2])
        w = haar_subgroup(Z4, H)
        for h in H.members:
            assert np.array_equal(translate_right(w, h).weights, w.weights)

    def test_z4_shift(self):
        mu = Measure(Z4, [0.25, 0.5, 0.25, 0.0])
        assert np.array_equal(translate_right(mu, 1).weights, [0.0, 0.25, 0.5, 0.25])

    def test_left_translate(self):
        mu = Measure(Z4, [0.25, 0.5, 0.25, 0.0])
        # on an abelian group, left and right agree
        assert np.array_equal(translate_left(1, mu).weights, translate_right(mu, 1).weights)
        # on S3 they generally differ
        nu = Measure(S3, [0.5, 0.5, 0, 0, 0, 0])
        lab = {name: i for i, name in enumerate(S3.element_labels)}
        g = lab["(123)"]
        assert not np.array_equal(
            translate_left(g, nu).weights, translate_right(nu, g).weights
        )

    def test_translate_is_law_of_product(self):
        rng = np.random.default_rng(3)
        for g in GROUPS:
            mu = random_measure(g, rng)
            for x in range(g.order):
                assert np.allclose(
                    translate_right(mu, x).weights,
                    convolve(mu, delta(g, x)).weights,
                    atol=1e-14,
                )
                assert np.allclose(
                    translate_left(x, mu).weights,
                    convolve(delta(g, x), mu).weights,
                    atol=1e-14,
                )


class TestTV:
    def test_identical(self):
        mu = haar(Z4)
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(delta(Z4, 0), delta(Z4, 1)) == 1.0

    def test_z4_example(self):
        a = Measure(Z4, [0.5, 0.0, 0.5, 0.0])
        b = haar(Z4)
        assert tv_distance(a, b) == pytest.approx(0.5)

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        for g in GROUPS:
            a, b, c = (random_measure(g, rng) for _ in range(3))
            assert tv_distance(a, b) >= 0
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15


class TestRightStabilizer:
    def test_haar_full_group(self):
        for g in GROUPS:
            assert right_stabilizer(haar(g)).members == tuple(range(g.order))

    def test_delta_trivial(self):
        for g in GROUPS:
            for x in range(g.order):
                assert right_stabilizer(delta(g, x)).members == (g.identity,)

    def test_z4_even_subgroup(self):
        mu = Measure(Z4, [0.5, 0.0, 0.5, 0.0])
        assert right_stabilizer(mu).members == (0, 2)

    def test_not_closed_at_tolerance(self):
        # Nearly shift-1-invariant on Z8, less invariant under shift 2: a
        # tolerance between the two distances yields a non-closed member set.
        z8 = cyclic_group(8)
        x = np.arange(8)
        w = 1.0 / 8 + 0.01 * np.cos(2 * np.pi * x / 8)
        mu = Measure(z8, w / w.sum())
        translates = np.stack(
            [translate_right(mu, h).weights for h in range(8)], axis=1
        )
        dists = 0.5 * np.abs(translates - mu.weights[:, None]).sum(axis=0)
        tol = (dists[1] + dists[2]) / 2
        assert dists[1] < tol < dists[2]
        with pytest.raises(NotClosedAtTolerance) as exc:
            right_stabilizer(mu, tol)
        a, b = exc.value.pair
        assert (a + b) % 8 == exc.value.product


class TestHaarIdempotent:
    def test_all_subgroup_haars(self):
        for g in GROUPS:
            for H in enumerate_subgroups(g):
                got = is_haar_idempotent(haar_subgroup(g, H))
                assert got is not None and got.members == H.members

    def test_delta_off_identity(self):
        assert is_haar_idempotent(delta(Z4, 2)) is None

    def test_delta_identity(self):
        got = is_haar_idempotent(delta(Z4, 0))
        assert got is not None and got.members == (0,)

    def test_non_idempotent(self):
        assert is_haar_idempotent(Measure(Z4, [0.25, 0.5, 0.25, 0.0])) is None


class TestSample:
    def test_point_mass_constant(self):
        rng = np.random.default_rng(5)
        mu = delta(Z4, 3)
        assert all(sample(mu, rng) == 3 for _ in range(50))

    def test_identity_weight_vector(self):
        rng = np.random.default_rng(6)
        mu = Measure(Z4, [1.0, 0.0, 0.0, 0.0])
        assert sample(mu, rng, size=100).max() == 0

    def test_haar_z4_empirical(self):
        rng = np.random.default_rng(7)
        xs = sample(haar(Z4), rng, size=100_000)
        emp = np.bincount(xs, minlength=4) / xs.size
        assert 0.5 * np.abs(emp - 0.25).sum() < 0.02

    def test_determinism(self):
        mu = Measure(Z4, [0.1, 0.2, 0.3, 0.4])
        a = sample(mu, np.random.default_rng(8), size=1000)
        b = sample(mu, np.random.default_rng(8), size=1000)
        assert np.array_equal(a, b)

    def test_empirical_tv_bound_across_measures(self):
        # TV <= 3 sqrt(n/N) at N = 1e5 for groups up to order 24
        s4 = symmetric_group(4)
        rng_w = np.random.default_rng(9)
        cases = [haar(s4), random_measure(s4, rng_w), haar(Z4), random_measure(D4, rng_w)]
        for i, mu in enumerate(cases):
            n = mu.group.order
            xs = sample(mu, np.random.default_rng(100 + i), size=100_000)
            emp = np.bincount(xs, minlength=n) / xs.size
            assert 0.5 * np.abs(emp - mu.weights).sum() <= 3 * np.sqrt(n / 100_000)


_cyclic = functools.cache(cyclic_group)


@st.composite
def inversion_cases(draw):
    """(measure, uniforms): weights with zero runs or one point of support,
    summing to 1 give or take 5e-13, and uniforms on guide-bucket edges, on
    CDF steps and one float either side of both."""
    n = draw(st.integers(1, 1000), label="order")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="one point"):
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0
    else:
        raw = rng.integers(0, 4, n).astype(float)
        for _ in range(draw(st.integers(0, 3), label="zero runs")):
            a = rng.integers(n)
            raw[a:a + rng.integers(1, n + 1)] = 0.0
        raw[rng.integers(n)] += 1.0
        w = raw / raw.sum()
    w = w * (1.0 + draw(st.sampled_from([-5e-13, 0.0, 5e-13]), label="drift"))
    m = 1 << (64 * n - 1).bit_length()  # the guide's bucket count: 2^j >= 64 n
    edges = rng.integers(0, m, 50) / m
    steps = np.cumsum(w)
    points = np.concatenate([edges, steps, [0.0, 1.0]])
    u = np.concatenate([rng.random(200), points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    return Measure(_cyclic(n), w), u


class TestInverseCdf:
    @settings(max_examples=150)
    @given(inversion_cases())
    def test_equals_binary_search(self, case):
        mu, u = case
        cum = np.cumsum(mu.weights)
        cum[-1] = max(cum[-1], 1.0)
        got = inverse_cdf(mu, u)
        assert got.dtype == mu.group.id_dtype
        assert np.array_equal(got, np.searchsorted(cum, u, side="right"))
        # shape follows the uniforms, and a strided view inverts the same
        grid = np.resize(u, (4, u.size))[::2, ::3]
        assert np.array_equal(inverse_cdf(mu, grid), np.searchsorted(cum, grid, side="right"))

    def test_sample_is_inverse_cdf_of_the_draws(self):
        mu = Measure(D4, [0.1, 0.0, 0.0, 0.3, 0.2, 0.0, 0.4, 0.0])
        u = np.random.default_rng(4).random(500)
        assert np.array_equal(sample(mu, np.random.default_rng(4), size=500), inverse_cdf(mu, u))
        assert sample(mu, np.random.default_rng(4)) == inverse_cdf(mu, u[:1])[0]


class TestSpecParsing:
    def test_all_kinds(self):
        assert np.array_equal(
            measure_from_spec(Z4, {"kind": "delta", "at": 1}).weights, [0, 1, 0, 0]
        )
        assert np.array_equal(
            measure_from_spec(Z4, {"kind": "haar"}).weights, [0.25] * 4
        )
        assert np.array_equal(
            measure_from_spec(Z4, {"kind": "haar_subgroup", "members": [0, 2]}).weights,
            [0.5, 0, 0.5, 0],
        )
        assert np.array_equal(
            measure_from_spec(Z4, {"kind": "weights", "w": [0.1, 0.2, 0.3, 0.4]}).weights,
            [0.1, 0.2, 0.3, 0.4],
        )

    def test_bad_specs(self):
        with pytest.raises(InvalidSpec):
            measure_from_spec(Z4, {"kind": "delta", "at": 9})
        with pytest.raises(InvalidSpec):
            measure_from_spec(Z4, {"kind": "nope"})
        with pytest.raises(InvalidSpec):
            measure_from_spec(Z4, {"kind": "weights"})


@st.composite
def measures_on_group(draw, n_measures=3):
    g = draw(st.sampled_from(GROUPS))
    out = []
    for _ in range(n_measures):
        w = np.array(
            draw(
                st.lists(
                    st.floats(0.001, 1.0, allow_nan=False),
                    min_size=g.order,
                    max_size=g.order,
                )
            )
        )
        out.append(Measure(g, w / w.sum()))
    return out


@given(measures_on_group())
@settings(max_examples=60, deadline=None)
def test_convolution_associative(ms):
    a, b, c = ms
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert tv_distance(left, right) < 1e-12


@given(measures_on_group(n_measures=1))
@settings(max_examples=40, deadline=None)
def test_stabilizer_is_a_subgroup_or_reports_near_symmetry(ms):
    (mu,) = ms
    try:
        h = right_stabilizer(mu)
    except NotClosedAtTolerance:
        # legitimate: random weights can straddle a near-symmetry at the
        # default tolerance, and the error is the documented signal
        return
    assert mu.group.identity in h
    s = set(h.members)
    assert all(int(mu.group.mul[a, b]) in s for a in s for b in s)
