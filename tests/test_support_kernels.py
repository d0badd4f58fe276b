"""The support-aware kernels against dense reference kernels, bit for bit.

``convolve`` gathers rows only for the support of its left factor,
``shape_distance`` sums only the translates that its screen leaves, and
``normal_closure`` conjugates a generating set of H, not every member. Their
oracles gather every row, sum every translate and conjugate every member.
The comparisons are exact: ``np.array_equal`` on weights, ``==`` on floats
and ids. The corpus holds the golden specs' laws, every translate tying
(Haar measures and Haar on subgroups), coset-uniform laws, and random sparse
and dense Dirichlet laws on small groups, on three groups of order 480 to
512 and on a Z6 whose identity is element 3.
"""

import itertools

import numpy as np
import pytest
from oracles import (
    convolve_dense,
    normal_closure_all_members,
    partial_product,
    shape_distance_all_translates,
)
from test_golden_records import _Z6_IDENTITY_3, SPECS

from convlimit.groups import builtin_group, generated_subgroup, normal_closure, validate_group
from convlimit.limits import compute_limit, noise_from_spec, shape_distance
from convlimit.measures import Measure, convolve, delta, haar, haar_subgroup, translate_right

WIDE = ("Zn:500", "product:S4xZn:20", "product:D4xZn:64")
SMALL = ("Z4", "S3", "D4", "Q8", "S4")


def _group(name: str):
    return validate_group(_Z6_IDENTITY_3) if name == "Z6-identity-3" else builtin_group(name)


def _dirichlet(group, points, alpha: float, rng) -> Measure:
    w = np.zeros(group.order)
    w[points] = rng.dirichlet(np.full(len(points), alpha))
    return Measure(group, w)


def random_laws(group, seed: int) -> list[Measure]:
    """Laws of every kind on one group: Haar, Haar on a cyclic subgroup and on its cosets
    both ways round, a point mass, sparse Dirichlet laws on 2, 3 and 20 points (20 at
    most n / 2) and dense ones, smooth and spiky."""
    rng = np.random.default_rng(seed)
    n = group.order
    g = int(rng.integers(n))
    H = generated_subgroup(group, [int(rng.integers(n))])
    coset = sorted(int(x) for x in group.mul[g, list(H.members)])
    laws = [haar(group), haar_subgroup(group, H), translate_right(haar_subgroup(group, H), g),
            Measure(group, np.isin(np.arange(n), coset) / len(coset)), delta(group, g)]
    for size in sorted({min(2, n), min(3, n), min(20, n // 2)}):
        laws.append(_dirichlet(group, rng.choice(n, size=size, replace=False), 1.0, rng))
    laws += [_dirichlet(group, np.arange(n), alpha, rng) for alpha in (1.0, 0.1)]
    return laws


def golden_laws() -> list[list[Measure]]:
    """Per golden spec: its noise measures, limit laws, tail block, omega_K and a few
    partial products."""
    out = []
    for spec in SPECS.values():
        noise = noise_from_spec(spec)
        res = compute_limit(noise)
        out.append([*noise.prefix, *noise.tail, *res.lambdas.values(), res.block, res.omega,
                    *(partial_product(noise, 0, -i) for i in (0, 1, res.depth_used))])
    return out


def corpus() -> list[list[Measure]]:
    """Laws grouped by the group they live on; a kernel is checked on every ordered pair
    within a group."""
    names = (*SMALL, *WIDE, "Z6-identity-3")
    laws = [random_laws(_group(name), seed) for seed, name in enumerate(names)]
    for laws_of_spec in golden_laws():
        laws_of_spec += random_laws(laws_of_spec[0].group, 100 + len(laws))
        laws.append(laws_of_spec)
    return laws


@pytest.fixture(scope="module")
def law_pairs():
    return [pair for laws in corpus() for pair in itertools.product(laws, repeat=2)]


def test_the_corpus_covers_wide_groups_and_both_support_orders(law_pairs):
    orders = {mu.group.order for mu, _ in law_pairs}
    assert {480, 500, 512} <= orders
    sizes = [(np.count_nonzero(mu.weights), np.count_nonzero(nu.weights)) for mu, nu in law_pairs]
    assert any(a < b for a, b in sizes) and any(a > b for a, b in sizes)


def test_convolve_is_the_dense_sum(law_pairs):
    for mu, nu in law_pairs:
        assert np.array_equal(convolve(mu, nu).weights, convolve_dense(mu, nu).weights)


def test_shape_distance_is_the_all_translates_minimum(law_pairs):
    for mu, nu in law_pairs:
        assert shape_distance(mu, nu) == shape_distance_all_translates(mu, nu)


def test_shape_distance_keeps_the_first_of_tied_translates():
    # every translate of Haar ties at 0: the smallest g, the identity's index 0
    for name in WIDE:
        group = _group(name)
        assert shape_distance(haar(group), haar(group)) == (0.0, 0)
    group = _group("Z6-identity-3")
    assert shape_distance(haar(group), haar(group)) == (0.0, 0)
    H = haar_subgroup(group, generated_subgroup(group, [0]))  # {3, 0}: both of its g tie at 0
    assert shape_distance(H, H) == shape_distance_all_translates(H, H) == (0.0, 0)


@pytest.mark.parametrize("name", [*SMALL, *WIDE, "Z6-identity-3"])
def test_normal_closure_has_the_members_of_the_all_members_closure(name):
    group = _group(name)
    rng = np.random.default_rng(7)
    picks = [[g] for g in rng.choice(group.order, size=min(group.order, 12), replace=False)]
    picks += [list(rng.choice(group.order, size=2)) for _ in range(4)]
    for gens in picks:
        H = generated_subgroup(group, [int(g) for g in gens])
        assert normal_closure(group, H).members == normal_closure_all_members(group, H).members


def test_normal_closure_of_the_golden_subgroups():
    for spec in SPECS.values():
        noise = noise_from_spec(spec)
        H = compute_limit(noise).subgroup
        assert normal_closure(noise.group, H).members == \
            normal_closure_all_members(noise.group, H).members
