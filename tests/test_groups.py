import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    are_conjugate,
    associativity_witness,
    brute_force_subgroups,
    cyclic_table,
    direct_product_table,
    enumerate_subgroups,
    full_subgroup,
    h_part,
    is_normal,
    light_witness_by_frontiers,
    section_from_representatives,
    trivial_subgroup,
)

from convlimit.errors import (
    InvalidSpec,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
)
from convlimit.groups import (
    _product_closure,
    builtin_group,
    conjugate_subgroup,
    cyclic_group,
    default_section,
    dihedral_group_4,
    direct_product,
    generated_subgroup,
    group_from_spec,
    left_cosets,
    normal_closure,
    quaternion_group,
    subgroup,
    symmetric_group,
    validate_group,
)

Z4_TABLE = [[(a + b) % 4 for b in range(4)] for a in range(4)]


def compose_permutation_table(m):
    """Oracle: S_m multiplication table built directly from function composition."""
    perms = list(itertools.permutations(range(m)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[x]] for x in range(m))] for q in perms]
        for p in perms
    ]
    return perms, table


class TestValidateGroup:
    def test_z4_table_is_valid(self):
        g = validate_group(Z4_TABLE)
        assert g.order == 4
        assert g.identity == 0
        assert list(g.inv) == [0, 3, 2, 1]

    def test_s3_table_from_permutation_composition(self):
        _, table = compose_permutation_table(3)
        g = validate_group(table)
        assert g.order == 6
        assert g.identity == 0

    def test_single_swapped_cell_breaks_associativity(self):
        table = [row[:] for row in Z4_TABLE]
        # Swap two entries inside row 1: the row stays a permutation, so the
        # identity and row inverses survive and associativity is what breaks.
        table[1][2], table[1][3] = table[1][3], table[1][2]
        with pytest.raises(NotAssociative) as exc:
            validate_group(table)
        a, b, c = exc.value.triple
        axb = table[a][b]
        bxc = table[b][c]
        assert table[axb][c] != table[a][bxc]

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            validate_group([[1, 1], [1, 1]])

    def test_no_inverse(self):
        with pytest.raises(NoInverse) as exc:
            validate_group([[0, 1], [1, 1]])
        assert exc.value.element == 1

    def test_out_of_range_entry(self):
        with pytest.raises(InvalidSpec):
            validate_group([[0, 1], [1, 7]])

    def test_identity_hint_mismatch(self):
        with pytest.raises(NoIdentity):
            validate_group(Z4_TABLE, identity_hint=1)

    def test_swapped_cells_above_order_256_are_refused(self):
        mul = np.array(cyclic_group(300).mul)
        mul[7, [11, 13]] = mul[7, [13, 11]]
        with pytest.raises(NotAssociative) as exc:
            validate_group(mul)
        a, b, c = exc.value.triple
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]

    def test_failure_past_the_first_generator_is_found(self):
        # A non-associative loop of order 5 times Z3, index 3a + b. The first
        # generator, 1 = (e, 1), associates with every pair, so only a later
        # generator can expose the failure.
        loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        a, b = np.divmod(np.arange(15), 3)
        mul = loop[a[:, None], a[None, :]] * 3 + (b[:, None] + b[None, :]) % 3
        assert (mul[mul[:, 1], :] == mul[:, mul[1, :]]).all()
        with pytest.raises(NotAssociative) as exc:
            validate_group(mul)
        x, g, y = exc.value.triple
        assert g != 1 and mul[mul[x, g], y] != mul[x, mul[g, y]]

    def test_wide_product_validates(self):
        g = builtin_group("product:S4xZn:20")
        assert g.order == 480 and g.identity == 0


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,order,abelian",
        [
            ("Z4", 4, True),
            ("S3", 6, False),
            ("S4", 24, False),
            ("D4", 8, False),
            ("Q8", 8, False),
            ("Zn:7", 7, True),
            ("product:Z4xS3", 24, False),
            ("product:Zn:2xZn:2", 4, True),
        ],
    )
    def test_orders_and_commutativity(self, name, order, abelian):
        g = builtin_group(name)
        assert g.order == order
        assert np.array_equal(g.mul, g.mul.T) is abelian

    def test_klein_four_is_not_cyclic(self):
        g = builtin_group("product:Zn:2xZn:2")
        # every element is its own inverse
        assert all(int(g.mul[x, x]) == 0 for x in range(4))

    def test_s3_matches_composition_oracle(self):
        _, table = compose_permutation_table(3)
        g = symmetric_group(3)
        assert np.array_equal(g.mul, np.array(table))

    def test_s3_labels(self):
        g = symmetric_group(3)
        assert g.element_labels == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")

    def test_quaternion_relations(self):
        g = quaternion_group()
        lab = {name: i for i, name in enumerate(g.element_labels)}
        assert int(g.mul[lab["i"], lab["j"]]) == lab["k"]
        assert int(g.mul[lab["j"], lab["i"]]) == lab["-k"]
        assert int(g.mul[lab["i"], lab["i"]]) == lab["-1"]

    def test_dihedral_relation_srs_inverse(self):
        g = dihedral_group_4()
        lab = {name: i for i, name in enumerate(g.element_labels)}
        r, s = lab["r"], lab["s"]
        sr = int(g.mul[s, r])
        assert sr == int(g.mul[lab["r3"], s])  # s r = r^-1 s

    def test_unknown_builtin(self):
        with pytest.raises(InvalidSpec):
            builtin_group("E8")


class TestSubgroups:
    def test_z4_enumeration_matches_brute_force(self):
        g = cyclic_group(4)
        expected = brute_force_subgroups(g)
        got = [h.members for h in enumerate_subgroups(g)]
        assert got == expected == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_trivial_group(self):
        g = cyclic_group(1)
        assert [h.members for h in enumerate_subgroups(g)] == [(0,)]

    def test_s3_enumeration_matches_brute_force(self):
        g = symmetric_group(3)
        expected = brute_force_subgroups(g)
        got = [h.members for h in enumerate_subgroups(g)]
        assert got == expected
        assert len(got) == 6
        orders = sorted(len(m) for m in got)
        assert orders == [1, 2, 2, 2, 3, 6]

    def test_d4_enumeration_matches_brute_force(self):
        g = dihedral_group_4()
        expected = brute_force_subgroups(g)
        got = [h.members for h in enumerate_subgroups(g)]
        assert got == expected

    def test_lagrange_and_closure(self):
        g = symmetric_group(4)
        for h in enumerate_subgroups(g):
            assert g.order % h.order == 0
            s = set(h.members)
            assert all(int(g.mul[a, b]) in s for a in s for b in s)

    def test_known_subgroup_counts(self):
        # textbook counts; pair-join closure must reach the 3-generated ones too
        s4 = enumerate_subgroups(symmetric_group(4))
        assert len(s4) == 30
        by_order = {}
        for h in s4:
            by_order[h.order] = by_order.get(h.order, 0) + 1
        assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
        assert len(enumerate_subgroups(quaternion_group())) == 6
        assert len(enumerate_subgroups(dihedral_group_4())) == 10

    def test_not_a_subgroup(self):
        g = cyclic_group(4)
        with pytest.raises(NotASubgroup):
            subgroup(g, [0, 1])  # not closed: 1+1=2 missing
        with pytest.raises(NotASubgroup):
            subgroup(g, [1, 3])  # no identity


class TestCosetsAndSections:
    def test_z4_cosets(self):
        g = cyclic_group(4)
        h = subgroup(g, [0, 2])
        c = left_cosets(g, h)
        assert c.cosets == ((0, 2), (1, 3))
        assert list(c.coset_of) == [0, 1, 0, 1]

    def test_full_subgroup_single_coset(self):
        g = cyclic_group(4)
        c = left_cosets(g, full_subgroup(g))
        assert len(c.cosets) == 1

    def test_trivial_subgroup_singletons(self):
        g = cyclic_group(4)
        c = left_cosets(g, trivial_subgroup(g))
        assert len(c.cosets) == 4
        assert all(len(cs) == 1 for cs in c.cosets)

    def test_coset_sizes_partition(self):
        g = symmetric_group(4)
        for h in enumerate_subgroups(g):
            c = left_cosets(g, h)
            assert sorted(x for cs in c.cosets for x in cs) == list(range(g.order))
            assert all(len(cs) == h.order for cs in c.cosets)

    def test_default_section_minimal_reps(self):
        g = cyclic_group(4)
        c = left_cosets(g, subgroup(g, [0, 2]))
        s = default_section(c)
        assert s.representative == (0, 1)

    def test_section_trivial_subgroup_is_identity_map(self):
        g = cyclic_group(4)
        c = left_cosets(g, trivial_subgroup(g))
        s = default_section(c)
        assert all(s.of(x) == x for x in range(4))

    def test_section_full_subgroup_is_identity_element(self):
        g = cyclic_group(4)
        c = left_cosets(g, full_subgroup(g))
        s = default_section(c)
        assert all(s.of(x) == 0 for x in range(4))

    def test_custom_section_validation(self):
        g = cyclic_group(4)
        c = left_cosets(g, subgroup(g, [0, 2]))
        s = section_from_representatives(c, [2, 3])
        assert s.of(0) == 2
        with pytest.raises(InvalidSpec):
            section_from_representatives(c, [1, 3])

    def test_h_part_examples(self):
        g = cyclic_group(4)
        c = left_cosets(g, subgroup(g, [0, 2]))
        s = default_section(c)
        assert h_part(2, c, s) == 2
        assert h_part(3, c, s) == 2  # inv(rep {1,3}) + 3 = -1 + 3 = 2
        # any section representative has trivial h-part
        for cid in range(len(c.cosets)):
            assert h_part(s.representative[cid], c, s) == 0

    def test_exact_factorization_everywhere(self):
        for g in (cyclic_group(6), symmetric_group(3), dihedral_group_4()):
            for h in enumerate_subgroups(g):
                c = left_cosets(g, h)
                s = default_section(c)
                for x in range(g.order):
                    hp = h_part(x, c, s)
                    assert hp in h
                    assert int(g.mul[s.of(x), hp]) == x


class TestConjugacy:
    def test_abelian_conjugation_fixed(self):
        g = cyclic_group(4)
        h = subgroup(g, [0, 2])
        for x in range(4):
            assert conjugate_subgroup(h, x) == h

    def test_s3_transposition_conjugate(self):
        g = symmetric_group(3)
        lab = {name: i for i, name in enumerate(g.element_labels)}
        h12 = subgroup(g, [0, lab["(12)"]])
        got = conjugate_subgroup(h12, lab["(13)"])
        assert got.members == (0, lab["(23)"])

    def test_identity_conjugation(self):
        g = symmetric_group(3)
        h = subgroup(g, [0, 2])
        assert conjugate_subgroup(h, 0) == h

    def test_are_conjugate_same_subgroup(self):
        g = symmetric_group(3)
        h = subgroup(g, [0, 2])
        assert are_conjugate(h, h) == 0

    def test_are_conjugate_s3_transpositions(self):
        g = symmetric_group(3)
        lab = {name: i for i, name in enumerate(g.element_labels)}
        h1 = subgroup(g, [0, lab["(12)"]])
        h2 = subgroup(g, [0, lab["(13)"]])
        w = are_conjugate(h1, h2)
        assert w is not None
        assert conjugate_subgroup(h1, w) == h2

    def test_different_orders_not_conjugate(self):
        g = cyclic_group(4)
        assert are_conjugate(subgroup(g, [0, 2]), trivial_subgroup(g)) is None

    def test_equivalence_relation_spot_check(self):
        g = symmetric_group(4)
        subs = enumerate_subgroups(g)
        rng = np.random.default_rng(7)
        order2 = [h for h in subs if h.order == 2]
        for _ in range(20):
            a, b, c = (order2[i] for i in rng.integers(0, len(order2), size=3))
            # symmetry
            if are_conjugate(a, b) is not None:
                assert are_conjugate(b, a) is not None
            # transitivity
            if are_conjugate(a, b) is not None and are_conjugate(b, c) is not None:
                assert are_conjugate(a, c) is not None


class TestNormalClosure:
    def test_abelian_closure_is_self(self):
        g = cyclic_group(6)
        for h in enumerate_subgroups(g):
            assert normal_closure(g, h) == h

    def test_s3_transposition_generates_everything(self):
        g = symmetric_group(3)
        lab = {name: i for i, name in enumerate(g.element_labels)}
        h = subgroup(g, [0, lab["(12)"]])
        assert normal_closure(g, h).order == 6

    def test_trivial_closure(self):
        g = symmetric_group(3)
        assert normal_closure(g, trivial_subgroup(g)).order == 1

    @pytest.mark.parametrize("make", [symmetric_group, lambda m=None: dihedral_group_4()])
    def test_closure_is_minimal_and_normal(self, make):
        g = make(3) if make is symmetric_group else make()
        subs = enumerate_subgroups(g)
        normals = [h for h in subs if is_normal(g, h)]
        for h in subs:
            cl = normal_closure(g, h)
            assert is_normal(g, cl)
            assert set(h.members) <= set(cl.members)
            # minimality: intersection of all normal subgroups containing h
            containing = [set(n.members) for n in normals if set(h.members) <= set(n.members)]
            smallest = set.intersection(*containing)
            assert set(cl.members) == smallest

    def test_idempotent_and_monotone(self):
        g = dihedral_group_4()
        subs = enumerate_subgroups(g)
        for h in subs:
            cl = normal_closure(g, h)
            assert normal_closure(g, cl) == cl
        for h1 in subs:
            for h2 in subs:
                if set(h1.members) <= set(h2.members):
                    c1 = normal_closure(g, h1)
                    c2 = normal_closure(g, h2)
                    assert set(c1.members) <= set(c2.members)


class TestSpecParsing:
    def test_table_spec(self):
        g = group_from_spec({"kind": "table", "mul": Z4_TABLE})
        assert g.order == 4

    def test_builtin_spec(self):
        g = group_from_spec({"kind": "builtin", "name": "S3"})
        assert g.order == 6

    def test_bad_specs(self):
        with pytest.raises(InvalidSpec):
            group_from_spec({"kind": "nope"})
        with pytest.raises(InvalidSpec):
            group_from_spec({"kind": "table"})
        with pytest.raises(InvalidSpec):
            group_from_spec([1, 2, 3])


@st.composite
def small_group_and_elements(draw):
    g = draw(st.sampled_from([cyclic_group(6), symmetric_group(3), dihedral_group_4()]))
    xs = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=3))
    return g, xs


@given(small_group_and_elements())
@settings(max_examples=50, deadline=None)
def test_generated_subgroup_contains_generators_and_is_closed(data):
    g, xs = data
    h = subgroup(g, generated_subgroup(g, xs).members)  # re-validate
    assert all(x in h for x in xs)


@given(small_group_and_elements())
@settings(max_examples=50, deadline=None)
def test_conjugate_preserves_order(data):
    g, xs = data
    h = generated_subgroup(g, xs[:1])
    for x in xs:
        assert conjugate_subgroup(h, x).order == h.order


# Builtin groups of order at most 60, direct products included.
SMALL_GROUP_NAMES = ["Zn:1", "Zn:2", "Z4", "Zn:7", "S3", "D4", "Q8", "S4", "product:Z4xZn:2",
                     "product:S3xZn:5", "product:S3xS3", "product:Q8xS3", "product:D4xZn:7"]


@st.composite
def tables_with_at_most_one_swap(draw):
    """A builtin group's table, possibly with two non-identity cells of one
    non-identity row swapped: rows stay permutations, so the identity and the
    inverses survive and only associativity can break."""
    g = builtin_group(draw(st.sampled_from(SMALL_GROUP_NAMES)))
    mul = np.array(g.mul)
    others = [x for x in range(g.order) if x != g.identity]
    if len(others) >= 2 and draw(st.booleans()):
        row = draw(st.sampled_from(others))
        c1, c2 = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        mul[row, [c1, c2]] = mul[row, [c2, c1]]
    return mul


@given(tables_with_at_most_one_swap())
@settings(max_examples=100)
def test_validate_group_refuses_exactly_the_non_associative_tables(mul):
    if associativity_witness(mul) is None:
        assert validate_group(mul).order == len(mul)
    else:
        with pytest.raises(NotAssociative) as exc:
            validate_group(mul)
        a, b, c = exc.value.triple
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]


def _refusal(mul):
    """The triple validate_group refuses the table with, or None when it accepts the table."""
    try:
        validate_group(mul)
    except NotAssociative as exc:
        return exc.triple
    return None


@given(tables_with_at_most_one_swap())
@settings(max_examples=100)
def test_witness_is_the_frontier_oracles(mul):
    assert _refusal(mul) == light_witness_by_frontiers(mul, 0)


@pytest.mark.parametrize("name", ["product:S4xZn:5", "product:D4xZn:16", "Zn:300"])
def test_one_swap_witness_is_the_frontier_oracles_on_larger_groups(name):
    # a swap in a non-identity row leaves that row a permutation but puts a
    # repeat in a column, so the table is no group and must be refused
    g = builtin_group(name)
    rng = np.random.default_rng(g.order)
    for _ in range(4):
        mul = np.array(g.mul)
        row, c1, c2 = rng.choice(np.arange(1, g.order), size=3, replace=False)
        mul[row, [c1, c2]] = mul[row, [c2, c1]]
        want = light_witness_by_frontiers(mul, 0)
        assert want is not None
        assert _refusal(mul) == want


# A non-associative loop of order 5: each row and column is a permutation.
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("name", ["Zn:7", "S4", "product:D4xZn:3", "Zn:300"])
def test_witness_past_many_passing_generators_is_the_frontier_oracles(name):
    # loop x G with index a * |G| + b: the elements (e, b) pass, so the
    # test grows the whole of G before it reaches a failing generator
    g = builtin_group(name)
    a, b = np.divmod(np.arange(5 * g.order), g.order)
    mul = LOOP5[a[:, None], a[None, :]] * g.order + g.mul[b[:, None], b[None, :]]
    want = light_witness_by_frontiers(mul, 0)
    assert want is not None and want[1] >= g.order
    assert _refusal(mul) == want


@pytest.mark.parametrize("name", ["S4", "product:S3xS3", "product:Q8xS3", "Zn:60"])
def test_product_closure_reaches_the_generated_subgroup(name):
    g = builtin_group(name)
    table = np.array(g.mul).astype(g.id_dtype)
    rng = np.random.default_rng(7)
    for _ in range(30):
        gens = [int(x) for x in rng.integers(0, g.order, size=int(rng.integers(1, 4)))]
        reached = np.zeros(g.order, dtype=bool)
        reached[list(generated_subgroup(g, gens[:-1]).members)] = True
        new = gens[-1]
        reached[new] = True
        _product_closure(table, reached, np.array([new]))
        assert tuple(np.flatnonzero(reached)) == generated_subgroup(g, gens).members


def test_cyclic_tables_are_the_sums_mod_n():
    for n in [*range(1, 65), 500]:
        assert np.array_equal(cyclic_group(n).mul, cyclic_table(n)), n


PRODUCT_FACTORS = ["Zn:1", "Zn:2", "Zn:3", "Z4", "Zn:5", "S3", "Zn:7", "D4", "Q8", "S4"]


def test_direct_product_tables_are_the_componentwise_products():
    pairs = [(a, b) for a in PRODUCT_FACTORS for b in PRODUCT_FACTORS
             if builtin_group(a).order * builtin_group(b).order <= 64]
    pairs += [("S4", "Zn:20"), ("D4", "Zn:64")]
    for a, b in pairs:
        g1, g2 = builtin_group(a), builtin_group(b)
        assert np.array_equal(direct_product(g1, g2).mul, direct_product_table(g1, g2)), (a, b)
