"""The array-coded information engine agrees with the frozen dict oracle.

Small joints over mixed value types (ints, strings, tuples) are generated
and every operation is checked against
:mod:`tests.infotheory.dict_reference`, within ``1e-12``.  The Theorem 5.1
pinned-world MI is checked on the benchmark's catalogue of 16 input seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triangle import (
    FullAnnouncementProtocol,
    HashSketchProtocol,
    TruncatedAnnouncementProtocol,
)
from repro.infotheory import (
    JointDistribution,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from repro.lowerbounds.one_round import pinned_world_mi
from tests.infotheory import dict_reference as ref

TOL = 1e-12
#: The oracle sums entropy terms one by one; over at most 2 * 2^8 * 2^8
#: outcomes with entropy <= 17 bits that sum is off by at most
#: n * 2^-53 * H < 2.5e-10 per entropy, and MI combines three of them.
SEQUENTIAL_SUM_TOL = 1e-9

VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["", "0", "01", "b"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(["x", "y"])),
)


@st.composite
def joints(draw, prefix="v", max_vars=3):
    """A (array, oracle) pair over the same random pmf."""
    k = draw(st.integers(min_value=1, max_value=max_vars))
    names = tuple(f"{prefix}{i}" for i in range(k))
    outcomes = draw(
        st.lists(st.tuples(*[VALUES] * k), min_size=1, max_size=12, unique=True)
    )
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
            min_size=len(outcomes),
            max_size=len(outcomes),
        )
    )
    weights[0] += 0.5  # some mass somewhere
    total = sum(weights)
    pmf = {o: w / total for o, w in zip(outcomes, weights)}
    return JointDistribution(names, pmf), ref.JointDistribution(names, pmf)


def assert_same(got, want):
    assert got.variables == want.variables
    got_pmf = got.pmf
    assert got_pmf.keys() == want.pmf.keys()
    for outcome, p in want.pmf.items():
        assert abs(got_pmf[outcome] - p) <= TOL, outcome


def coarse(v):
    """A many-to-one map across the mixed value types."""
    return len(repr(v)) % 3


PROPS = settings(max_examples=60, deadline=None)


class TestAgainstDictOracle:
    @given(joints(), st.data())
    @PROPS
    def test_marginal(self, pair, data):
        new, old = pair
        names = data.draw(st.permutations(new.variables))
        names = names[: data.draw(st.integers(0, len(names)))]
        assert_same(new.marginal(names), old.marginal(names))

    @given(joints(), st.data())
    @PROPS
    def test_condition_and_probability(self, pair, data):
        new, old = pair
        name = data.draw(st.sampled_from(new.variables))
        value = data.draw(st.one_of(st.sampled_from(old.support(name)), VALUES))
        want = old.probability(**{name: value})
        assert abs(new.probability(**{name: value}) - want) <= TOL
        if want > 1e-9:
            assert_same(new.condition(**{name: value}), old.condition(**{name: value}))
        else:
            with pytest.raises(ValueError):
                new.condition(**{name: value})

    @given(joints())
    @PROPS
    def test_support(self, pair):
        new, old = pair
        for name in new.variables:
            assert new.support(name) == old.support(name)

    @given(joints())
    @PROPS
    def test_map_variable(self, pair):
        new, old = pair
        name = new.variables[-1]
        assert_same(
            new.map_variable(name, coarse, "f"), old.map_variable(name, coarse, "f")
        )

    @given(joints(max_vars=2), joints(prefix="w", max_vars=2))
    @PROPS
    def test_join_with_product(self, left, right):
        assert_same(left[0].join_with_product(right[0]), left[1].join_with_product(right[1]))

    @given(joints(), st.data())
    @PROPS
    def test_entropy_and_mutual_information(self, pair, data):
        new, old = pair
        names = list(data.draw(st.permutations(new.variables)))
        assert abs(entropy(new, names[:2]) - ref.entropy(old, names[:2])) <= TOL
        x, y, z = names[:1], names[1:2], names[2:]
        assert abs(mutual_information(new, x, y) - ref.mutual_information(old, x, y)) <= TOL
        assert (
            abs(
                mutual_information(new, x, y, given=z)
                - ref.mutual_information(old, x, y, given=z)
            )
            <= TOL
        )

    @given(joints(), st.data())
    @PROPS
    def test_conditional_mutual_information_with_events(self, pair, data):
        new, old = pair
        names = list(new.variables)
        event = names[-1]
        value = data.draw(st.sampled_from(old.support(event)))
        x, y = names[:1], names[1:2]
        got = conditional_mutual_information(new, x, y, **{event: value})
        want = ref.conditional_mutual_information(old, x, y, **{event: value})
        assert abs(got - want) <= TOL


def test_marginal_past_the_int64_key_range():
    """Seven variables of ~4000 distinct values each: the radix product
    passes 2^62, so the grouping key is re-densified part way."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 10**6, size=(4000, 7))
    rows[::2, 6] = 7  # repeats, so the marginals really merge
    pmf = {}
    for row in map(tuple, rows.tolist()):
        pmf[row] = pmf.get(row, 0.0) + 1 / len(rows)
    names = tuple("abcdefg")
    new, old = JointDistribution(names, pmf), ref.JointDistribution(names, pmf)
    for keep in ("gfedcb", "gab", "g"):
        assert_same(new.marginal(list(keep)), old.marginal(list(keep)))


class TestPinnedWorldAgainstOracle:
    """Per-world Theorem 5.1 MI on the 16 benchmark catalogue entries.

    The announcement protocols' worlds have dyadic probabilities, so every
    entropy term is exact and the engines must agree bit for bit; the hash
    sketch's are not, and the engines may differ by summation rounding.
    """

    N = 8

    @pytest.mark.parametrize("entry", range(16))
    @pytest.mark.parametrize(
        "stream, protocol, worlds, tol",
        [
            (1, FullAnnouncementProtocol(10), 2, 0.0),
            (2, TruncatedAnnouncementProtocol(10, budget=20), 4, 0.0),
            (3, HashSketchProtocol(16), 4, SEQUENTIAL_SUM_TOL),
        ],
        ids=["full", "truncated", "hash-sketch"],
    )
    def test_per_world_mi_equal(self, entry, stream, protocol, worlds, tol):
        got = pinned_world_mi(
            protocol, self.N, np.random.default_rng([stream, entry]), num_worlds=worlds
        )
        want, max_bits = ref.pinned_world_mis(
            protocol, self.N, np.random.default_rng([stream, entry]), num_worlds=worlds
        )
        assert len(got.mi_per_world) == len(want)
        for a, b in zip(got.mi_per_world, want):
            assert abs(a - b) <= tol
        assert got.max_message_bits == max_bits
