"""Tests for exact entropy / mutual information, including the standard
identities the Section 5 proof manipulates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory import (
    JointDistribution,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)


def random_joint(rng, n_vars=3, support=2):
    """A random joint distribution over n_vars variables."""
    outcomes = []

    def rec(prefix):
        if len(prefix) == n_vars:
            outcomes.append(tuple(prefix))
            return
        for v in range(support):
            rec(prefix + [v])

    rec([])
    w = rng.random(len(outcomes)) + 1e-3
    w /= w.sum()
    names = tuple(f"v{i}" for i in range(n_vars))
    return JointDistribution(names, dict(zip(outcomes, w.tolist())))


class TestBinaryEntropy:
    def test_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestEntropy:
    def test_uniform_bits(self):
        d = JointDistribution.uniform_bits(["a", "b", "c"])
        assert entropy(d) == pytest.approx(3.0)
        assert entropy(d, ["a"]) == pytest.approx(1.0)

    def test_deterministic_zero(self):
        d = JointDistribution(("x",), {(7,): 1.0})
        assert entropy(d) == 0.0

    def test_chain_rule(self):
        rng = np.random.default_rng(0)
        d = random_joint(rng)
        # H(X,Y) = H(X) + H(Y|X)
        assert entropy(d, ["v0", "v1"]) == pytest.approx(
            entropy(d, ["v0"]) + conditional_entropy(d, ["v1"], ["v0"])
        )

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_conditioning_reduces_entropy(self, seed):
        d = random_joint(np.random.default_rng(seed))
        assert conditional_entropy(d, ["v0"], ["v1"]) <= entropy(d, ["v0"]) + 1e-9


class TestMutualInformation:
    def test_independent_is_zero(self):
        d = JointDistribution.uniform_bits(["x", "y"])
        assert mutual_information(d, ["x"], ["y"]) == pytest.approx(0.0, abs=1e-9)

    def test_identical_is_entropy(self):
        d = JointDistribution(("x", "y"), {(0, 0): 0.5, (1, 1): 0.5})
        assert mutual_information(d, ["x"], ["y"]) == pytest.approx(1.0)

    def test_symmetric(self):
        d = random_joint(np.random.default_rng(3))
        assert mutual_information(d, ["v0"], ["v1"]) == pytest.approx(
            mutual_information(d, ["v1"], ["v0"])
        )

    def test_xor_structure(self):
        """Z = X xor Y with X,Y iid uniform: I(X;Z)=0 but I(X;Z|Y)=1 --
        conditioning can CREATE information, the effect the Lemma 5.4 proof
        has to handle when conditioning on N_a."""
        pmf = {}
        for x in (0, 1):
            for y in (0, 1):
                pmf[(x, y, x ^ y)] = 0.25
        d = JointDistribution(("x", "y", "z"), pmf)
        assert mutual_information(d, ["x"], ["z"]) == pytest.approx(0.0, abs=1e-9)
        assert mutual_information(d, ["x"], ["z"], given=["y"]) == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_nonnegativity(self, seed):
        d = random_joint(np.random.default_rng(seed))
        assert mutual_information(d, ["v0"], ["v1"]) >= 0.0
        assert mutual_information(d, ["v0"], ["v1"], given=["v2"]) >= 0.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_data_processing_inequality(self, seed):
        """I(X; f(Y)) <= I(X; Y) -- the inequality Lemma 5.3's proof opens
        with ('the decision is a function of input and messages')."""
        d = random_joint(np.random.default_rng(seed), n_vars=2, support=4)
        coarse = d.map_variable("v1", lambda v: v // 2, "f_v1")
        assert (
            mutual_information(coarse, ["v0"], ["f_v1"])
            <= mutual_information(d, ["v0"], ["v1"]) + 1e-9
        )

    def test_mi_bounded_by_message_length(self):
        """I(X; M) <= H(M) <= |M| bits -- the raw fact behind Lemma 5.4."""
        rng = np.random.default_rng(11)
        d = random_joint(rng, n_vars=2, support=4)  # v1 plays a 2-bit message
        assert mutual_information(d, ["v0"], ["v1"]) <= 2.0 + 1e-9


class TestConditionalEvents:
    def test_event_conditioning(self):
        # X uniform bit; Y = X when E=1, Y independent when E=0.
        pmf = {}
        for x in (0, 1):
            for e in (0, 1):
                for y in (0, 1):
                    if e == 1:
                        p = 0.25 if y == x else 0.0
                    else:
                        p = 0.125
                    if p:
                        pmf[(x, e, y)] = p
        d = JointDistribution(("x", "e", "y"), pmf)
        assert conditional_mutual_information(d, ["x"], ["y"], e=1) == pytest.approx(1.0)
        assert conditional_mutual_information(d, ["x"], ["y"], e=0) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_zero_probability_event_raises(self):
        d = JointDistribution.uniform_bits(["x", "y"])
        with pytest.raises(ValueError):
            conditional_mutual_information(d, ["x"], ["y"], x=7)

    def test_paper_expectation_decomposition(self):
        """I(X;Y) >= Pr[E] * I(X;Y | E) for an event E on other coordinates
        -- the '1/4 factor' step in Lemma 5.4's proof."""
        rng = np.random.default_rng(5)
        d = random_joint(rng, n_vars=3, support=2)
        lhs = mutual_information(d, ["v0"], ["v1"], given=["v2"])
        p1 = d.probability(v2=1)
        rhs = p1 * conditional_mutual_information(d, ["v0"], ["v1"], v2=1)
        assert lhs >= rhs - 1e-9


class TestDistributions:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(("x",), {(0,): 0.4})
        with pytest.raises(ValueError):
            JointDistribution(("x", "x"), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            JointDistribution(("x",), {(0, 1): 1.0})

    def test_marginal_and_support(self):
        d = JointDistribution.uniform_bits(["a", "b"])
        m = d.marginal(["b"])
        assert m.probability(b=1) == pytest.approx(0.5)
        assert d.support("a") == (0, 1)

    def test_product(self):
        a = JointDistribution.uniform_bits(["a"])
        b = JointDistribution.uniform_bits(["b"])
        prod = a.join_with_product(b)
        assert mutual_information(prod, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)

    def test_product_name_clash(self):
        a = JointDistribution.uniform_bits(["a"])
        with pytest.raises(ValueError):
            a.join_with_product(a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError):
            JointDistribution(("x",), {(0,): bad, (1,): 1.0})

    def test_from_codes_rejects_nan(self):
        with pytest.raises(ValueError):
            JointDistribution.from_codes(("x",), [(0, 1)], [[0, 1]], [math.nan, 1.0])

    def test_from_codes_matches_constructor(self):
        d = JointDistribution.from_codes(
            ("x", "m"), [(0, 1), ("a", "b")], [[0, 1, 1, 1], [0, 1, 0, 1]],
            [0.5, 0.25, 0.125, 0.125],
        )
        assert d.pmf == {(0, "a"): 0.5, (1, "a"): 0.125, (1, "b"): 0.375}
        for bad in (
            ([(0, 0)], [[0]], [1.0]),  # repeated value in a table
            ([(0,)], [[1]], [1.0]),  # code outside the table
            ([(0,)], [[0, 0]], [1.0]),  # column longer than the vector
        ):
            with pytest.raises(ValueError):
                JointDistribution.from_codes(("x",), *bad)

    def test_from_samples(self):
        d = JointDistribution.from_samples(("x",), [(1,), (1,), (0,), (1,)])
        assert d.probability(x=1) == pytest.approx(0.75)

    def test_from_empty_samples(self):
        with pytest.raises(ValueError):
            JointDistribution.from_samples(("x",), [])


class TestDivergence:
    """KL divergence and Pinsker: the machinery behind Lemma 5.3's step
    from a behavioural gap to a mutual-information lower bound."""

    def test_kl_zero_iff_equal(self):
        from repro.infotheory import kl_divergence

        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0)
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0

    def test_kl_infinite_off_support(self):
        import math

        from repro.infotheory import kl_divergence

        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_kl_asymmetric(self):
        from repro.infotheory import kl_divergence

        a = kl_divergence([0.9, 0.1], [0.5, 0.5])
        b = kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert a != pytest.approx(b)

    def test_kl_validates(self):
        from repro.infotheory import kl_divergence

        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.6], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_divergences_reject_non_finite(self, bad):
        from repro.infotheory import kl_divergence, pinsker_bound

        with pytest.raises(ValueError):
            kl_divergence([bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, bad])
        with pytest.raises(ValueError):
            pinsker_bound([bad, 1.0], [0.5, 0.5])

    def test_pinsker_validates(self):
        from repro.infotheory import pinsker_bound

        with pytest.raises(ValueError):
            pinsker_bound([0.5, 0.6], [0.5, 0.5])

    def test_mi_is_expected_divergence(self):
        """I(X; Y) = E_x D(P_{Y|x} || P_Y) -- the identity Lemma 5.3 walks."""
        from repro.infotheory import kl_divergence

        d = random_joint(np.random.default_rng(8), n_vars=2, support=3)
        marg_y = [d.probability(v1=y) for y in d.support("v1")]
        expected = 0.0
        for x in d.support("v0"):
            px = d.probability(v0=x)
            cond = d.condition(v0=x)
            cond_y = [cond.probability(v1=y) for y in d.support("v1")]
            expected += px * kl_divergence(cond_y, marg_y)
        assert expected == pytest.approx(
            mutual_information(d, ["v0"], ["v1"]), abs=1e-9
        )

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60)
    def test_pinsker_lower_bounds_kl(self, p, q):
        from repro.infotheory import binary_kl, pinsker_bound

        assert binary_kl(p, q) >= pinsker_bound([p, 1 - p], [q, 1 - q]) - 1e-9

    def test_lemma_5_3_numbers_via_divergence(self):
        """The paper's accept probabilities (99/100 vs <= 67/100 prior)
        certify a noticeable divergence, hence noticeable information."""
        from repro.infotheory import binary_kl

        prior = 0.5 * 0.99 + 0.5 * 0.67
        gap = 0.5 * binary_kl(0.99, prior) + 0.5 * binary_kl(0.67, prior)
        assert gap > 0.05  # comfortably nonzero; the paper rounds to >= 0.3
