"""The frozen dictionary-backed information engine (test oracle only).

Not part of the library: the production engine is the array-coded
:class:`repro.infotheory.distributions.JointDistribution`.  This copy
keeps the earlier representation -- outcome tuples keyed in a dict -- with
the entropy and mutual-information functions that read it, plus the
Theorem 5.1 pinned-world loop that built its joint outcome by outcome.
The property suite compares the production engine against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.template_graph import sample_input
from repro.lowerbounds.one_round import _message_distribution

__all__ = [
    "JointDistribution",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "pinned_world_mis",
]

_EPS = 1e-12
_ATOL = 1e-9


@dataclass(frozen=True)
class JointDistribution:
    """An exact joint distribution over named discrete variables.

    ``variables`` names the coordinates; ``pmf`` maps outcome tuples (one
    entry per variable, in order) to probabilities.
    """

    variables: Tuple[str, ...]
    pmf: Mapping[Tuple[Any, ...], float]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        total = 0.0
        for outcome, p in self.pmf.items():
            if len(outcome) != len(self.variables):
                raise ValueError(
                    f"outcome {outcome!r} arity != {len(self.variables)} variables"
                )
            if p < -_ATOL:
                raise ValueError(f"negative probability {p} for {outcome!r}")
            total += p
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, not 1")

    # ------------------------------------------------------------------
    @staticmethod
    def from_samples(
        variables: Sequence[str], samples: Iterable[Tuple[Any, ...]]
    ) -> "JointDistribution":
        """Empirical (plug-in) distribution from a sample of outcome tuples."""
        counts: Dict[Tuple[Any, ...], int] = {}
        n = 0
        for s in samples:
            counts[tuple(s)] = counts.get(tuple(s), 0) + 1
            n += 1
        if n == 0:
            raise ValueError("cannot build a distribution from zero samples")
        return JointDistribution(
            tuple(variables), {o: c / n for o, c in counts.items()}
        )

    @staticmethod
    def uniform_bits(names: Sequence[str]) -> "JointDistribution":
        """IID Bernoulli(1/2) bits -- the paper's edge-presence variables."""
        k = len(names)
        p = 1.0 / (1 << k)
        pmf = {}
        for mask in range(1 << k):
            outcome = tuple((mask >> i) & 1 for i in range(k))
            pmf[outcome] = p
        return JointDistribution(tuple(names), pmf)

    # ------------------------------------------------------------------
    def _idx(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.variables}")

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        """Marginal distribution of the listed variables (in listed order)."""
        idxs = [self._idx(n) for n in names]
        out: Dict[Tuple[Any, ...], float] = {}
        for outcome, p in self.pmf.items():
            key = tuple(outcome[i] for i in idxs)
            out[key] = out.get(key, 0.0) + p
        return JointDistribution(tuple(names), out)

    def condition(self, **fixed: Any) -> "JointDistribution":
        """Condition on ``variable=value`` assignments.

        Keeps all variables (the fixed ones become deterministic), so the
        result composes with further operations.  Raises if the event has
        probability zero.
        """
        idx_val = [(self._idx(k), v) for k, v in fixed.items()]
        kept = {
            o: p for o, p in self.pmf.items() if all(o[i] == v for i, v in idx_val)
        }
        z = sum(kept.values())
        if z <= _ATOL:
            raise ValueError(f"conditioning event {fixed} has probability ~0")
        return JointDistribution(
            self.variables, {o: p / z for o, p in kept.items()}
        )

    def probability(self, **fixed: Any) -> float:
        """Probability of the event ``variable=value, ...``."""
        idx_val = [(self._idx(k), v) for k, v in fixed.items()]
        return sum(
            p for o, p in self.pmf.items() if all(o[i] == v for i, v in idx_val)
        )

    def support(self, name: str) -> Tuple[Any, ...]:
        i = self._idx(name)
        return tuple(sorted({o[i] for o, p in self.pmf.items() if p > _ATOL}, key=repr))

    def map_variable(
        self, name: str, fn: Callable[[Any], Any], new_name: str
    ) -> "JointDistribution":
        """Push one coordinate through a function (data processing).

        Used to model "the node's decision is a function of its inputs and
        messages": apply the decision map and measure information after.
        """
        i = self._idx(name)
        out: Dict[Tuple[Any, ...], float] = {}
        for o, p in self.pmf.items():
            new_o = o[:i] + (fn(o[i]),) + o[i + 1 :]
            out[new_o] = out.get(new_o, 0.0) + p
        new_vars = self.variables[:i] + (new_name,) + self.variables[i + 1 :]
        return JointDistribution(new_vars, out)

    def join_with_product(self, other: "JointDistribution") -> "JointDistribution":
        """Independent product of two joint distributions."""
        if set(self.variables) & set(other.variables):
            raise ValueError("variable names must be disjoint for a product")
        pmf: Dict[Tuple[Any, ...], float] = {}
        for o1, p1 in self.pmf.items():
            for o2, p2 in other.pmf.items():
                pmf[o1 + o2] = p1 * p2
        return JointDistribution(self.variables + other.variables, pmf)


def entropy(dist: JointDistribution, names: Optional[Sequence[str]] = None) -> float:
    """``H(X)`` for the (joint) variable(s) ``names`` (all if omitted), in bits."""
    if names is None:
        names = dist.variables
    marg = dist.marginal(list(names))
    return -sum(p * math.log2(p) for p in marg.pmf.values() if p > _EPS)


def conditional_entropy(
    dist: JointDistribution, x: Sequence[str], given: Sequence[str]
) -> float:
    """``H(X | Y) = H(X, Y) - H(Y)`` (the chain-rule form; exact)."""
    return entropy(dist, list(x) + list(given)) - entropy(dist, given)


def mutual_information(
    dist: JointDistribution,
    x: Sequence[str],
    y: Sequence[str],
    given: Optional[Sequence[str]] = None,
) -> float:
    """``I(X; Y)`` or, with ``given``, ``I(X; Y | Z)`` in bits.

    ``I(X;Y|Z) = H(X|Z) - H(X|Y,Z)``, exactly as defined in Section 2.
    Clamped at 0 against floating-point negatives.
    """
    if given:
        val = conditional_entropy(dist, x, given) - conditional_entropy(
            dist, x, list(y) + list(given)
        )
    else:
        val = entropy(dist, x) - conditional_entropy(dist, x, y)
    return max(0.0, val)


def conditional_mutual_information(
    dist: JointDistribution,
    x: Sequence[str],
    y: Sequence[str],
    /,
    given: Optional[Sequence[str]] = None,
    **events: Any,
) -> float:
    """``I(X; Y | Z, W=w)``: condition on events, then take (conditional) MI.

    This is the paper's ``I(X_bc; M_ba, M_ca | N_a, X_ab=1, X_ac=1)``
    pattern: ``N_a`` stays a conditioning *variable* while ``X_ab, X_ac``
    are pinned to *values*.  ``x`` and ``y`` are positional-only so that
    event kwargs may use any variable name (a variable literally named
    ``given`` is the one exception).
    """
    d = dist.condition(**events) if events else dist
    return mutual_information(d, x, y, given=given)


def pinned_world_mis(
    protocol,
    n: int,
    rng: np.random.Generator,
    num_worlds: int = 10,
    id_space: Optional[int] = None,
    n_free_max: int = 14,
) -> Tuple[List[float], int]:
    """Per-world MI and longest message of ``pinned_world_mi``, computed
    with the dictionary engine."""
    if id_space is None:
        id_space = max(n**3, 1024)
    mis: List[float] = []
    max_bits = 0
    worlds = 0
    attempts = 0
    while worlds < num_worlds and attempts < 100 * num_worlds:
        attempts += 1
        sample = sample_input(n, rng, id_space=id_space)
        if sample.has_duplicate_ids():
            continue
        worlds += 1
        inp_b = sample.inputs["b"]
        inp_c = sample.inputs["c"]
        dist_b = _message_distribution(
            protocol,
            inp_b.ids,
            inp_b.own_id,
            pinned={inp_b.partner_index["a"]: 1},
            x_bc_index=inp_b.partner_index["c"],
            n_free_max=n_free_max,
            rng=rng,
        )
        dist_c = _message_distribution(
            protocol,
            inp_c.ids,
            inp_c.own_id,
            pinned={inp_c.partner_index["a"]: 1},
            x_bc_index=inp_c.partner_index["b"],
            n_free_max=n_free_max,
            rng=rng,
        )
        # Joint: X_bc uniform; M_ba, M_ca independent given X_bc.
        pmf: Dict[Tuple, float] = {}
        for b in (0, 1):
            for mb, pb in dist_b[b].items():
                for mc, pc in dist_c[b].items():
                    key = (b, mb, mc)
                    pmf[key] = pmf.get(key, 0.0) + 0.5 * pb * pc
                    max_bits = max(max_bits, len(mb), len(mc))
        joint = JointDistribution(("x_bc", "m_ba", "m_ca"), pmf)
        mis.append(mutual_information(joint, ["x_bc"], ["m_ba", "m_ca"]))
    return mis, max_bits
