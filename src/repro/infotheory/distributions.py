"""Finite joint distributions with named variables.

Section 5's lower bound is an exercise in conditional mutual information
over finite spaces (edge bits, permuted indices, short messages).  This
module gives an exact, array-coded representation:

* each variable is one integer *code column*, indexing a table of that
  variable's distinct values (in first-occurrence order);
* one ``float64`` vector holds each row's probability.

Rows are distinct outcomes and their probabilities sum to 1.  That is
checked once, where a distribution enters from outside (the constructor
and :meth:`JointDistribution.from_codes`): distinct names, matching
arity, finite non-negative probabilities summing to 1.  The operations
that derive one distribution from another (``marginal``, ``condition``,
``map_variable``, ``join_with_product``) preserve those facts and skip
the check.

Grouping rows (a marginal, a pushforward) combines the selected code
columns into one mixed-radix ``int64`` key, groups equal keys with
``np.unique`` and sums each group's mass with ``np.bincount``, which adds
in row order: the same additions, in the same order, as accumulating the
outcomes into a dictionary.

Everything downstream (:mod:`repro.infotheory.entropy`) consumes these, so
identities like the chain rule and non-negativity of MI are testable
properties of the code, not hopes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["JointDistribution"]

_ATOL = 1e-9
#: Mixed-radix keys stay below this; wider keys are re-densified first.
_KEY_LIMIT = 1 << 62


def _check_probabilities(p: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``p`` is finite, non-negative (to
    ``1e-9``) and sums to 1 (to ``1e-6``)."""
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.size and p.min() < -_ATOL:
        raise ValueError(f"negative probability {p.min()}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")


def _check_names(variables: Tuple[str, ...]) -> None:
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _group(
    codes: Sequence[np.ndarray], radices: Sequence[int], p: np.ndarray
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Merge rows with equal codes: the distinct rows (in mixed-radix key
    order) and the summed probability of each."""
    key = np.zeros(len(p), dtype=np.int64)
    span = 1
    for col, radix in zip(codes, radices):
        radix = max(radix, 1)
        if span > _KEY_LIMIT // radix:
            uniq, key = np.unique(key, return_inverse=True)
            span = len(uniq)
        key = key * radix + col
        span *= radix
    uniq, inverse = np.unique(key, return_inverse=True)
    # Any row of a group represents it: all its rows carry equal codes.
    rep = np.empty(len(uniq), dtype=np.int64)
    rep[inverse] = np.arange(len(p))
    mass = np.bincount(inverse, weights=p, minlength=len(uniq))
    return tuple(_readonly(col[rep]) for col in codes), _readonly(mass)


class JointDistribution:
    """An exact joint distribution over named discrete variables.

    ``variables`` names the coordinates; the constructor takes ``pmf``, a
    mapping from outcome tuples (one entry per variable, in order) to
    probabilities.  :attr:`pmf` reads it back as a dictionary.
    """

    __slots__ = ("variables", "_values", "_index", "_codes", "_p")
    variables: Tuple[str, ...]
    _values: Tuple[Tuple[Any, ...], ...]  # per variable: its distinct values
    _index: Tuple[Dict[Any, int], ...]  # per variable: value -> code
    _codes: Tuple[np.ndarray, ...]  # per variable: one int64 code per row
    _p: np.ndarray  # float64, one probability per row

    def __init__(
        self, variables: Sequence[str], pmf: Mapping[Tuple[Any, ...], float]
    ) -> None:
        variables = tuple(variables)
        _check_names(variables)
        index: Tuple[Dict[Any, int], ...] = tuple({} for _ in variables)
        rows = []
        for outcome in pmf:
            if len(outcome) != len(variables):
                raise ValueError(
                    f"outcome {outcome!r} arity != {len(variables)} variables"
                )
            rows.append([ix.setdefault(v, len(ix)) for ix, v in zip(index, outcome)])
        p = np.array(list(pmf.values()), dtype=np.float64)
        _check_probabilities(p)
        codes = np.array(rows, dtype=np.int64).reshape(len(rows), len(variables))
        self.variables = variables
        self._values = tuple(tuple(ix) for ix in index)
        self._index = index
        self._codes = tuple(_readonly(col.copy()) for col in codes.T)
        self._p = _readonly(p)

    @classmethod
    def _derived(cls, variables, values, index, codes, p) -> "JointDistribution":
        """A distribution computed from a valid one: no re-validation."""
        out = cls.__new__(cls)
        out.variables, out._values, out._index, out._codes, out._p = (
            variables, values, index, codes, p
        )
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_codes(
        cls,
        variables: Sequence[str],
        values: Sequence[Sequence[Any]],
        codes: Sequence[Sequence[int]],
        probabilities: Sequence[float],
    ) -> "JointDistribution":
        """Build from arrays: row ``r`` is the outcome
        ``(values[0][codes[0][r]], values[1][codes[1][r]], ...)`` with
        probability ``probabilities[r]``.

        Each ``values[i]`` lists distinct values.  Rows repeating an
        outcome are merged and their probabilities summed.
        """
        variables = tuple(variables)
        _check_names(variables)
        if len(values) != len(variables) or len(codes) != len(variables):
            raise ValueError("need one value table and one code column per variable")
        p = np.array(probabilities, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probabilities must be a vector")
        _check_probabilities(p)
        tables = tuple(tuple(vals) for vals in values)
        index = tuple({v: c for c, v in enumerate(vals)} for vals in tables)
        if any(len(ix) != len(vals) for ix, vals in zip(index, tables)):
            raise ValueError("value tables must list distinct values")
        cols = tuple(np.asarray(col, dtype=np.int64) for col in codes)
        for col, vals in zip(cols, tables):
            if col.shape != p.shape:
                raise ValueError("every code column needs one code per row")
            if col.size and (col.min() < 0 or col.max() >= len(vals)):
                raise ValueError("code outside its value table")
        grouped, mass = _group(cols, [len(vals) for vals in tables], p)
        return cls._derived(variables, tables, index, grouped, mass)

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
    @property
    def probabilities(self) -> np.ndarray:
        """Read-only probability of each row (one row per outcome)."""
        return self._p

    @property
    def pmf(self) -> Dict[Tuple[Any, ...], float]:
        """The distribution as a fresh ``{outcome tuple: probability}`` dict."""
        columns = [
            [vals[c] for c in col.tolist()]
            for vals, col in zip(self._values, self._codes)
        ]
        outcomes = zip(*columns) if columns else [()] * len(self._p)
        return dict(zip(outcomes, self._p.tolist()))

    def __repr__(self) -> str:
        return f"JointDistribution({self.variables!r}, {len(self._p)} outcomes)"

    def _idx(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.variables}")

    def _event_mask(self, fixed: Mapping[str, Any]) -> np.ndarray:
        """Rows matching every ``variable=value`` assignment."""
        idx_val = [(self._idx(k), v) for k, v in fixed.items()]
        mask = np.ones(len(self._p), dtype=bool)
        for i, v in idx_val:
            try:
                code = self._index[i].get(v)
            except TypeError:  # unhashable: equal to no (hashable) value
                code = None
            if code is None:
                return np.zeros(len(self._p), dtype=bool)
            mask &= self._codes[i] == code
        return mask

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        """Marginal distribution of the listed variables (in listed order)."""
        idxs = [self._idx(n) for n in names]
        _check_names(tuple(names))
        if tuple(names) == self.variables:
            return self
        codes, p = _group(
            [self._codes[i] for i in idxs],
            [len(self._values[i]) for i in idxs],
            self._p,
        )
        return JointDistribution._derived(
            tuple(names),
            tuple(self._values[i] for i in idxs),
            tuple(self._index[i] for i in idxs),
            codes,
            p,
        )

    def condition(self, **fixed: Any) -> "JointDistribution":
        """Condition on ``variable=value`` assignments.

        Keeps all variables (the fixed ones become deterministic), so the
        result composes with further operations.  Raises if the event has
        probability zero.
        """
        mask = self._event_mask(fixed)
        p = self._p[mask]
        z = float(p.sum())
        if z <= _ATOL:
            raise ValueError(f"conditioning event {fixed} has probability ~0")
        return JointDistribution._derived(
            self.variables,
            self._values,
            self._index,
            tuple(_readonly(c[mask]) for c in self._codes),
            _readonly(p / z),
        )

    def probability(self, **fixed: Any) -> float:
        """Probability of the event ``variable=value, ...``."""
        return float(self._p[self._event_mask(fixed)].sum())

    def support(self, name: str) -> Tuple[Any, ...]:
        i = self._idx(name)
        present = np.unique(self._codes[i][self._p > _ATOL])
        values = self._values[i]
        return tuple(sorted((values[c] for c in present.tolist()), key=repr))

    def map_variable(
        self, name: str, fn: Callable[[Any], Any], new_name: str
    ) -> "JointDistribution":
        """Push one coordinate through a function (data processing).

        Used to model "the node's decision is a function of its inputs and
        messages": apply the decision map and measure information after.
        ``fn`` is called once per distinct value of ``name``.
        """
        i = self._idx(name)
        new_vars = self.variables[:i] + (new_name,) + self.variables[i + 1 :]
        _check_names(new_vars)
        old = self._values[i]
        index: Dict[Any, int] = {}
        remap = np.zeros(len(old), dtype=np.int64)
        for c in np.unique(self._codes[i]).tolist():
            remap[c] = index.setdefault(fn(old[c]), len(index))
        codes = list(self._codes)
        codes[i] = remap[codes[i]]
        radices = [len(v) for v in self._values]
        radices[i] = len(index)
        grouped, p = _group(codes, radices, self._p)
        return JointDistribution._derived(
            new_vars,
            self._values[:i] + (tuple(index),) + self._values[i + 1 :],
            self._index[:i] + (index,) + self._index[i + 1 :],
            grouped,
            p,
        )

    def join_with_product(self, other: "JointDistribution") -> "JointDistribution":
        """Independent product of two joint distributions."""
        if set(self.variables) & set(other.variables):
            raise ValueError("variable names must be disjoint for a product")
        n1, n2 = len(self._p), len(other._p)
        codes = tuple(_readonly(np.repeat(c, n2)) for c in self._codes) + tuple(
            _readonly(np.tile(c, n1)) for c in other._codes
        )
        return JointDistribution._derived(
            self.variables + other.variables,
            self._values + other._values,
            self._index + other._index,
            codes,
            _readonly(np.outer(self._p, other._p).ravel()),
        )
