"""The synchronous CONGEST engine.

This is the substrate every upper bound in the paper runs on: a synchronous
message-passing network in which, per round, each node may send at most ``B``
bits over each incident edge (CONGEST model, Section 2 of the paper).  With
``bandwidth=None`` the same engine is the LOCAL model.

The engine is deterministic given the algorithm, the graph, the identifier
assignment, and the seed: per-node randomness is spawned from a single master
seed keyed by node identifier, so a run can be replayed bit-for-bit.

Faithfulness notes
------------------
* Message delivery is synchronous and reliable: everything sent in round
  ``r`` is in the receivers' inboxes at round ``r + 1``.
* Bandwidth is enforced, not merely recorded: oversized messages raise
  :class:`~repro.congest.message.BandwidthExceeded`.  Lower-bound harnesses
  rely on this to certify that the algorithms they defeat really were
  low-bandwidth.
* A node may send at most one :class:`~repro.congest.message.Message` per
  edge per round; multi-part data must be pipelined over rounds, exactly as
  in the model.

Termination and round accounting
--------------------------------
The round loop ends when (a) ``max_rounds`` is reached, (b) every node has
halted, (c) ``stop_on_reject`` is set and some node rejected, or (d) a round
carries no traffic **and** the algorithm's optional ``is_quiescent`` hook
affirms every non-halted node is idle.  An algorithm *without* the hook is
never assumed quiescent: schedule-driven algorithms (peeling phases, round
deadlines) have legitimately silent rounds mid-schedule and must run to
completion or halt explicitly.

``ExecutionResult.rounds`` bills every executed round *except* the terminal
all-silent round that merely confirms quiescence (case (d)): nothing was
sent in it and nothing was pending, so it is a probe, not a communication
round.  For message-driven algorithms that fall silent only when done, this
makes ``ExecutionResult.rounds == CommMetrics.rounds`` exactly.

Fast path
---------
Construction maps the graph's adjacency through the identifier assignment
straight into the CSR :class:`~repro.congest.vectorized.EdgeIndex` --
a few array passes, no relabelled networkx copy and no per-node
dictionaries.  When the vertices are the plain ints ``0..n-1`` and no
assignment is given, labels are positions and the adjacency is read
into arrays with no lookup at all.  The per-vertex dictionaries
(``assignment`` when it is that identity, ``vertex_of``) and the object
lane's structures (the relabelled ``graph``, the adjacency sets used for
send validation and the sorted neighbor tuples used for context
construction) are materialised from the index on first use and then
cached, so repeated runs on the same network never query networkx again
and purely vectorized runs never build them at all.
``run(..., metrics="lite")`` keeps the aggregate bit counters but skips
the per-edge metric dictionaries (see :mod:`repro.congest.metrics` for the
exact contract); lower-bound harnesses must keep the default
``metrics="full"``.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from .algorithm import Algorithm, Decision, NodeContext
from .identifiers import canonical_assignment
from .message import BandwidthExceeded, Message
from .metrics import METRIC_MODES, CommMetrics
from .vectorized import EdgeIndex

__all__ = ["CongestNetwork", "ExecutionResult", "run_congest"]

#: Shared read-only inbox for rounds in which a node received nothing.
_EMPTY_INBOX: Mapping[int, Message] = MappingProxyType({})

#: Per-vertex :class:`CongestNetwork` attributes derived from the CSR
#: index on first use (see :meth:`CongestNetwork.__getattr__`).
_LAZY = frozenset(
    ("_node_ids", "assignment", "vertex_of", "_neighbor_tuples", "_adj", "graph")
)


class ExecutionResult:
    """Outcome of one simulator run.

    ``decision`` follows Definition 1: REJECT iff some node rejected,
    otherwise ACCEPT.  ``rounds`` counts billable communication rounds (all
    executed rounds except a terminal silent quiescence probe -- see the
    module docstring).  ``metrics`` holds the exact bit accounting.

    ``node_decisions`` and ``contexts`` are keyed by identifier in
    ascending order.  The object lane passes them in; the vectorized lane
    passes ``columns`` instead (its per-node outputs kept as arrays, see
    :class:`~repro.congest.vectorized.VecColumns`) and both dictionaries
    are synthesised from them on first access.  :meth:`rejecting_nodes`
    and :meth:`context_of` never force the full dictionaries.
    """

    def __init__(
        self,
        decision: Decision,
        rounds: int,
        metrics: CommMetrics,
        node_decisions: Optional[Dict[int, Decision]] = None,
        contexts: Optional[Dict[int, NodeContext]] = None,
        columns: Any = None,
    ) -> None:
        if columns is None and (node_decisions is None or contexts is None):
            raise ValueError("need node_decisions and contexts, or columns")
        self.decision = decision
        self.rounds = rounds
        self.metrics = metrics
        self._node_decisions = node_decisions
        self._contexts = contexts
        self._columns = columns

    def __repr__(self) -> str:
        return f"ExecutionResult(decision={self.decision}, rounds={self.rounds})"

    @property
    def node_decisions(self) -> Dict[int, Decision]:
        if self._node_decisions is None:
            self._node_decisions = self._columns.node_decisions()
        return self._node_decisions

    @property
    def contexts(self) -> Dict[int, NodeContext]:
        if self._contexts is None:
            self._contexts = self._columns.contexts()
        return self._contexts

    @property
    def rejected(self) -> bool:
        return self.decision is Decision.REJECT

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPT

    def rejecting_nodes(self) -> Tuple[int, ...]:
        if self._columns is not None:
            return self._columns.rejecting_nodes()
        return tuple(
            sorted(u for u, d in self.node_decisions.items() if d is Decision.REJECT)
        )

    def context_of(self, u: int) -> NodeContext:
        """Node ``u``'s final context, without building every other one."""
        if self._contexts is None:
            return self._columns.context(u)
        return self._contexts[u]


class CongestNetwork:
    """A network instance: graph + identifier assignment + model parameters.

    Parameters
    ----------
    graph:
        The network graph, undirected (a directed graph raises
        ``ValueError``).  Vertices may be arbitrary hashables; they are
        relabelled by ``assignment``.
    assignment:
        Mapping from graph vertex to identifier.  Defaults to the canonical
        ``0..n-1`` labelling in sorted-vertex order when vertices are
        sortable, else insertion order.
    bandwidth:
        Per-edge per-round bit budget ``B``; ``None`` means unbounded
        (LOCAL).
    namespace_size:
        Size of the identifier namespace nodes assume.  Defaults to ``n``.
    knows_n:
        Whether nodes are told ``n`` (most CONGEST algorithms assume this).
    inputs:
        Optional per-vertex private inputs, keyed by *original* vertex.
    """

    #: Vertex -> identifier and identifier -> vertex.  Both are derived on
    #: first use when the assignment is the identity (see ``__getattr__``).
    assignment: Dict[Hashable, int]
    vertex_of: Dict[int, Hashable]

    def __init__(
        self,
        graph: nx.Graph,
        bandwidth: Optional[int],
        assignment: Optional[Mapping[Hashable, int]] = None,
        namespace_size: Optional[int] = None,
        knows_n: bool = True,
        inputs: Optional[Mapping[Hashable, Any]] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty network")
        if graph.is_directed():
            raise ValueError("CONGEST networks are undirected")
        self.original_graph = graph
        lookup: Optional[Dict[Hashable, int]] = None
        if assignment is None:
            try:
                ordered = sorted(graph.nodes())
            except TypeError:
                ordered = list(graph.nodes())
            # The canonical assignment is injective and covering by
            # construction.  When the vertices are exactly the ints
            # ``0..n-1`` it is the identity: labels are positions, and
            # ``assignment`` is derived on first use like ``vertex_of``.
            if not _labels_are_positions(ordered):
                self.assignment = lookup = canonical_assignment(ordered)
        else:
            ids = list(assignment.values())
            if len(set(ids)) != len(ids):
                raise ValueError("identifier assignment must be injective")
            if set(assignment.keys()) != set(graph.nodes()):
                raise ValueError("assignment must cover exactly the graph's vertices")
            self.assignment = lookup = dict(assignment)
        self._adopt(
            _edge_index_of(graph, lookup), bandwidth, namespace_size, knows_n
        )
        self.inputs = {
            self.assignment[v]: inp for v, inp in (inputs or {}).items()
        }

    @classmethod
    def from_csr(
        cls,
        edge_index: EdgeIndex,
        bandwidth: Optional[int],
        *,
        namespace_size: Optional[int] = None,
        knows_n: bool = True,
    ) -> "CongestNetwork":
        """Build a network directly over a prebuilt CSR edge index.

        The shared-memory attach path (:mod:`repro.congest.shm`) uses this
        so amplification workers wrap the parent's exported arrays without
        re-deriving anything from a networkx graph.  Identifiers are the
        index's ``ids`` with the identity assignment, derived on first
        use; private ``inputs`` are not supported (they never ride
        shared memory).
        """
        if edge_index.n == 0:
            raise ValueError("cannot simulate an empty network")
        self = object.__new__(cls)
        self.original_graph = None
        self.inputs = {}
        self._adopt(edge_index, bandwidth, namespace_size, knows_n)
        return self

    def _adopt(
        self,
        grid: EdgeIndex,
        bandwidth: Optional[int],
        namespace_size: Optional[int],
        knows_n: bool,
    ) -> None:
        """Install ``grid`` as the network's topology (both constructors).

        The per-vertex structures (``assignment`` when it is the
        identity, ``vertex_of``, ``_node_ids``, and the object lane's
        ``graph``, ``_adj`` and ``_neighbor_tuples``) are left unset:
        :meth:`__getattr__` derives them from the index on first use.
        """
        self.bandwidth = bandwidth
        self.n = grid.n
        self.namespace_size = (
            namespace_size
            if namespace_size is not None
            else max(int(grid.ids[-1]) + 1, grid.n)
        )
        self.knows_n = knows_n
        self._grid = grid

    def __getattr__(self, name: str) -> Any:
        # Lazy per-vertex structures, derived from the CSR index on first
        # use and cached as plain attributes (so this fires once per name).
        if name in _LAZY:
            grid = self.__dict__.get("_grid")
            if grid is None:
                raise AttributeError(name)
            if name == "_node_ids":
                value: Any = tuple(grid.ids.tolist())
            elif name == "assignment":
                # Only ever unset when it is the identity on the ids.
                value = dict(zip(self._node_ids, self._node_ids))
            elif name == "vertex_of":
                value = {i: v for v, i in self.assignment.items()}
            elif name == "_neighbor_tuples":
                out_ptr = grid.out_ptr.tolist()
                dst_ids = grid.ids[grid.dst].tolist()
                value = {
                    u: tuple(dst_ids[out_ptr[p] : out_ptr[p + 1]])
                    for p, u in enumerate(self._node_ids)
                }
            elif name == "_adj":
                value = {
                    u: frozenset(t) for u, t in self._neighbor_tuples.items()
                }
            else:
                value = nx.Graph()
                value.add_nodes_from(self._node_ids)
                src_ids = grid.ids[grid.src]
                dst_ids = grid.ids[grid.dst]
                # Each undirected edge once; a self-loop is a single
                # directed edge with src == dst.
                fwd = src_ids <= dst_ids
                value.add_edges_from(
                    zip(src_ids[fwd].tolist(), dst_ids[fwd].tolist())
                )
            setattr(self, name, value)
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def edge_index(self) -> EdgeIndex:
        """The network's read-only CSR edge index (vectorized lane)."""
        return self._grid

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: Algorithm,
        max_rounds: int,
        seed: Optional[int] = 0,
        stop_on_reject: bool = False,
        metrics: str = "full",
        sanitize: bool = False,
        faults: Any = None,
        profile: Any = None,
    ) -> ExecutionResult:
        """Execute ``algorithm`` for up to ``max_rounds`` rounds.

        The run ends early when every node has halted, when (if
        ``stop_on_reject``) some node rejects at a round boundary, or when a
        silent round is confirmed quiescent by the algorithm's
        ``is_quiescent`` hook (never assumed when the hook is absent).
        ``seed=None`` gives nodes no randomness (deterministic algorithms).
        ``metrics`` selects the accounting mode: ``"full"`` (exact per-edge
        ledger, required by lower-bound harnesses) or ``"lite"`` (aggregate
        counters only, the fast path for upper-bound sweeps).

        ``sanitize=True`` arms the runtime model-soundness sanitizer (see
        :mod:`repro.congest.sanitizer`): the algorithm instance and node
        states are audited for cross-node aliasing after ``init``, after
        every round, and after ``finish``, and the whole run is replayed
        with the same seed to detect hidden nondeterminism.  Violations
        raise :class:`~repro.congest.sanitizer.SanitizerViolation` tagged
        with the catalog rule (``L2`` aliasing, ``L3`` nondeterminism).
        Sanitized runs execute the algorithm twice and must therefore only
        be used with replayable algorithms (which the model demands
        anyway).

        ``faults`` injects deterministic network faults: a
        :class:`~repro.faults.plan.FaultPlan`, a spec string (see
        :mod:`repro.faults.plan`), or ``None`` for a reliable network.
        The schedule is a pure function of the plan, ``seed``, and each
        ``(round, sender, receiver)`` triple, so both lanes -- and the
        sanitizer's replay pass -- see identical faults.

        A :class:`~repro.congest.vectorized.VectorizedAlgorithm` is
        dispatched to the vectorized lane (batched array kernels over the
        precomputed edge index) with identical semantics -- decisions,
        round accounting, metrics ledger, ``sanitize`` and ``faults``
        support all match the object lane bit-for-bit.  ``profile`` (a
        :class:`~repro.congest.kernels.KernelProfile`) opts into
        per-phase wall-clock counters; the object lane ignores it.
        """
        from .vectorized import VectorizedAlgorithm, execute_vectorized

        injector = _build_injector(faults, seed)
        if isinstance(algorithm, VectorizedAlgorithm):
            if not sanitize:
                return execute_vectorized(
                    self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                    injector=injector, profile=profile,
                )
            from .sanitizer import AliasGuard, VecTrafficDigest, verify_replay

            vguard = AliasGuard(algorithm)
            vfirst = VecTrafficDigest(guard=vguard)
            result = execute_vectorized(
                self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=vfirst, injector=injector, profile=profile,
            )
            vreplay = VecTrafficDigest()
            execute_vectorized(
                self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=vreplay, injector=injector,
            )
            verify_replay(vfirst, vreplay)
            return result
        if not sanitize:
            return self._execute(
                algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=None, injector=injector,
            )
        from .sanitizer import AliasGuard, TrafficDigest, verify_replay

        guard = AliasGuard(algorithm)
        first = TrafficDigest(guard=guard)
        result = self._execute(
            algorithm, max_rounds, seed, stop_on_reject, metrics,
            observer=first, injector=injector,
        )
        replay = TrafficDigest()
        self._execute(
            algorithm, max_rounds, seed, stop_on_reject, metrics,
            observer=replay, injector=injector,
        )
        verify_replay(first, replay)
        return result

    def _execute(
        self,
        algorithm: Algorithm,
        max_rounds: int,
        seed: Optional[int],
        stop_on_reject: bool,
        metrics: str,
        observer: Optional[Any],
        injector: Optional[Any] = None,
    ) -> ExecutionResult:
        """One pass of the round loop; ``observer`` (when set) receives
        ``after_init`` / ``on_message`` / ``after_round`` / ``after_finish``
        callbacks -- the sanitizer's attachment points.  ``observer=None``
        keeps the hot loop free of per-message indirection.

        ``injector`` (a :class:`~repro.faults.inject.FaultInjector`, when
        set) applies the fault plan: crash-stopped nodes are force-halted
        at their scheduled round with their decision frozen at its
        pre-crash value, and every send is billed normally but may be
        dropped, stalled, throttled, or corrupted at delivery."""
        if metrics not in METRIC_MODES:
            raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
        comm = CommMetrics(mode=metrics)
        master = np.random.default_rng(seed) if seed is not None else None

        contexts: Dict[int, NodeContext] = {}
        for u in self._node_ids:
            rng = (
                np.random.default_rng(master.integers(0, 2**63))
                if master is not None
                else None
            )
            contexts[u] = NodeContext(
                id=u,
                neighbors=self._neighbor_tuples[u],
                n=self.n if self.knows_n else None,
                namespace_size=self.namespace_size,
                bandwidth=self.bandwidth,
                input=self.inputs.get(u),
                rng=rng,
            )
        for ctx in contexts.values():
            algorithm.init(ctx)
        if observer is not None:
            observer.after_init(contexts)

        # Hoisted hot-loop state.
        on_message = observer.on_message if observer is not None else None
        probe = getattr(algorithm, "is_quiescent", None)
        lite = metrics == "lite"
        adj = self._adj
        bandwidth = self.bandwidth
        ctx_items = tuple(contexts.items())
        ctx_values = tuple(contexts.values())
        record = comm.record
        round_fn = algorithm.round

        # Fault state: pending crash schedule (nodes present in this
        # graph only) and the frozen decisions of activated crashes.
        apply_delivery = injector is not None and injector.affects_delivery
        crash_pending: Dict[int, int] = {}
        if injector is not None:
            crash_pending = {
                u: cr
                for u, cr in injector.crash_round_of.items()
                if u in contexts
            }
        crashed_frozen: Dict[int, Decision] = {}

        inboxes: Dict[int, Dict[int, Message]] = {}
        rounds_run = 0
        for r in range(max_rounds):
            if crash_pending:
                # Crash-stop activation: from its scheduled round on, a
                # crashed node is a forced halt -- it executes nothing and
                # sends nothing -- and its decision freezes at the value it
                # had when the crash round began.
                for u, cr in tuple(crash_pending.items()):
                    if r >= cr:
                        ctx = contexts[u]
                        crashed_frozen[u] = ctx.decision
                        ctx._halted = True
                        del crash_pending[u]
            if all(ctx._halted for ctx in ctx_values):
                break
            if stop_on_reject and any(
                ctx.decision is Decision.REJECT for ctx in ctx_values
            ):
                break
            next_inboxes: Dict[int, Dict[int, Message]] = {}
            any_traffic = False
            round_total = 0
            round_msgs = 0
            round_max = 0
            for u, ctx in ctx_items:
                if ctx._halted:
                    continue
                ctx.round = r
                outbox = round_fn(ctx, inboxes.get(u, _EMPTY_INBOX))
                if not outbox:
                    continue
                u_adj = adj[u]
                for v, msg in outbox.items():
                    if not isinstance(msg, Message):
                        raise TypeError(
                            f"node {u} tried to send a non-Message: {msg!r}"
                        )
                    if v not in u_adj:
                        raise ValueError(
                            f"node {u} tried to send to non-neighbor {v}"
                        )
                    size = msg.size_bits
                    if bandwidth is not None and size > bandwidth:
                        raise BandwidthExceeded(
                            f"node {u} -> {v}: message of {size} bits "
                            f"exceeds B={bandwidth}"
                        )
                    if lite:
                        round_total += size
                        round_msgs += 1
                        if size > round_max:
                            round_max = size
                    else:
                        record(r, u, v, size)
                    if on_message is not None:
                        on_message(r, u, v, msg)
                    any_traffic = True
                    if apply_delivery:
                        # The send is billed (and observed) above; faults
                        # act on the wire, between send and inbox.
                        delivered, corrupted = injector.delivery(r, u, v, size)
                        if not delivered:
                            continue
                        if corrupted:
                            msg = injector.corrupted_message(msg)
                    box = next_inboxes.get(v)
                    if box is None:
                        box = next_inboxes[v] = {}
                    box[u] = msg
            if lite and round_msgs:
                comm.add_round(r, round_total, round_msgs, round_max)
            inboxes = next_inboxes
            rounds_run = r + 1
            if observer is not None:
                observer.after_round(r, contexts)
            if not any_traffic and (
                probe is not None
                and all(ctx._halted or probe(ctx) for ctx in ctx_values)
            ):
                # Nothing was sent, nothing is pending, and the algorithm
                # affirms every node is idle: the network is quiescent.  The
                # just-executed silent round was only a probe, so it is not
                # billable -- roll it back so ExecutionResult.rounds agrees
                # with CommMetrics.rounds for message-driven algorithms.
                rounds_run = r
                break

        for ctx in contexts.values():
            algorithm.finish(ctx)
        if crashed_frozen:
            # A crashed node never reaches finish: restore its frozen
            # decision over whatever finish computed from its dead state.
            for u, frozen in crashed_frozen.items():
                contexts[u].decision = frozen
                contexts[u]._halted = True
        if observer is not None:
            observer.after_finish(contexts)

        decisions = {u: ctx.decision for u, ctx in contexts.items()}
        if any(d is Decision.REJECT for d in decisions.values()):
            global_decision = Decision.REJECT
        else:
            global_decision = Decision.ACCEPT
        return ExecutionResult(
            decision=global_decision,
            rounds=rounds_run,
            metrics=comm,
            node_decisions=decisions,
            contexts=contexts,
        )

    # ------------------------------------------------------------------
    def _validate_send(self, u: int, v: int, msg: Message) -> None:
        """Reference send validation (the round loop inlines these checks)."""
        if not isinstance(msg, Message):
            raise TypeError(f"node {u} tried to send a non-Message: {msg!r}")
        if v not in self._adj[u]:
            raise ValueError(f"node {u} tried to send to non-neighbor {v}")
        if self.bandwidth is not None and msg.size_bits > self.bandwidth:
            raise BandwidthExceeded(
                f"node {u} -> {v}: message of {msg.size_bits} bits exceeds B={self.bandwidth}"
            )

    @staticmethod
    def _all_quiescent(algorithm: Algorithm, contexts: Dict[int, NodeContext]) -> bool:
        """True if the algorithm *affirms* every node idle via its optional
        ``is_quiescent`` hook.  A missing hook means "do not assume
        quiescent": schedule-driven algorithms have legitimately silent
        rounds, so silence alone never ends a run."""
        probe = getattr(algorithm, "is_quiescent", None)
        if probe is None:
            return False
        return all(ctx._halted or probe(ctx) for ctx in contexts.values())


def _labels_are_positions(ordered: list) -> bool:
    """True iff the sorted vertices ``ordered`` are exactly the plain ints
    ``0..n-1``, so the canonical assignment is the identity.

    ``n`` distinct sorted ints from ``0`` to ``n-1`` are all of them.
    ``bool`` and ``np.int64`` labels fail the type test (they take the
    lookup path, as do negative, gapped or non-int labels).
    """
    return (
        ordered[0] == 0
        and ordered[-1] == len(ordered) - 1
        and set(map(type, ordered)) == {int}
    )


def _edge_index_of(
    graph: nx.Graph, assignment: Optional[Mapping[Hashable, int]]
) -> EdgeIndex:
    """The CSR index of ``graph`` under ``assignment``, straight from its
    adjacency.

    Iterating every vertex's neighbors yields each edge in both directions
    and a self-loop once, i.e. exactly the directed edges.  With
    ``assignment=None`` the vertices are the ints ``0..n-1`` and labels
    are positions, so the endpoints are read straight into arrays;
    otherwise they are mapped to identifiers in that one pass, then to
    positions by ``searchsorted`` into the sorted identifiers.  Out order
    sorts the single key ``src * n + dst`` (unique: a simple graph has
    one directed edge per ordered pair).  The edge set is symmetric, so
    in order is out order with the endpoints swapped: the receivers in
    in order are ``src`` and the senders ``dst``.
    """
    adjacency = dict(graph.adjacency())
    n = len(adjacency)
    deg = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=n)
    neighbors = chain.from_iterable(adjacency.values())
    e = int(deg.sum())
    if assignment is None:
        ids = np.arange(n, dtype=np.int64)
        owner = np.fromiter(adjacency, dtype=np.int64, count=n)
        dst = np.fromiter(neighbors, dtype=np.int64, count=e)
    else:
        ident = assignment.__getitem__
        owner = np.fromiter(map(ident, adjacency), dtype=np.int64, count=n)
        nbr = np.fromiter(map(ident, neighbors), dtype=np.int64, count=e)
        ids = np.sort(owner)
        owner = np.searchsorted(ids, owner)
        dst = np.searchsorted(ids, nbr)
    src = np.repeat(owner, deg)
    src, dst = np.divmod(np.sort(src * n + dst), n)
    return EdgeIndex.from_arrays(ids, src, dst, in_recv=src, in_send=dst)


def _build_injector(faults: Any, seed: Optional[int]) -> Optional[Any]:
    """Resolve a ``faults`` argument (plan / spec string / injector /
    ``None``) into a :class:`~repro.faults.inject.FaultInjector`, or
    ``None`` when the plan injects nothing."""
    if faults is None:
        return None
    from ..faults.inject import FaultInjector
    from ..faults.plan import FaultPlan

    if isinstance(faults, FaultInjector):
        return faults
    plan = FaultPlan.from_spec(faults) if isinstance(faults, str) else faults
    if plan.is_null:
        return None
    return FaultInjector(plan, seed)


def run_congest(
    graph: nx.Graph,
    algorithm: Algorithm,
    bandwidth: Optional[int],
    max_rounds: int,
    seed: Optional[int] = 0,
    **kwargs: Any,
) -> ExecutionResult:
    """One-shot convenience wrapper: build a network and run an algorithm."""
    stop_on_reject = kwargs.pop("stop_on_reject", False)
    metrics = kwargs.pop("metrics", "full")
    sanitize = kwargs.pop("sanitize", False)
    faults = kwargs.pop("faults", None)
    net = CongestNetwork(graph, bandwidth=bandwidth, **kwargs)
    return net.run(
        algorithm,
        max_rounds=max_rounds,
        seed=seed,
        stop_on_reject=stop_on_reject,
        metrics=metrics,
        sanitize=sanitize,
        faults=faults,
    )
