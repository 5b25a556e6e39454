"""Decision procedure for compositional irreducibility.

A set S of monic quadratics (x - a)^2 - b over F_q (q odd) generates a
semigroup under composition.  Every member of that semigroup is
irreducible exactly when

  (i)  every b is a non-square, and
  (ii) starting from the distinguished values {-b : f in S}, no walk of
       positive length through the generator maps reaches a square of
       the field (0 counts as a square).

Condition (ii) is decided on a finite graph: nodes are field elements
reachable in at least one step, and each node u carries one out-edge per
generator f to f(u).  When the check fails, a witness word is extracted:
an explicitly reducible composition none of whose shorter outer-prefixes
is reducible.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .field import _TABLE_LIMIT
from .quadratic import GeneratorSet, check_word, evaluate

if TYPE_CHECKING:
    from .field import Field

# Reasons attached to a reducible verdict.
REASON_GENERATOR = "generator_reducible"  # some b is a square: that generator splits
REASON_REACHABLE = "square_reachable"  # a square is reachable at positive length


def distinguished_set(generators: GeneratorSet) -> tuple[int, ...]:
    """The walk's starting values {-b : f in S}, deduplicated and sorted."""
    field = generators.field
    return tuple(sorted({field.neg(f.b) for f in generators.gens}))


class ReachGraph(NamedTuple):
    """The part of the generator-application graph reachable from the
    distinguished set by paths of positive length, as far as explored.

    nodes lists elements in BFS discovery order; a distinguished value
    appears among the nodes only if some walk re-enters it.  It is the
    walk's own store of them: an array of C ints for a whole closure
    with q <= _TABLE_LIMIT, otherwise the walk's list.  parent is a
    read-only mapping, iterated in discovery order, from each node v to
    (u, i): u is the source that first discovered v, so its chain back to
    a seed is a shortest walk, and i is the generator index that took u
    to v, found again by evaluating the maps.  first_square is the edge that
    discovered the earliest square node, or None when every explored
    node is a non-square.
    expanded counts the walk's map evaluations: one per expanded source
    (in sources() order) and generator, fewer on the last source when
    the walk stopped at a square.  The images themselves are not stored;
    iter_edges evaluates the maps again.  square_b is the lowest index of
    a generator whose b is a square, or None: the walk's one squareness
    test of each b, which the verdict and the witness read.
    """

    generators: GeneratorSet
    seeds: tuple[int, ...]
    nodes: Sequence[int]
    parent: Mapping[int, tuple[int, int]]
    first_square: tuple[int, int, int] | None
    expanded: int
    square_b: int | None

    def __repr__(self) -> str:
        # parent is left out: a large closure has millions of entries
        return (
            f"ReachGraph(generators={self.generators!r}, seeds={self.seeds!r}, "
            f"nodes={tuple(self.nodes)!r}, first_square={self.first_square!r})"
        )

    @property
    def field(self) -> Field:
        return self.generators.field

    def square_nodes(self) -> tuple[int, ...]:
        f = self.field
        return tuple(v for v in self.nodes if f.is_square(v))

    def sources(self) -> Iterator[int]:
        """Expansion order, streamed: the order the walk itself expanded."""
        return _sources(self.seeds, self.nodes)

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """(source, generator index, image) per map evaluation of the
        walk, in walk order, evaluated again with the walk's kernel.
        """
        prime, maps = _generator_maps(self.generators)
        left = self.expanded
        for u in self.sources():
            for i, a, b, square_map in maps:
                if not left:
                    return
                left -= 1
                yield u, i, ((u - a) * (u - a) - b) % prime if prime else square_map(u)


class _ParentView(Mapping):
    """node -> (u, i), read from the walk's store: a dict, or an array
    indexed by element that holds -1 where no node is.  u is the stored
    predecessor and i the lowest generator index with f_i(u) = node; the
    walk tries the generators of each source in input order, so that is
    the generator that discovered the node.  Membership, length and
    iteration read only the store and the nodes.
    """

    __slots__ = ("_generators", "_nodes", "_store")

    def __init__(
        self,
        generators: GeneratorSet,
        nodes: Sequence[int],
        store: array | dict[int, int],
    ):
        self._generators = generators
        self._nodes = nodes
        self._store = store

    def __getitem__(self, v: int) -> tuple[int, int]:
        if v not in self:
            raise KeyError(v)
        u = self._store[v]
        field = self._generators.field
        gens = self._generators.gens
        return u, next(i for i, g in enumerate(gens) if evaluate(field, g, u) == v)

    def __contains__(self, v: object) -> bool:
        store = self._store
        if not isinstance(v, int):  # never a node, whatever the store
            return False
        # an array would read a negative index from its end
        return v in store if isinstance(store, dict) else 0 <= v < len(store) and store[v] >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


def _sources(seeds: tuple[int, ...], nodes: Sequence[int]) -> Iterator[int]:
    """The seeds, then the nodes that are not seeds.  An array or list
    iterator also yields items appended while it runs, so the walk reads
    its queue from this while appending to nodes.
    """
    return chain(seeds, filterfalse(set(seeds).__contains__, nodes))


def _generator_maps(generators: GeneratorSet):
    """(prime, maps): maps holds (generator index, a, b, the kernel's
    map u -> (u - a)^2 - b) in input order.  Over a prime field prime is
    p, and the walk and its replay inline the prime kernel's map, where
    a call per evaluation costs measurable time; otherwise it is 0.
    """
    field = generators.field
    maps = [(i, a, b, field._square_map(a, b)) for i, (a, b) in enumerate(generators.gens)]
    return field.p if field._base is None else 0, maps


def reachable_subgraph(
    generators: GeneratorSet, _stop_at_square: bool = False
) -> ReachGraph:
    """Breadth-first closure of the generator maps from the distinguished
    set.  Deterministic: seeds are expanded in sorted order, then nodes
    in discovery order, applying generators in input order; each source
    is expanded exactly once even if it is both a seed and a node.  Each
    b is tested for squareness here, once, before the walk.  The decision
    alone passes _stop_at_square: the walk then does not start when some
    b is a square and otherwise ends at the first square node.

    The walk appends each new node to one sequence, which is the graph's
    nodes, and expands _sources(seeds, nodes) as that sequence grows: it
    is its own work queue.  A whole closure with q <= _TABLE_LIMIT puts
    the predecessors into an array of q C ints, -1 where nothing is
    found yet, and the nodes into an array of C ints.  A larger field
    keeps the predecessors in a dict and the nodes in a list, and so
    does the decision at every q: it mostly stops within a few nodes,
    where the q-int array would cost more than the walk.
    """
    field = generators.field
    seeds = distinguished_set(generators)
    array_store = field.q <= _TABLE_LIMIT and not _stop_at_square
    pred = array("i", [-1]) * field.q if array_store else {}
    # C ints in the array store: a boxed int and its list slot take 40 B
    nodes = array("i") if array_store else []
    first_square: tuple[int, int, int] | None = None
    expanded = 0
    prime, maps = _generator_maps(generators)
    is_square = field.is_square
    square_b = next((i for i, g in enumerate(generators.gens) if is_square(g.b)), None)

    if not (_stop_at_square and square_b is not None):
        for pos, u in enumerate(_sources(seeds, nodes)):
            for i, a, b, square_map in maps:
                v = ((u - a) * (u - a) - b) % prime if prime else square_map(u)
                if array_store:
                    if pred[v] >= 0:
                        continue
                elif v in pred:
                    continue
                pred[v] = u
                nodes.append(v)
                if first_square is None and is_square(v):
                    first_square = (u, i, v)
                    if _stop_at_square:
                        expanded = pos * len(maps) + i + 1
                        break
            if expanded:
                break
        else:  # a set has at least one seed, so pos is bound
            expanded = (pos + 1) * len(maps)
    return ReachGraph(
        generators=generators,
        seeds=seeds,
        nodes=nodes,
        parent=_ParentView(generators, nodes, pred),
        first_square=first_square,
        expanded=expanded,
        square_b=square_b,
    )


def _first_chain_failure(generators: GeneratorSet, word: tuple[int, ...]) -> int | None:
    """Index of the first failing value in the irreducibility chain of a
    word, or None when the word is irreducible.

    For word (i1, ..., im) read outermost-first the chain is b_{i1}
    followed by c_k = f_{i1}(f_{i2}(... f_{ik}(-b_{i(k+1)}) ...)) for
    k = 1..m-1; the word is irreducible exactly when no chain value is a
    square.  Values are tested in order because each squareness transfer
    down the chain is only valid while all earlier values are
    non-squares.
    """
    field = generators.field
    gens = generators.gens
    if field.is_square(gens[word[0]].b):
        return 0
    maps = [field._square_map(a, b) for a, b in gens]
    for k in range(1, len(word)):
        x = field.neg(gens[word[k]].b)
        for idx in reversed(word[:k]):
            x = maps[idx](x)
        if field.is_square(x):
            return k
    return None


def word_irreducible(generators: GeneratorSet, word: Sequence[int]) -> bool:
    """Decide irreducibility of the composition named by word without
    expanding it (chain of squareness tests; degree stays out of play).
    """
    w = check_word(generators, word)
    return _first_chain_failure(generators, w) is None


def witness_word(graph: ReachGraph) -> tuple[int, ...]:
    """A reducible word certifying a failed check, from a shortest walk
    to a square node.

    A generator whose b is square is already reducible on its own: the
    lowest such index, graph.square_b, is returned as a one-letter word.
    Otherwise the walk seed -> ... -> square, read back from the square
    through graph.parent, gives the outer letters: each is the lowest
    index of a generator taking a node of the walk to the next, found by
    evaluating the maps again along that walk only.  The innermost letter
    is the lowest-index generator whose -b equals the seed.  No shorter
    outer-prefix of that word is reducible: its chain values before the
    last are the walk's earlier nodes, which lie on lower BFS levels than
    the first square node and so are non-squares.  The tests check this
    on random and exhaustive sets.  Raises ValueError when nothing is
    reducible.
    """
    if graph.square_b is not None:
        return (graph.square_b,)
    if graph.first_square is None:
        raise ValueError("every composition is irreducible; nothing to witness")
    seed_set = set(graph.seeds)
    u, i, _v = graph.first_square
    parent = graph.parent
    labels = [i]
    while u not in seed_set:
        u, lab = parent[u]
        labels.append(lab)
    neg = graph.field.neg
    inner = next(j for j, g in enumerate(graph.generators.gens) if neg(g.b) == u)
    return tuple(labels) + (inner,)


class Verdict(NamedTuple):
    """Outcome of the semigroup check.

    irreducible is True when every composition of the generators is
    irreducible.  Otherwise reason is one of REASON_GENERATOR /
    REASON_REACHABLE and witness is a reducible word whose strictly
    shorter outer-prefixes are all irreducible.  graph is the graph the
    verdict was read from: the one given to verdict_from_graph, or from
    check_semigroup_irreducible the closure explored up to its first
    square node (all of it when irreducible, only the seeds when some b
    is a square).
    """

    irreducible: bool
    reason: str | None
    witness: tuple[int, ...] | None
    graph: ReachGraph


def verdict_from_graph(graph: ReachGraph) -> Verdict:
    """The verdict a graph decides: a square b, else its first square node."""
    if graph.square_b is not None:
        return Verdict(False, REASON_GENERATOR, witness_word(graph), graph)
    if graph.first_square is not None:
        return Verdict(False, REASON_REACHABLE, witness_word(graph), graph)
    return Verdict(True, None, None, graph)


def check_semigroup_irreducible(generators: GeneratorSet) -> Verdict:
    """Decide whether every composition of the generators is irreducible.

    A square b (reducible generator) decides at once with a one-letter
    witness; otherwise the walk stops at the first square node it
    discovers, which yields the witness.  Verdict and witness equal
    verdict_from_graph(reachable_subgraph(generators)).
    """
    return verdict_from_graph(reachable_subgraph(generators, _stop_at_square=True))


def max_indegree_from_nonsquares(graph: ReachGraph) -> int:
    """Largest number of distinct non-square node sources feeding one
    (target, generator) slot, over edges internal to the node set.

    When every node is a non-square this is the per-generator in-degree
    of the graph restricted to its nodes; the shape of the generators
    (a = 0, -1 a non-square) forces it to be at most 1 in that case.
    """
    field = graph.field
    parent = graph.parent
    seed_set = set(graph.seeds)
    counts: dict[tuple[int, int], int] = {}
    for u, i, v in graph.iter_edges():
        # every image is a node; a source is one unless it is a seed that
        # no walk re-enters
        if (u not in seed_set or u in parent) and not field.is_square(u):
            key = (i, v)
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def export_dot(graph: ReachGraph) -> str:
    """Deterministic DOT rendering: distinguished values double-circled,
    square nodes shaded, edges labeled with generator names.
    """
    return "".join(_dot_lines(graph))


def _dot_lines(graph: ReachGraph) -> Iterator[str]:
    """The lines of export_dot, each with its newline, one at a time."""
    gens = graph.generators
    field = graph.field
    parent = graph.parent
    seed_set = set(graph.seeds)
    yield "digraph reach {\n  rankdir=LR;\n  node [shape=circle];\n"
    for v in graph.sources():
        attrs = []
        seed = v in seed_set
        if seed:
            attrs.append("shape=doublecircle")
        # every source but a seed is a node; a seed is one if re-entered
        if (not seed or v in parent) and field.is_square(v):
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        yield f'  "{v}"{suffix};\n'
    names = [gens.name(i) for i in range(len(gens))]
    for u, i, v in graph.iter_edges():
        yield f'  "{u}" -> "{v}" [label="{names[i]}"];\n'
    yield "}\n"
