"""Diagrammatic reduction: rewrite webs to combinations of irreducible ones.

Two local rules, applied with a fixed priority (closed loops first,
then two-sided faces, then four-sided ones, smallest face first):

- a closed loop is erased and contributes the factor t^-4 + 1 + t^4;
- a two- or four-sided internal face is replaced by the sum over the
  ways of pairing its corners along the face: each corner's outside
  edge fuses with its partner's, and the face and its vertices vanish.
  A four-sided face has two pairings, each with coefficient 1.  A
  two-sided face is the one-pairing case: it collapses, its two
  outside edges fuse, and it contributes the factor t^-2 + t^2.

The rewriting is confluent, so any application order yields the same
combination; the fixed order just makes runs reproducible, and
all_orders_agree checks every order of one web.  Every
rewrite step records which parent edges survive, fuse, or close up, so
that module labelings can be carried along the reduction afterwards.

WebCombo, the package's one sparse combination type, holds the
combinations: webs with Laurent coefficients, multiplied by
web_product.  Their coefficients are multiplied and summed plainly,
skipping factors equal to 1;
the one memo of coefficient arithmetic is the Hecke step
(_hecke_step), since a Hecke image's coefficients are few values met
many times, and the cached images hold the one object each step
returns.

A product is drawn, by concatenating the two drawings, and then
reduced, except where the fork rule (fork_absorbs) gives it without a
drawing: a web whose sinks i and i+1 leave one internal vertex, times
the generator web E_i, closes a bigon that collapses back onto the web,
so the product is [2] times the web (Kuperberg, "Spiders for rank 2 Lie
algebras", 1996).  This is the web form of C'_w C'_s = [2] C'_w when
ws < w: 465 of the 1,490 distinct products behind the Hecke images of
S_6, each of which would otherwise draw and rewrite one bigon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Union

from .exactmath import LaurentPoly, _coerce, qint, quoted
from .webcore import (
    Column,
    PlanarMap,
    SliceDiagram,
    Web,
    WebError,
    concatenate,
    generator_web,
    identity_web,
    int_entries,
)

Feature = tuple
_BIGON = qint(2)


@dataclass(frozen=True)
class Outcome:
    """One branch of a rewrite step, with what transport reads of it.

    carry lists, for each child edge in id order, the parent edge whose
    label it takes: the surviving edges, then the first edge of each
    open run.  runs holds every fused run of the step, open runs first:
    its parent edge ids along the run from its tail end, outside edges
    at even positions, traversed with their orientation, and between
    them the face edges, traversed against it.  An open run becomes one
    child edge; a closed one, absent from carry, a loop worth [3]."""

    coeff: LaurentPoly
    child: Web
    carry: tuple[int, ...]
    runs: tuple[tuple[int, ...], ...] = ()


def apply_rule(w: Web, feature: Feature) -> tuple[Outcome, ...]:
    """Rewrite one feature of w.  A loop feature erases every closed
    loop of the web at once (one rule application per loop, fused
    into a single outcome)."""
    if feature[0] == "loop":
        return (_strip_loops(w),)
    if feature[0] in ("bigon", "square"):
        return _resolve_face(w, feature[1])
    raise WebError(f"unknown feature {feature[0]!r}")


@cache
def rewrite_sites(w: Web) -> tuple[Web, tuple[Feature, ...]]:
    """The first web seen with w's code, the host, and its rewrite
    sites in rule priority: the loop site when it has loops, then its
    bigons, then its squares, each kind in faces() order (by least
    dart).  Site 0 is the one reduce_web steps; no sites means the web
    is irreducible.  Sites name the host's darts, so every rewrite of
    the code is made on it."""
    m = w.pmap
    outer = m.outer_face_indices()
    inner = [orbit for fi, orbit in enumerate(m.faces()) if fi not in outer]
    sites = [("loop",)] if m.loops else []
    sites += [("bigon", orbit) for orbit in inner if len(orbit) == 2]
    sites += [("square", orbit) for orbit in inner if len(orbit) == 4]
    return w, tuple(sites)


@cache
def rewrite_at(w: Web, k: int) -> tuple[Outcome, ...]:
    """The outcomes of rewriting site k of w's host, in the host's edge
    numbering.  Keyed by the code, so every reduction order and
    reduce_web rewrite each (code, site) pair once."""
    host, sites = rewrite_sites(w)
    return apply_rule(host, sites[k])


def rewrite_step(w: Web) -> tuple[Web, tuple[Outcome, ...]]:
    """The host of w's code and the outcomes of rewriting its next
    feature; no outcomes when w is irreducible.  Reduction and label
    transport share these steps, so each web code is rewritten once."""
    host, sites = rewrite_sites(w)
    return host, rewrite_at(host, 0) if sites else ()


@cache
def reduce_web(w: Web) -> "WebCombo":
    """Rewrite w to irreducibles through one worklist, largest web first.
    Every step lowers (internal vertices, loops): a bigon erases two
    vertices, a square four, a loop step every loop.  So all parents of
    a web are stepped before it, each web is stepped once with its
    coefficients summed, and nothing recurses.  Only w's reduction is
    kept here; the steps themselves are kept by rewrite_at."""
    pending = {w: LaurentPoly.one()}
    done = []
    while pending:
        x = max(pending, key=lambda y: (y.pmap.internal_vertex_count, y.pmap.loops))
        c = pending.pop(x)
        host, outcomes = rewrite_step(x)
        if not outcomes:
            done.append((host, c))
        for o in outcomes:
            v = c * o.coeff
            pending[o.child] = pending[o.child] + v if o.child in pending else v
    return WebCombo(w.n, done)


def all_orders_agree(w: Web) -> bool:
    """Whether every rewrite order of w gives reduce_web(w).  Each web
    reachable from w through any site is visited once, and at each of
    its sites past site 0 the outcomes, reduced, must sum to the web's
    own reduction; site 0 is how reduce_web steps.  Every step lowers
    (internal vertices, loops), so by induction on that order every
    rewrite order of each visited web, w's included, gives its
    reduce_web."""
    seen = {w}
    work = [w]
    while work:
        host, sites = rewrite_sites(work.pop())
        for k in range(len(sites)):
            outcomes = rewrite_at(host, k)
            for o in outcomes:
                if o.child not in seen:
                    seen.add(o.child)
                    work.append(o.child)
            if k and reduce_combo(WebCombo(w.n, [(o.child, o.coeff) for o in outcomes])) != reduce_web(host):
                return False
    return True


@cache
def web_product(a: Web, b: Web) -> tuple[tuple[Web, LaurentPoly], ...]:
    """a times b, rewritten to irreducibles.  When a ends in a fork that
    b closes into a bigon (fork_absorbs), the bigon collapses back onto
    a, so the product is [2] reduce_web(a), read off a's map with
    nothing drawn: the web form of C'_w C'_s = [2] C'_w when ws < w.
    Every other pair concatenates the drawings of a and b and reduces
    that.  Keyed by the two codes, with the webs of the first pair met:
    sound because reduction does not depend on the drawing."""
    if fork_absorbs(a, b):
        return tuple((w, v * _BIGON) for w, v in reduce_web(a)._terms.items())
    return tuple(reduce_web(Web.from_slice(concatenate(a.diagram, b.diagram)))._terms.items())


def _sink_tail(m: PlanarMap, j: int) -> int:
    """The vertex that the edge into sink j (1-based) leaves."""
    return m.dart_vertex[m.rot[m.n + j - 1][0] ^ 1]


def fork_absorbs(a: Web, b: Web) -> bool:
    """Whether b is the generator web E_i on a's strand count and a's
    sinks i and i+1 leave one internal vertex.  That vertex and E_i's
    internal sink then bound a bigon of a b, whose collapse leaves E_i's
    internal source in the vertex's place: a again, loops and all.  E_i's
    sinks i and i+1 are the first two that leave an internal vertex, and
    b is E_i when its code is."""
    m, n = b.pmap, a.n
    if m.n != n or m.internal_vertex_count != 2 or m.loops:
        return False
    i = next((j for j in range(1, n) if _sink_tail(m, j) >= 2 * n), 0)
    return bool(i) and _sink_tail(a.pmap, i) == _sink_tail(a.pmap, i + 1) and b in generator_combo(n, i)._terms


def reduce_combo(c: "WebCombo") -> "WebCombo":
    return WebCombo(c.n, (
        (w, coeff * v) for web_, coeff in c.terms() for w, v in reduce_web(web_).terms()
    ))


# ---------------------------------------------------------------------------
# The surgeries: loops and faces


def _rebuild(
    m: PlanarMap,
    dead_vertices: set,
    dead_edges: set,
    replaced_slots: dict,
) -> tuple[PlanarMap, tuple[int, ...]]:
    """Remove vertices and edges, add one fused edge per open run,
    renumber densely.  Every surviving dart keeps its end, tail or head.

    replaced_slots maps (vertex, old eid) to the first edge of the open
    run whose fused edge takes over that slot.  Returns the map and its
    carry: the surviving edges in order, then the first edge of each
    open run, the child edge ids being the positions."""
    carry = [e for e in range(len(m.edges)) if e not in dead_edges]
    carry += dict.fromkeys(replaced_slots.values())
    child_eid = {e: k for k, e in enumerate(carry)}
    rot = []
    for v, darts in enumerate(m.rot):
        if v in dead_vertices:
            continue
        kept = []
        for d in darts:
            e = d >> 1
            if (v, e) in replaced_slots:
                e = replaced_slots[(v, e)]
            elif e in dead_edges:
                raise RuntimeError("surviving vertex references an erased edge")
            kept.append(2 * child_eid[e] + (d & 1))
        rot.append(kept)
    return PlanarMap(m.n, rot, loops=m.loops), tuple(carry)


def _strip_loops(w: Web) -> Outcome:
    m = w.pmap
    return Outcome(
        coeff=qint(3) ** m.loops,
        child=Web.from_map(m.without_loops()),
        carry=tuple(range(len(m.edges))),
    )


def _third_edge(m: PlanarMap, v: int, exclude: set) -> int:
    es = [d >> 1 for d in m.rot[v] if (d >> 1) not in exclude]
    if len(es) != 1:
        raise RuntimeError("vertex does not have a unique outside edge")
    return es[0]


def _resolve_face(w: Web, orbit: tuple[int, ...]) -> tuple[Outcome, ...]:
    """One outcome per pairing of the face's corners: a two-sided face
    has one pairing, worth [2], a four-sided face two, worth 1 each.
    Each paired corner fuses its outside edge with its partner's through
    the face edge between them; a run that closes up is a loop, worth [3]."""
    m = w.pmap
    size = len(orbit)
    fe = [d >> 1 for d in orbit]
    corners = [m.dart_vertex[d ^ 1] for d in orbit]
    # corners[k] sits between face edges fe[k] and fe[(k+1) % size]
    externals = [
        _third_edge(m, corners[k], {fe[k], fe[(k + 1) % size]}) for k in range(size)
    ]
    coeff = _BIGON if size == 2 else LaurentPoly.one()
    outcomes = []
    for branch in range(size // 2):
        # branch b fuses corner pairs (k, k+1) for k = b, b+2, ...;
        # pair (k, k+1) passes through face edge fe[k+1]
        pair_of = {}
        for k in range(branch, size, 2):
            a, b = corners[k], corners[(k + 1) % size]
            via = fe[(k + 1) % size]
            pair_of[a] = (b, via)
            pair_of[b] = (a, via)
        runs, replaced = _route_chains(m, corners, externals, pair_of)
        raw, carry = _rebuild(m, set(corners), set(fe).union(*runs), replaced)
        outcomes.append(Outcome(
            coeff=coeff * qint(3) ** (len(runs) - len(replaced) // 2),  # two slots per open run
            child=Web.from_map(raw),
            carry=carry,
            runs=tuple(runs),
        ))
    return tuple(outcomes)


def _route_chains(m, corners, externals, pair_of):
    """Walk every fused run once: open runs first, each from the outside
    edge whose tail survives, then closed runs, each from an outside
    edge's head.  A step passes the corner's partner and leaves along
    its outside edge, until a surviving vertex ends the run or the first
    edge comes round again, closing it.  An open run becomes one new
    edge, from the tail of its first edge to the head of its last.
    Returns the runs as tuples of edge ids, and the rotation slots the
    new edges take over, each mapped to its run's first edge."""
    ext_of = dict(zip(corners, externals))
    done = set()
    runs = []
    replaced = {}
    for x in [x for x in externals if m.edges[x][0] not in ext_of] + externals:
        if x in done:
            continue
        edges_run = [x]
        c = m.edges[x][1]
        while True:
            partner, via = pair_of[c]
            edges_run.append(via)
            x2 = ext_of[partner]
            if x2 == x:
                break
            edges_run.append(x2)
            t, h = m.edges[x2]
            c = t if h == partner else h
            if c not in ext_of:
                replaced[(m.edges[x][0], x)] = replaced[(c, x2)] = x
                break
        done.update(edges_run[::2])
        runs.append(tuple(edges_run))
    return runs, replaced


# ---------------------------------------------------------------------------
# Linear combinations


class WebCombo:
    """A finite combination of webs on n strands: a dict from web to
    nonzero LaurentPoly coefficient, listed in code order.

    The constructor takes a dict or (web, coefficient) pairs; repeated
    webs are summed and zero sums dropped.  Combinations are never
    changed in place.  Two webs multiply by web_product."""

    __slots__ = ("n", "_terms")
    ZERO = LaurentPoly.zero()

    def __init__(self, n: int, terms: Union[dict, Iterable[tuple]] = ()):
        if isinstance(terms, dict):  # its keys are distinct: nothing to sum
            acc = terms
        else:
            acc = {}
            for k, c in terms:
                acc[k] = acc[k] + c if k in acc else c
        self.n = n
        self._terms = {k: c for k, c in acc.items() if c}

    @classmethod
    def zero(cls, n: int) -> "WebCombo":
        return cls(n)

    @classmethod
    def _of(cls, n: int, terms: dict) -> "WebCombo":
        """A combination on terms as they are: the caller's keys are
        distinct and its coefficients nonzero, so nothing is summed or
        filtered."""
        combo = object.__new__(cls)
        combo.n, combo._terms = n, terms
        return combo

    @classmethod
    def from_web(cls, w: Web, coeff=1) -> "WebCombo":
        return cls(w.n, {w: _coerce(coeff)})

    @classmethod
    def unit(cls, n: int) -> "WebCombo":
        return cls.from_web(Web.from_slice(identity_web(n)))

    def terms(self) -> list[tuple[Web, LaurentPoly]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].code)

    def coeff(self, w: Web) -> LaurentPoly:
        return self._terms.get(w, self.ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, c) -> "WebCombo":
        if not c:
            return WebCombo(self.n)
        return WebCombo(self.n, {k: v * c for k, v in self._terms.items()})

    def _check_n(self, other: "WebCombo") -> None:
        if self.n != other.n:
            raise WebError(f"strand counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, WebCombo):
            return NotImplemented
        self._check_n(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return WebCombo(self.n, acc)

    def __neg__(self):
        """Each coefficient negated: scale(-1) without the products."""
        return WebCombo(self.n, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scale by an int, or multiply web by web through web_product,
        each pair's ca * cb formed once for all the terms of its product.
        A factor equal to 1, a generator's cb or a product term's v, is
        not multiplied: most are, and the check costs less than the
        product."""
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, WebCombo):
            return NotImplemented
        self._check_n(other)
        acc: dict = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                cab = ca if cb.is_one() else ca * cb
                for k, v in web_product(a, b):
                    c = cab if v.is_one() else v * cab
                    acc[k] = acc[k] + c if k in acc else c
        return WebCombo(self.n, acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, WebCombo) and self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        bits = " + ".join(f"({c})*{k!r}" for k, c in self.terms()) or "0"
        return f"<WebCombo n={self.n} {bits}>"


# ---------------------------------------------------------------------------
# Named elements and defining relations


@cache
def generator_combo(n: int, i: int) -> WebCombo:
    return WebCombo.from_web(Web.from_slice(generator_web(n, i)))


def product_web(n: int, indices: Iterable[int]) -> Web:
    """The concatenated drawing of the generator webs of indices, read
    by int_entries, so an entry that is no integer is refused with a
    WebError quoting it."""
    d = identity_web(n)
    for i in int_entries(indices):
        d = concatenate(d, generator_web(n, i))
    return Web.from_slice(d)


def second_generator(n: int, i: int) -> Web:
    """The extra irreducible web on strands i..i+2, drawn as two claws:
    strands i and i+1 merge into a sink whose third leg a cap turns back
    to strand i+2, and a cup turns strand i back into a source that
    splits onto strands i+1 and i+2.  Both triple products of
    neighbouring generators exceed their own generator by this one web;
    relation_suite checks that."""
    if not 1 <= i <= n - 2:
        raise WebError(f"second generator position {quoted(i)} out of range for n={n}")
    return Web.from_slice(SliceDiagram(n, (
        Column(i, "merge", ("R", "R", "L")),
        Column(i, "cap", ("L", "R")),
        Column(i, "cup", ("R", "L")),
        Column(i + 1, "split", ("L", "R", "R")),
    )))


def second_generator_combo(n: int, i: int) -> WebCombo:
    return WebCombo.from_web(second_generator(n, i))


def hecke_generator(n: int, i: int) -> WebCombo:
    """Image of the i-th braid generator: t^2 * (generator web) - 1."""
    return generator_combo(n, i).scale(LaurentPoly.t_power(2)) - WebCombo.unit(n)


_T2 = LaurentPoly.t_power(2)


@cache
def _hecke_step(c: LaurentPoly, p: LaurentPoly) -> LaurentPoly:
    """t^2 c - p, memoized by the values of c and p, so every image
    that takes the step (c, p) holds the one object it returns.  Its
    size is the number of distinct (c, p): the images of S_6 take
    91,063 steps of 388."""
    return c * _T2 - p


@cache
def hecke_image(n: int, word: tuple[int, ...]) -> WebCombo:
    """Product of braid generator images along a word.  The result only
    depends on the permutation the word presents (checked by tests);
    the cache keys on the word itself, and each word is one product on
    top of its prefix's cached image.  The product folds as
    prefix * (t^2 E_i - 1) = t^2 (prefix * E_i) - prefix, so only the
    generator web is multiplied, not the identity.  The image is then
    built in one pass over the webs of prefix * E_i and of the prefix:
    a web's coefficient is t^2 c, a shift, less the prefix's p, read
    from the memo _hecke_step, and a zero one is dropped.  The memo
    stays small because the coefficients are Kazhdan-Lusztig values
    +-t^(2 l(w)) P(t^4), and the cached images share one object per
    distinct step.  A one-letter word's image is hecke_generator's."""
    if len(word) < 2:
        return hecke_generator(n, word[0]) if word else WebCombo.unit(n)
    prefix = hecke_image(n, word[:-1])
    below = prefix._terms
    above = (prefix * generator_combo(n, word[-1]))._terms
    zero = WebCombo.ZERO
    terms = {}
    for D in {**above, **below}:
        c = _hecke_step(above.get(D, zero), below.get(D, zero))
        if c:
            terms[D] = c
    return WebCombo._of(n, terms)


def relation_suite(n: int) -> list[tuple[str, bool]]:
    """Check every defining relation at generic parameter, returning
    one (name, passed) row per check.  The first is the loop's value:
    the identity web with one closed loop drawn above its strands."""
    two, three = qint(2), qint(3)
    loop = Web.from_slice(SliceDiagram(n, (Column(1, "cup", ("R", "L")), Column(1, "cap", ("R", "L")))))
    out = [("Id with a loop = [3] Id", reduce_web(loop) == WebCombo.unit(n).scale(three))]
    gens = {i: generator_combo(n, i) for i in range(1, n)}
    for i in range(1, n):
        # the drawn product, so the bigon rule is checked: gens[i] * gens[i]
        # is the fork rule, which the Hecke quadratic below checks
        out.append((f"E{i}^2 = [2] E{i}", reduce_web(product_web(n, (i, i))) == gens[i].scale(two)))
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append(
                (f"E{i} E{j} = E{j} E{i}", gens[i] * gens[j] == gens[j] * gens[i])
            )
    for i in range(1, n - 1):
        d2 = second_generator_combo(n, i)
        out.append(
            (
                f"E{i} E{i + 1} E{i} - E{i} = E{i + 1} E{i} E{i + 1} - E{i + 1} = D2_{i}",
                gens[i] * gens[i + 1] * gens[i] - gens[i]
                == gens[i + 1] * gens[i] * gens[i + 1] - gens[i + 1]
                == d2,
            )
        )
        out.append((f"D2_{i}^2 = [2][3] D2_{i}", d2 * d2 == d2.scale(two * three)))
    for i in range(1, n - 2):
        d2a = second_generator_combo(n, i)
        d2b = second_generator_combo(n, i + 1)
        out.append(
            (
                f"D2_{i} D2_{i + 1} D2_{i} = [2]^2 D2_{i}",
                d2a * d2b * d2a == d2a.scale(two * two),
            )
        )
    for i in range(1, n):
        g = hecke_generator(n, i)
        qq = LaurentPoly.t_power(4)
        lhs = g * g
        rhs = g.scale(qq - LaurentPoly.one()) + WebCombo.unit(n).scale(qq)
        out.append((f"hecke quadratic at {i}", lhs == rhs))
    for i in range(1, n - 1):
        out.append(
            (
                f"hecke braid at {i}",
                hecke_image(n, (i, i + 1, i)) == hecke_image(n, (i + 1, i, i + 1)),
            )
        )
    return out
