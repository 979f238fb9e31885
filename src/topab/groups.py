"""Finite abelian groups, subgroups, homomorphisms, quotients.

Groups are direct sums of cyclic groups Z/m1 x ... x Z/mk in additive
notation.  Elements are coordinate tuples reduced into [0, mi), listed in
`itertools.product` order.  Arithmetic is by lookup.  The first `add`,
`sub`, `negation` or `scale` on a group builds its tables: a row of sums for
each element (each row built on its first use), the negation map, and the
multiples k * x, k < exponent, of each element.  Every entry is the tuple
object of `elements`, and the hot loops below read the rows directly.
`elements`, `index` and `check_element` build no table.  Everything is
immutable after construction; homomorphisms are defined on the standard
generators and totalized on first use, so applying them inside enumeration
loops is a dict lookup.  `commutes` checks a square on those tables.

Values are validated once.  `FinAbGroup`, `Subgroup` and `Homomorphism`
(here), `TopAbGroup`, `FactorSet`, `Section`, `AlgExtension`, `Extension`
and `RowData` are `Interned`: a constructor call with the arguments of a
live object returns that object, which passed the same checks on the same
value.  Equal values are one object, so these classes compare and hash by
identity, and their tables, image and kernel are built once.  `hom_set`,
`identity_hom`, `zero_hom`, `quotient` and `subgroup_as_group` are cached,
so each builds its result once per value.

The other modules call these constructions owned here: `group_structure`
(the canonical form of any concrete finite abelian group, with the concrete
element of each of its elements), `coset_reps` (x -> the least element of
x + K), `Homomorphism.fibers` (y -> its preimages in element order),
`induced` and `corestricted` (the map f induces between quotients, and f
as a map into a subgroup; every induced map of the package is built by
these two), and `exactness_failure`, the one decision of whether a sequence
bounded by zeros is exact, which every extension and exact sequence of the
package reads.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, fields
from functools import cache, cached_property
from math import gcd, lcm, prod
from typing import Callable, Collection, Iterable, Iterator

from .errors import (
    CompositionMismatch,
    ElementNotInGroup,
    IllDefined,
    NonPositiveModulus,
    NotASubgroup,
)

Element = tuple[int, ...]


class Interned(type):
    """The metaclass of a value type with one object per value.

    A call looks its arguments up in the class's pool, by the key that the
    class's `_pool_key` makes of them.  A hit returns the pooled object
    without running `__post_init__` again: that object passed the same
    checks on the same value.  A miss constructs and validates as usual.  A
    failed check pools nothing, so bad input raises on every call.  An
    unhashable argument reaches the constructor, and the object it builds is
    then looked up by the key of its normalized fields.  A key normalizes its
    arguments only in ways that keep every rejection.  So equal values are
    one object on every path, and the classes compare and hash by identity
    (`eq=False`).  The pool holds weak references, so an object that nothing
    else holds leaves it.  `dataclasses.replace` calls the class, so it goes
    through the pool too.
    """

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        cls._pool = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        try:
            key = cls._pool_key(*args, **kwargs)
            obj = cls._pool.get(key)
        except TypeError:  # an unhashable argument or a wrong signature
            obj = super().__call__(*args, **kwargs)
            key = cls._pool_key(*(getattr(obj, f.name) for f in fields(obj)))
            return cls._pool.setdefault(key, obj)
        if obj is None:
            obj = cls._pool[key] = super().__call__(*args, **kwargs)
        return obj


class _Rows(dict):
    """element -> row, each row built by `build` on its first lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, x):
        row = self[x] = self.build(x)
        return row


class _InternedModuli(Interned):
    """`Interned`, reading the moduli once and as ints, so that an iterator
    of moduli meets the group pooled for their tuple."""

    def __call__(cls, moduli):
        return super().__call__(tuple(map(int, moduli)))


@dataclass(frozen=True, eq=False)
class FinAbGroup(metaclass=_InternedModuli):
    """Z/m1 + ... + Z/mk; the empty tuple of moduli is the trivial group."""

    moduli: tuple[int, ...]

    _pool_key = staticmethod(lambda moduli: moduli)

    def __post_init__(self):
        if any(m < 1 for m in self.moduli):
            raise NonPositiveModulus(f"moduli must be >= 1, got {self.moduli}")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.moduli) if self.moduli else 1

    @cached_property
    def zero(self) -> Element:
        return self.elements[0]

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(m) for m in self.moduli)))

    @cached_property
    def index(self) -> dict[Element, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def check_element(self, x: Element) -> Element:
        if x not in self.index:
            raise ElementNotInGroup(f"{x!r} is not an element of {self}")
        return x

    # The tables, filled from the coordinate formulas: every entry is a
    # tuple object of `elements`, a row lookup at a non-element raises
    # KeyError, and callers only read them.

    @cached_property
    def sums(self) -> dict[Element, dict[Element, Element]]:
        """x -> the row {y: x + y}."""
        return _Rows(self._sum_row)

    @cached_property
    def negation(self) -> dict[Element, Element]:
        cols = [[-c % m * s for c in range(m)] for m, s in zip(self.moduli, self._strides)]
        return dict(zip(self.elements, self._at(cols)))

    @cached_property
    def multiples(self) -> dict[Element, tuple[Element, ...]]:
        """x -> (k * x for k in range(exponent))."""
        return _Rows(self._multiples_row)

    @cached_property
    def _strides(self) -> list[int]:
        # flat index of x in product order: sum of x_j * strides[j]
        return [prod(self.moduli[j + 1 :]) for j in range(self.rank)]

    def _at(self, columns: list[list[int]]) -> list[Element]:
        """The elements at the flat indices i_1 + ... + i_k over the
        product of the columns, in product order."""
        flat = [0]
        for col in columns:
            flat = [i + c for i in flat for c in col]
        return list(map(self.elements.__getitem__, flat))

    def _sum_row(self, x: Element) -> dict[Element, Element]:
        self.index[x]  # KeyError unless x is an element
        cols = [
            [(a + c) % m * s for c in range(m)]
            for a, m, s in zip(x, self.moduli, self._strides)
        ]
        return dict(zip(self.elements, self._at(cols)))

    def _multiples_row(self, x: Element) -> tuple[Element, ...]:
        self.index[x]  # KeyError unless x is an element
        terms = list(zip(x, self.moduli, self._strides))
        return tuple(
            self.elements[sum(k * a % m * s for a, m, s in terms)]
            for k in range(self.exponent)
        )

    def add(self, x: Element, y: Element) -> Element:
        try:
            return self.sums[x][y]
        except KeyError:
            raise self._not_element(x, y) from None

    def sub(self, x: Element, y: Element) -> Element:
        try:
            return self.sums[x][self.negation[y]]
        except KeyError:
            raise self._not_element(x, y) from None

    def scale(self, k: int, x: Element) -> Element:
        try:
            return self.multiples[x][k % self.exponent]
        except KeyError:
            raise self._not_element(x) from None

    def _not_element(self, *xs: Element) -> ElementNotInGroup:
        x = next((x for x in xs if x not in self.index), xs[0])
        return ElementNotInGroup(f"{x!r} is not an element of {self}")

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The standard generators; the generator of a Z/1 factor is 0."""
        n = len(self.moduli)
        return tuple(
            tuple(1 % m if j == i else 0 for j in range(n))
            for i, m in enumerate(self.moduli)
        )

    def element_order(self, x: Element) -> int:
        return lcm(*(m // gcd(m, a) for a, m in zip(x, self.moduli))) if x else 1

    def __str__(self) -> str:
        if not self.moduli:
            return "0"
        return " x ".join(f"Z/{m}" for m in self.moduli)


@dataclass(frozen=True, eq=False)
class Subgroup(metaclass=Interned):
    """A subgroup stored as a canonically sorted element set."""

    parent: FinAbGroup
    elements: tuple[Element, ...]

    # the constructor merges repeated elements, so the key is their set
    _pool_key = staticmethod(lambda parent, elements: (parent, frozenset(elements)))

    def __post_init__(self):
        G = self.parent
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        eset = frozenset(elems)
        if not G.index.keys() >= eset:
            for x in elems:
                G.check_element(x)
        if G.zero not in eset:
            raise NotASubgroup("subgroup must contain zero")
        negation, sums = G.negation, G.sums
        for x in elems:
            if negation[x] not in eset:
                raise NotASubgroup(f"not closed under negation at {x}")
            row = sums[x]
            if not eset.issuperset(map(row.__getitem__, elems)):
                y = next(y for y in elems if row[y] not in eset)
                raise NotASubgroup(f"not closed under addition at {x} + {y}")

    @cached_property
    def element_set(self) -> frozenset[Element]:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self.element_set

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)


def subgroup(parent: FinAbGroup, elems: Iterable[Element]) -> Subgroup:
    return Subgroup(parent, tuple(elems))


def trivial_subgroup(G: FinAbGroup) -> Subgroup:
    return Subgroup(G, (G.zero,))


def subgroup_generated(G: FinAbGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    gens = set(gens)
    for g in gens:
        G.check_element(g)
    span = {G.zero}
    sums = G.sums
    for g in sorted(gens):
        if g in span:
            continue
        multiples = G.multiples[g][: G.element_order(g)]
        span = {sums[m][s] for m in multiples for s in span}
    return Subgroup(G, tuple(span))


@dataclass(frozen=True, eq=False)
class Homomorphism(metaclass=Interned):
    """A homomorphism given by images of the standard generators."""

    source: FinAbGroup
    target: FinAbGroup
    gen_images: tuple[Element, ...]

    _pool_key = staticmethod(
        lambda source, target, gen_images: (source, target, tuple(gen_images))
    )

    def __post_init__(self):
        if len(self.gen_images) != self.source.rank:
            raise IllDefined(
                f"expected {self.source.rank} generator images, got {len(self.gen_images)}"
            )
        imgs = tuple(self.target.check_element(g) for g in self.gen_images)
        object.__setattr__(self, "gen_images", imgs)
        for m, img in zip(self.source.moduli, imgs):
            if self.target.scale(m, img) != self.target.zero:
                raise IllDefined(
                    f"{m} * {img} != 0 in {self.target}; assignment is not well defined"
                )

    @cached_property
    def table(self) -> dict[Element, Element]:
        # In product order the last coordinate runs fastest, so generator j
        # extends each value v so far to v, v + img_j, v + 2 img_j, ...
        sums = self.target.sums
        values = [self.target.zero]
        for m, img in zip(self.source.moduli, self.gen_images):
            step = sums[img]
            extended = []
            for v in values:
                for _ in range(m):
                    extended.append(v)
                    v = step[v]
            values = extended
        return dict(zip(self.source.elements, values))

    def __call__(self, x: Element) -> Element:
        try:
            return self.table[x]
        except KeyError:
            raise ElementNotInGroup(f"{x!r} is not in {self.source}") from None

    @cached_property
    def kernel(self) -> Subgroup:
        return Subgroup(
            self.source,
            tuple(x for x, y in self.table.items() if y == self.target.zero),
        )

    @cached_property
    def image(self) -> Subgroup:
        return Subgroup(self.target, tuple(set(self.table.values())))

    @cached_property
    def fibers(self) -> dict[Element, tuple[Element, ...]]:
        """y -> its preimages in element order, for each y in the image; the
        first preimage is the least."""
        out: dict[Element, list[Element]] = {}
        for x, y in self.table.items():
            out.setdefault(y, []).append(x)
        return {y: tuple(xs) for y, xs in out.items()}

    def is_injective(self) -> bool:
        return len(set(self.table.values())) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.table.values())) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective()


def hom_from_table(
    source: FinAbGroup, target: FinAbGroup, table: dict[Element, Element]
) -> Homomorphism:
    """Build a homomorphism from a total element map, verifying additivity."""
    gen_images = tuple(table[g] for g in source.generators)
    f = Homomorphism(source, target, gen_images)
    if f.table != table:
        for x in source.elements:
            if f.table[x] != table[x]:
                raise IllDefined(f"table is not additive at {x}")
    return f


@cache
def identity_hom(G: FinAbGroup) -> Homomorphism:
    return Homomorphism(G, G, G.generators)


@cache
def zero_hom(source: FinAbGroup, target: FinAbGroup) -> Homomorphism:
    return Homomorphism(source, target, tuple(target.zero for _ in source.moduli))


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.target != outer.source:
        raise CompositionMismatch(
            f"cannot compose {outer.source} <- {inner.target} mismatch"
        )
    return Homomorphism(
        inner.source, outer.target, tuple(outer(inner(g)) for g in inner.source.generators)
    )


def induced(f: Homomorphism, p: Homomorphism, q: Homomorphism) -> Homomorphism:
    """The map P -> Q with induced(p(x)) == q(f(x)), for f: X -> Y and onto
    maps p: X -> P, q: Y -> Q; IllDefined unless f(ker p) lies in ker q."""
    if p.source != f.source or q.source != f.target:
        raise CompositionMismatch("p must start at the source of f, q at its target")
    if any(q(f(k)) != q.target.zero for k in p.kernel):
        raise IllDefined("f does not map ker p into ker q")
    table = {y: q(f(xs[0])) for y, xs in p.fibers.items()}
    return hom_from_table(p.target, q.target, table)


def corestricted(f: Homomorphism, j: Homomorphism) -> Homomorphism:
    """f: X -> Y as a map into the subgroup j: J -> Y, for injective j;
    IllDefined unless f(X) lies in j(J)."""
    if j.target != f.target:
        raise CompositionMismatch("j must map into the target of f")
    pre = j.fibers
    if not pre.keys() >= f.image.element_set:
        raise IllDefined("f does not map into the image of j")
    return hom_from_table(f.source, j.source, {x: pre[y][0] for x, y in f.table.items()})


def commutes(
    f: Homomorphism, g: Homomorphism, alpha: Homomorphism, beta: Homomorphism
) -> bool:
    """beta o f == g o alpha for the square f: A -> B over g: A' -> B' with
    verticals alpha: A -> A', beta: B -> B', compared on every element of A
    by table lookups.  The caller has checked that the endpoints line up."""
    ft, gt, at, bt = f.table, g.table, alpha.table, beta.table
    return all(bt[ft[x]] == gt[at[x]] for x in ft)


def all_homs(source: FinAbGroup, target: FinAbGroup) -> Iterator[Homomorphism]:
    """All homomorphisms source -> target, in deterministic order, each built
    anew; `hom_set` keeps them."""
    choices = []
    for m in source.moduli:
        # images of a generator of order m are the elements killed by m
        choices.append(
            [y for y in target.elements if target.scale(m, y) == target.zero]
        )
    for imgs in itertools.product(*choices):
        yield Homomorphism(source, target, imgs)


@cache
def hom_set(source: FinAbGroup, target: FinAbGroup) -> tuple[Homomorphism, ...]:
    """The homomorphisms of `all_homs`, in its order, as one shared tuple."""
    return tuple(all_homs(source, target))


def is_exact_at(f: Homomorphism, g: Homomorphism) -> bool:
    """Exactness at the middle of source(f) -> target(f) = source(g) -> target(g)."""
    if f.target != g.source:
        raise CompositionMismatch("target of f must equal source of g")
    return f.image.element_set == g.kernel.element_set


def exactness_failure(**maps: Homomorphism) -> str | None:
    """Why 0 -> X_0 -> ... -> X_n -> 0 along the named maps is not exact, or
    None: the first map is not injective, the last is not surjective, or an
    image is not the next kernel, tried in that order."""
    names, fs = list(maps), list(maps.values())
    if not fs[0].is_injective():
        return f"{names[0]} is not injective"
    if not fs[-1].is_surjective():
        return f"{names[-1]} is not surjective"
    for i in range(len(fs) - 1):
        if not is_exact_at(fs[i], fs[i + 1]):
            return f"image of {names[i]} differs from kernel of {names[i + 1]}"
    return None


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def group_structure(elems: Iterable, add: Callable, zero) -> tuple[FinAbGroup, tuple]:
    """The canonical form H of a concrete finite abelian group, and the
    concrete element of each element of H, in `H.elements` order.

    Works on any concrete finite abelian group: sortable elements, a binary
    operation and a zero.  The factors come from order statistics (counting
    solutions of p^j * x = 0 reads off the conjugate partition of the
    p-primary type); a basis b from a backtracking search constrained to
    those factors.  y in H stands for sum_i y_i * b_i.
    """
    elems = sorted(elems)
    n = len(elems)
    order = {}
    for x in elems:
        k, y = 1, x
        while y != zero:
            y = add(y, x)
            k += 1
        order[x] = k
    parts: dict[int, list[int]] = {}
    for p in _prime_factors(n):
        counts = [1]
        j = 1
        while True:
            pj = p**j
            c = sum(1 for x in elems if pj % order[x] == 0)
            counts.append(c)
            if c == counts[-2]:
                break
            j += 1
        conj = []
        for i in range(1, len(counts)):
            ratio, t = counts[i] // counts[i - 1], 0
            assert counts[i] % counts[i - 1] == 0
            while ratio > 1:
                assert ratio % p == 0
                ratio //= p
                t += 1
            conj.append(t)
        lam = [sum(1 for v in conj if v >= i) for i in range(1, conj[0] + 1)]
        parts[p] = lam
    # the t-th largest invariant factor is the product of the p^lam[t]
    r = max(map(len, parts.values()), default=0)
    factors = tuple(
        prod(p ** lam[t] for p, lam in parts.items() if t < len(lam))
        for t in reversed(range(r))
    )
    assert prod(factors) == n
    desc = factors[::-1]

    by_order: dict[int, list] = {}
    for x in elems:
        by_order.setdefault(order[x], []).append(x)

    def extend(idx: int, span: frozenset, chosen: tuple):
        if idx == len(desc):
            return chosen
        d = desc[idx]
        for x in by_order.get(d, []):
            y, ok = x, True
            for _ in range(d - 1):
                if y in span:
                    ok = False
                    break
                y = add(y, x)
            if not ok:
                continue
            mults, y = [zero], x
            for _ in range(d - 1):
                mults.append(y)
                y = add(y, x)
            bigger = frozenset(add(s, m) for s in span for m in mults)
            res = extend(idx + 1, bigger, chosen + (x,))
            if res is not None:
                return res
        return None

    basis = extend(0, frozenset([zero]), ())
    assert basis is not None, "no basis found; input is not a group?"
    # In product order the last coordinate runs fastest, as in
    # Homomorphism.table, so each value is one add from an earlier one.
    values = [zero]
    for d, b in zip(factors, reversed(basis)):
        extended = []
        for v in values:
            for _ in range(d):
                extended.append(v)
                v = add(v, b)
        values = extended
    assert len(set(values)) == n, "the coordinates are not a bijection"
    return FinAbGroup(factors), tuple(values)


def coset_reps(G: FinAbGroup, K: Collection[Element]) -> dict[Element, Element]:
    """x -> the least element of the coset x + K, for K the elements of a
    subgroup of G."""
    rep: dict[Element, Element] = {}
    # elements come in increasing order, so a coset's first is its least
    for x in G.elements:
        if x not in rep:
            row = G.sums[x]
            for k in K:
                rep[row[k]] = x
    return rep


@cache
def quotient(G: FinAbGroup, K: Subgroup) -> tuple[FinAbGroup, Homomorphism]:
    """G/K in canonical cyclic decomposition plus the projection, built once
    per (G, K)."""
    if K.parent != G:
        raise NotASubgroup("K is not a subgroup of G")
    rep = coset_reps(G, K)
    Q, reps = group_structure(set(rep.values()), lambda a, b: rep[G.add(a, b)], G.zero)
    coords = dict(zip(reps, Q.elements))
    proj = hom_from_table(G, Q, {x: coords[rep[x]] for x in G.elements})
    assert proj.kernel.elements == K.elements
    assert Q.order * K.order == G.order
    return Q, proj


@dataclass(frozen=True)
class GroupEmbedding:
    """A subgroup realized as a group in its own right, with the inclusion.
    `subgroup_as_group` shares one per subgroup, so callers only read it."""

    group: FinAbGroup
    include: Homomorphism
    coords: dict  # parent element of the subgroup -> element of .group


@cache
def subgroup_as_group(S: Subgroup) -> GroupEmbedding:
    G = S.parent
    H, values = group_structure(S.elements, G.add, G.zero)
    include = hom_from_table(H, G, dict(zip(H.elements, values)))
    return GroupEmbedding(H, include, dict(zip(values, H.elements)))


@cache
def all_subgroups(G: FinAbGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G exactly once, sorted by (order, element list);
    built once per group, as shrinking asks for the same few groups often."""
    triv = trivial_subgroup(G)
    seen = {triv.elements: triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        for x in G.elements:
            if x in S.element_set:
                continue
            T = subgroup_generated(G, set(S.elements) | {x})
            if T.elements not in seen:
                seen[T.elements] = T
                frontier.append(T)
    return tuple(sorted(seen.values(), key=lambda s: (s.order, s.elements)))


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, descending parts, deterministic order."""
    if n == 0:
        yield ()
        return
    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def isomorphism_class_moduli(order: int) -> tuple[tuple[int, ...], ...]:
    """Moduli tuples (sorted prime powers) for each class of the given order."""
    if order == 1:
        return ((),)
    fact = _prime_factors(order)
    per_prime = []
    for p in sorted(fact):
        per_prime.append([tuple(p**e for e in lam) for lam in _partitions(fact[p])])
    out = []
    for combo in itertools.product(*per_prime):
        moduli = tuple(sorted(itertools.chain.from_iterable(combo)))
        out.append(moduli)
    return tuple(sorted(out))
