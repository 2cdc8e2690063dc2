"""Finite groups as validated Cayley tables, plus a complete catalogue for order <= 16.

Elements are indices 0..n-1 with the identity normalised to 0.  Tables are
dense tuples-of-tuples: the embedding search does millions of products and
profits from O(1) lookups.

Dihedral naming: ``dihedral(k)`` is the symmetry group of the k-gon and has
order 2k; catalogue labels carry the order ("D6" is the order-6 dihedral
group, i.e. ``dihedral(3)``).

One backtracking engine, ``isomorphisms``, finds isomorphisms between two
groups through the images of a generating sequence.  ``isomorphic`` asks it
for one, and ``automorphism_orbits`` builds a strong generating set of
Aut(G) from it (Sims, 1970) without listing the group, which gives |Aut(G)|
and the orbits of Aut(G) on the elements.  ``Group.orbit_minima``, built
once per group object, is what the embedding search reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Optional, Sequence

from .pls import ParameterOutOfRange


class NotLatin(ValueError):
    """Some row or column of the table is not a permutation of 0..n-1."""


class NoIdentity(ValueError):
    """The table has no two-sided identity element."""


class NotAssociative(ValueError):
    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        a, b, c = witness
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})")


class ClosureTooLarge(ValueError):
    """Permutation closure exceeded the safety bound."""


class OrderUnsupported(ValueError):
    """No built-in catalogue for this order; import groups from files instead."""


@dataclass(frozen=True)
class Group:
    """A finite group of order n on elements 0..n-1 with identity 0."""

    name: str
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    element_orders: tuple[int, ...]
    abelian: bool

    identity: int = 0

    @property
    def order(self) -> int:
        return len(self.table)

    def __str__(self) -> str:
        return f"{self.name} (order {self.order})"

    @cached_property
    def orbit_minima(self) -> tuple[int, ...]:
        """The least element of each Aut(G)-orbit on the elements, increasing.

        Built on first use, once per group object."""
        _, least = automorphism_orbits(self)
        return tuple(x for x in range(self.order) if least[x] == x)


def group_from_table(table: Iterable[Sequence[int]], name: str = "") -> Group:
    """Validate a Cayley table and return the Group with identity moved to 0.

    Checks: rows/columns are permutations, a two-sided identity exists,
    associativity holds for all triples (by Light's test), inverses exist.
    """
    rows = [tuple(int(x) for x in row) for row in table]
    return _finalize(rows, name, check_assoc=True)


def _check_associative(rows: list[tuple[int, ...]], ident: int) -> None:
    """Light's test: (xa)y = x(ay) for all x, y, for a in a generating set.

    The elements a that pass are closed under products, so once the right
    products of the tested elements reach every element, the table is
    associative.  Each element not yet reached is tested and joins the
    generators, which costs O(n^2) per generator.
    """
    n = len(rows)
    gens: list[int] = []
    reached = [False] * n
    reached[ident] = True
    for a in range(n):
        if reached[a]:
            continue
        ra = rows[a]
        for x in range(n):
            rxa = rows[rows[x][a]]
            rx = rows[x]
            for y in range(n):
                if rxa[y] != rx[ra[y]]:
                    raise NotAssociative((x, a, y))
        gens.append(a)
        frontier = [rows[x][a] for x in range(n) if reached[x]]
        while frontier:
            x = frontier.pop()
            if reached[x]:
                continue
            reached[x] = True
            rx = rows[x]
            frontier.extend(rx[g] for g in gens)


def _finalize(rows: list[tuple[int, ...]], name: str, check_assoc: bool) -> Group:
    n = len(rows)
    if n == 0:
        raise NotLatin("empty table")
    symbols = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n or set(row) != symbols:
            raise NotLatin(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {rows[i][j] for i in range(n)} != symbols:
            raise NotLatin(f"column {j} is not a permutation of 0..{n - 1}")
    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity")
    if check_assoc:
        _check_associative(rows, ident)
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = perm[ident], perm[0]
        new = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                new[perm[a]][perm[b]] = perm[rows[a][b]]
        rows = [tuple(r) for r in new]
    inverse = [0] * n
    for a in range(n):
        inverse[a] = rows[a].index(0)
    orders = [0] * n
    for a in range(n):
        x, m = a, 1
        while x != 0:
            x = rows[x][a]
            m += 1
        orders[a] = m
    abelian = all(rows[a][b] == rows[b][a] for a in range(n) for b in range(a + 1, n))
    return Group(
        name=name or f"group{n}",
        table=tuple(rows),
        inverse=tuple(inverse),
        element_orders=tuple(orders),
        abelian=abelian,
    )


# ---------------------------------------------------------------------------
# Constructors.


def cyclic(n: int) -> Group:
    if n < 1:
        raise ParameterOutOfRange(f"cyclic order must be >= 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _finalize([tuple(r) for r in table], f"Z{n}", check_assoc=False)


def dihedral(k: int) -> Group:
    """Symmetries of the k-gon: order 2k.  Indices 0..k-1 are rotations r^i,
    k..2k-1 are reflections r^i s, with s r = r^-1 s."""
    if k < 2:
        raise ParameterOutOfRange(f"dihedral needs k >= 2, got {k}")
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            table[i][j] = (i + j) % k
            table[i][k + j] = k + (i + j) % k
            table[k + i][j] = k + (i - j) % k
            table[k + i][k + j] = (i - j) % k
    return _finalize([tuple(r) for r in table], f"D{n}", check_assoc=False)


def abelian(invariant_factors: Sequence[int]) -> Group:
    """Direct sum of cyclic groups; each factor must divide the next."""
    factors = [int(d) for d in invariant_factors]
    if not factors:
        raise ParameterOutOfRange("need at least one invariant factor")
    for d in factors:
        if d < 1:
            raise ParameterOutOfRange(f"invariant factors must be >= 1, got {d}")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ParameterOutOfRange(f"invariant factors must form a divisor chain, {a} does not divide {b}")
    n = reduce(lambda x, y: x * y, factors, 1)

    def encode(vec):
        idx = 0
        for v, d in zip(vec, factors):
            idx = idx * d + v
        return idx

    def decode(idx):
        vec = []
        for d in reversed(factors):
            vec.append(idx % d)
            idx //= d
        return list(reversed(vec))

    table = [[0] * n for _ in range(n)]
    for a in range(n):
        va = decode(a)
        for b in range(n):
            vb = decode(b)
            table[a][b] = encode([(x + y) % d for x, y, d in zip(va, vb, factors)])
    name = "x".join(f"Z{d}" for d in factors if d > 1) or "Z1"
    return _finalize([tuple(r) for r in table], name, check_assoc=False)


def dicyclic(k: int) -> Group:
    """Order 4k: <a, b | a^(2k) = e, b^2 = a^k, b a = a^-1 b>.

    Indices 0..2k-1 are a^i, 2k..4k-1 are a^i b.  dicyclic(2) is the
    quaternion group of order 8.
    """
    if k < 1:
        raise ParameterOutOfRange(f"dicyclic needs k >= 1, got {k}")
    m = 2 * k
    n = 4 * k
    table = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            table[i][j] = (i + j) % m
            table[i][m + j] = m + (i + j) % m
            table[m + i][j] = m + (i - j) % m
            table[m + i][m + j] = (i - j + k) % m
    return _finalize([tuple(r) for r in table], f"Dic{k}", check_assoc=False)


def direct_product(g: Group, h: Group) -> Group:
    """Componentwise product on pairs, packed as a*|H| + b."""
    nh = h.order
    n = g.order * nh
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        a1, a2 = divmod(a, nh)
        for b in range(n):
            b1, b2 = divmod(b, nh)
            table[a][b] = g.table[a1][b1] * nh + h.table[a2][b2]
    return _finalize([tuple(r) for r in table], f"{g.name}x{h.name}", check_assoc=False)


MAX_CLOSURE = 10_000


def from_perm_generators(degree: int, generators: Sequence[Sequence[int]], name: str = "") -> Group:
    """Close a set of permutations of 0..degree-1 and build the Cayley table.

    Products compose right-to-left (g*h applies h first).  Raises
    ClosureTooLarge if the closure exceeds MAX_CLOSURE elements.
    """
    pts = list(range(degree))
    gens = []
    for g in generators:
        p = tuple(int(x) for x in g)
        if sorted(p) != pts:
            raise ParameterOutOfRange(f"not a permutation of 0..{degree - 1}: {p}")
        gens.append(p)
    ident = tuple(pts)
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(g[e[x]] for x in pts)
                if prod not in index:
                    if len(elements) >= MAX_CLOSURE:
                        raise ClosureTooLarge(
                            f"closure exceeded {MAX_CLOSURE} elements"
                        )
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    for a, pa in enumerate(elements):
        for b, pb in enumerate(elements):
            table[a][b] = index[tuple(pa[pb[x]] for x in pts)]
    return _finalize([tuple(r) for r in table], name or f"perm{n}", check_assoc=True)


def opposite(g: Group) -> Group:
    """Same elements with reversed multiplication (transposed table)."""
    n = g.order
    table = [tuple(g.table[b][a] for b in range(n)) for a in range(n)]
    return _finalize(list(table), f"{g.name}^op", check_assoc=False)


# ---------------------------------------------------------------------------
# Isomorphisms and automorphisms: one backtracking search over generator
# images behind an invariant screen.


def _center(g: Group) -> list[int]:
    n = g.order
    return [
        x
        for x in range(n)
        if all(g.table[x][y] == g.table[y][x] for y in range(n))
    ]


def _generating_sequence(g: Group) -> list[int]:
    n = g.order
    gens: list[int] = []
    closed = {0}
    while len(closed) < n:
        cand = next(x for x in range(n) if x not in closed)
        gens.append(cand)
        frontier = [0]
        closed = {0}
        while frontier:
            nxt = []
            for x in frontier:
                for h in gens:
                    for y in (g.table[x][h], g.table[h][x]):
                        if y not in closed:
                            closed.add(y)
                            nxt.append(y)
            frontier = nxt
    return gens


def _extend_map(g: Group, h: Group, gens: Sequence[int], images: Sequence[int]) -> Optional[dict[int, int]]:
    """Map <gens> -> h with gens[i] -> images[i], or None if that is
    inconsistent or not injective on <gens>."""
    mapping: dict[int, int] = {0: 0}
    used = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            y = mapping[x]
            for gi, hi in zip(gens, images):
                xg = g.table[x][gi]
                yh = h.table[y][hi]
                cur = mapping.get(xg)
                if cur is None:
                    if yh in used:
                        return None
                    mapping[xg] = yh
                    used.add(yh)
                    nxt.append(xg)
                elif cur != yh:
                    return None
        frontier = nxt
    return mapping


def isomorphisms(g: Group, h: Group, images: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """Each isomorphism g -> h once, as the tuple of the images of 0..n-1.

    The search assigns images to `_generating_sequence(g)` in turn, starting
    from `images` (at most one per generator) and then trying the elements
    of h of the generator's order.  `_extend_map` checks
    phi(x * b) = phi(x) * phi(b) for every x and every assigned generator b,
    so a map it completes on all of g is an injective homomorphism, and an
    isomorphism when |g| = |h|.
    """
    if g.order != h.order:
        return
    gens = _generating_sequence(g)
    by_order: dict[int, list[int]] = {}
    for x in range(h.order):
        by_order.setdefault(h.element_orders[x], []).append(x)

    def search(fixed: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(fixed)
        phi = _extend_map(g, h, gens[:i], fixed)
        if phi is None:
            return
        if i == len(gens):
            yield tuple(phi[x] for x in range(g.order))
            return
        for cand in by_order.get(g.element_orders[gens[i]], []):
            yield from search(fixed + (cand,))

    yield from search(tuple(images))


def isomorphic(g: Group, h: Group) -> bool:
    if g.order != h.order:
        return False
    if g.abelian != h.abelian:
        return False
    if sorted(g.element_orders) != sorted(h.element_orders):
        return False
    zg, zh = _center(g), _center(h)
    if len(zg) != len(zh):
        return False
    if sorted(g.element_orders[x] for x in zg) != sorted(h.element_orders[x] for x in zh):
        return False
    return next(isomorphisms(g, h), None) is not None


def _orbit(x: int, perms: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of x under the group the permutations generate."""
    orbit = {x}
    todo = [x]
    while todo:
        y = todo.pop()
        for perm in perms:
            z = perm[y]
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def automorphism_orbits(g: Group) -> tuple[int, tuple[int, ...]]:
    """|Aut(g)| and the least element of each element's Aut(g)-orbit.

    A strong generating set along the generating sequence b_1..b_k, never the
    whole group (Sims, 1970).  From b_k back to b_1, each candidate c of b_i's
    order outside b_i's orbit under the automorphisms kept so far (all of
    which fix b_1..b_{i-1}) gets the first automorphism of
    ``isomorphisms(g, g, (b_1, ..., b_{i-1}, c))``, if there is one.  Each
    orbit is then the whole orbit of b_i under the stabiliser of
    b_1..b_{i-1}, so |Aut(g)| is the product of their lengths and the kept
    automorphisms generate Aut(g).
    """
    n = g.order
    gens = _generating_sequence(g)
    kept: list[tuple[int, ...]] = []
    size = 1
    for i in reversed(range(len(gens))):
        b = gens[i]
        orbit = _orbit(b, kept)
        for c in range(n):
            if c not in orbit and g.element_orders[c] == g.element_orders[b]:
                phi = next(isomorphisms(g, g, (*gens[:i], c)), None)
                if phi is not None:
                    kept.append(phi)
                    orbit = _orbit(b, kept)
        size *= len(orbit)
    least = [-1] * n
    for x in range(n):
        if least[x] < 0:
            for y in _orbit(x, kept):
                least[y] = x
    return size, tuple(least)


# ---------------------------------------------------------------------------
# Catalogue: all groups of order <= 16 up to isomorphism, and all abelian
# groups of order <= 64.  Completeness for order <= 16 comes from the
# classical classification (a trusted input); pairwise non-isomorphism is
# re-verified by the test suite, and a brute-force oracle re-derives the
# catalogue for orders <= 8.


def _semidirect_c2_on_cyclic(k: int, t: int, name: str) -> Group:
    """Z_k x| Z_2 where the involution acts by x -> t*x (t^2 = 1 mod k)."""
    if (t * t) % k != 1:
        raise ParameterOutOfRange(f"action {t} is not an involution mod {k}")
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            table[i][j] = (i + j) % k
            table[i][k + j] = k + (i + j) % k
            table[k + i][j] = k + (i + t * j) % k
            table[k + i][k + j] = (i + t * j) % k
    return _finalize([tuple(r) for r in table], name, check_assoc=False)


def _semidihedral16() -> Group:
    return _semidirect_c2_on_cyclic(8, 3, "SD16")


def _modular16() -> Group:
    return _semidirect_c2_on_cyclic(8, 5, "M16")


def _z4_semi_z4() -> Group:
    # <a, b | a^4 = b^4 = e, b a b^-1 = a^-1>, elements (i, j) = a^i b^j
    def mul(x, y):
        i1, j1 = divmod(x, 4)
        i2, j2 = divmod(y, 4)
        i = (i1 + (i2 if j1 % 2 == 0 else -i2)) % 4
        return i * 4 + (j1 + j2) % 4

    table = [[mul(a, b) for b in range(16)] for a in range(16)]
    return _finalize([tuple(r) for r in table], "Z4:Z4", check_assoc=False)


def _z2z2_semi_z4() -> Group:
    # Z2^2 x| Z4 with the 4-cycle swapping the two coordinates
    def mul(x, y):
        v1, k1 = divmod(x, 4)
        v2, k2 = divmod(y, 4)
        a1, b1 = divmod(v1, 2)
        a2, b2 = divmod(v2, 2)
        if k1 % 2:
            a2, b2 = b2, a2
        v = ((a1 ^ a2) * 2) + (b1 ^ b2)
        return v * 4 + (k1 + k2) % 4

    table = [[mul(a, b) for b in range(16)] for a in range(16)]
    return _finalize([tuple(r) for r in table], "Z2^2:Z4", check_assoc=False)


# Pauli products: index 0=I,1=X,2=Y,3=Z; entry (phase in units of i, result)
_PAULI = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
    (1, 1): (0, 0), (2, 2): (0, 0), (3, 3): (0, 0),
    (1, 2): (1, 3), (2, 1): (3, 3),
    (2, 3): (1, 1), (3, 2): (3, 1),
    (3, 1): (1, 2), (1, 3): (3, 2),
}


def _pauli16() -> Group:
    # the order-16 central product of D8 and Z4: phases i^k times I, X, Y, Z
    # index = 4*phase + pauli  -> regroup so identity lands at 0
    table = [[0] * 16 for _ in range(16)]
    for a in range(16):
        p1, k1 = divmod(a, 4)
        for b in range(16):
            p2, k2 = divmod(b, 4)
            ph, p = _PAULI[(p1, p2)]
            k = (k1 + k2 + ph) % 4
            table[a][b] = p * 4 + k
    return _finalize([tuple(r) for r in table], "Z4oD8", check_assoc=False)


def _a4() -> Group:
    return from_perm_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")


def _catalogue_builders() -> dict[int, list]:
    return {
        1: [lambda: cyclic(1)],
        2: [lambda: cyclic(2)],
        3: [lambda: cyclic(3)],
        4: [lambda: cyclic(4), lambda: abelian([2, 2])],
        5: [lambda: cyclic(5)],
        6: [lambda: cyclic(6), lambda: dihedral(3)],
        7: [lambda: cyclic(7)],
        8: [
            lambda: cyclic(8),
            lambda: abelian([2, 4]),
            lambda: abelian([2, 2, 2]),
            lambda: dihedral(4),
            lambda: _named(dicyclic(2), "Q8"),
        ],
        9: [lambda: cyclic(9), lambda: abelian([3, 3])],
        10: [lambda: cyclic(10), lambda: dihedral(5)],
        11: [lambda: cyclic(11)],
        12: [
            lambda: cyclic(12),
            lambda: abelian([2, 6]),
            lambda: dihedral(6),
            lambda: dicyclic(3),
            _a4,
        ],
        13: [lambda: cyclic(13)],
        14: [lambda: cyclic(14), lambda: dihedral(7)],
        15: [lambda: cyclic(15)],
        16: [
            lambda: cyclic(16),
            lambda: abelian([2, 8]),
            lambda: abelian([4, 4]),
            lambda: abelian([2, 2, 4]),
            lambda: abelian([2, 2, 2, 2]),
            lambda: dihedral(8),
            _semidihedral16,
            _modular16,
            lambda: _named(dicyclic(4), "Q16"),
            lambda: direct_product(dihedral(4), cyclic(2)),
            lambda: _named(direct_product(dicyclic(2), cyclic(2)), "Q8xZ2"),
            _pauli16,
            _z4_semi_z4,
            _z2z2_semi_z4,
        ],
    }


def _named(g: Group, name: str) -> Group:
    return Group(name, g.table, g.inverse, g.element_orders, g.abelian)


MAX_CATALOGUE_ORDER = 16
_catalogue_cache: dict[int, list[Group]] = {}


def groups_of_order(n: int) -> list[Group]:
    """All groups of order n up to isomorphism (n <= 16)."""
    if not 1 <= n <= MAX_CATALOGUE_ORDER:
        raise OrderUnsupported(
            f"built-in catalogue covers orders 1..{MAX_CATALOGUE_ORDER}; "
            f"import order-{n} groups from files instead"
        )
    if n not in _catalogue_cache:
        _catalogue_cache[n] = [build() for build in _catalogue_builders()[n]]
    return list(_catalogue_cache[n])


MAX_ABELIAN_ORDER = 64


def _partitions(n: int) -> list[list[int]]:
    if n == 0:
        return [[]]
    out = []

    def rec(rest: int, cap: int, acc: list[int]):
        if rest == 0:
            out.append(list(acc))
            return
        for k in range(min(rest, cap), 0, -1):
            acc.append(k)
            rec(rest - k, k, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _factorise(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_invariant_factor_lists(n: int) -> list[list[int]]:
    """Invariant-factor decompositions of all abelian groups of order n."""
    if n == 1:
        return [[1]]
    primes = sorted(_factorise(n).items())
    per_prime = [
        [sorted((p**k for k in part), reverse=True) for part in _partitions(e)]
        for p, e in primes
    ]
    out = []

    def rec(i: int, chosen: list[list[int]]):
        if i == len(per_prime):
            depth = max(len(c) for c in chosen)
            factors = []
            for d in range(depth):
                f = 1
                for c in chosen:
                    if d < len(c):
                        f *= c[d]
                factors.append(f)
            out.append(sorted(factors))
            return
        for opt in per_prime[i]:
            rec(i + 1, chosen + [opt])

    rec(0, [])
    uniq = {tuple(f) for f in out}
    return [list(f) for f in sorted(uniq)]


def abelian_groups_of_order(n: int) -> list[Group]:
    """All abelian groups of order n up to isomorphism (n <= 64)."""
    if not 1 <= n <= MAX_ABELIAN_ORDER:
        raise OrderUnsupported(
            f"abelian enumeration covers orders 1..{MAX_ABELIAN_ORDER}, got {n}"
        )
    return [abelian(f) for f in abelian_invariant_factor_lists(n)]


# ---------------------------------------------------------------------------
# Group specs and the table file format: first line n, then n lines of n
# integers in 0..n-1 (row g, column h holds g*h).


def parse_group_spec(spec: str) -> Group:
    """Build a group from a spec string.

    Supported: ``cyclic:N``, ``dihedral:K`` (order 2K), ``dicyclic:K`` (order
    4K), ``abelian:D1,D2,...``, ``file:PATH``, ``product:SPEC+SPEC``.
    """
    spec = spec.strip()
    tag, _, arg = spec.partition(":")
    tag = tag.lower()
    try:
        if tag == "cyclic":
            return cyclic(int(arg))
        if tag == "dihedral":
            return dihedral(int(arg))
        if tag == "dicyclic":
            return dicyclic(int(arg))
        if tag == "abelian":
            # any cyclic factor list is accepted here; factors violating the
            # invariant-factor chain are assembled as a direct product
            factors = [int(x) for x in arg.split(",") if x]
            if all(a > 0 and b % a == 0 for a, b in zip(factors, factors[1:])):
                return abelian(factors)
            g = cyclic(factors[0])
            for d in factors[1:]:
                g = direct_product(g, cyclic(d))
            return g
        if tag == "file":
            with open(arg, "r", encoding="utf-8") as fh:
                return parse_group_file(fh.read(), name=arg)
        if tag == "product":
            parts = arg.split("+")
            if len(parts) < 2:
                raise ParameterOutOfRange("product needs at least two factors")
            g = parse_group_spec(parts[0])
            for part in parts[1:]:
                g = direct_product(g, parse_group_spec(part))
            return g
    except ValueError as exc:
        if isinstance(exc, (ParameterOutOfRange, NotLatin, NoIdentity, NotAssociative)):
            raise
        raise ParameterOutOfRange(f"cannot parse group spec {spec!r}: {exc}") from exc
    raise ParameterOutOfRange(f"unknown group spec tag {tag!r} in {spec!r}")


def parse_group_file(text: str, name: str = "") -> Group:
    lines = [ln for ln in (l.split("#", 1)[0].strip() for l in text.splitlines()) if ln]
    if not lines:
        raise NotLatin("empty group file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise NotLatin(f"expected {n} table rows, found {len(lines) - 1}")
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    return group_from_table(rows, name=name or f"file-group{n}")


def format_group_file(g: Group) -> str:
    lines = [str(g.order)]
    lines += [" ".join(str(x) for x in row) for row in g.table]
    return "\n".join(lines) + "\n"

