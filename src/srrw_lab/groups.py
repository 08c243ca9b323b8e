"""Finite groups, step distributions, and the structural predicates on them.

Elements are dense integer indices in ``[0, order)`` with the identity always
at index 0.  Cyclic and hypercube groups use arithmetic/bitwise fast paths so
they scale far beyond what a multiplication table could hold; small groups
(order <= 4096) additionally cache a dense table for matrix work.

Canonical element notation (used by config files and CSV output):

* cyclic        -- the residue as a decimal string, e.g. ``"2"``
* hypercube     -- a bitstring with coordinate 1 first, e.g. ``"0110"``
* symmetric     -- cycle notation on 1-based points, e.g. ``"(132)"``, ``"e"``
* lamplighter   -- ``"<lamp bitstring>,<position>"`` with lamp 0 first
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, ReducibilityError

TABLE_CAP = 4096  # largest order for which a dense multiplication table is built
ENUMERABLE_CAP = 1 << 22  # largest order we will iterate element-by-element
SYMMETRIC_MAX_DEGREE = 8
LAMPLIGHTER_DEFAULT_MAX_ORDER = 1 << 24
PROB_ATOL = 1e-12


def _rot_bits(x: int, s: int, width: int) -> int:
    """Cyclic shift so that bit i of the result is bit (i - s) mod width of x."""
    s %= width
    if s == 0:
        return x
    mask = (1 << width) - 1
    return ((x << s) | (x >> (width - s))) & mask


class FiniteGroup:
    """A finite group on indices 0..order-1 with identity at index 0."""

    kind: str
    order: int

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    @property
    def identity(self) -> int:
        return 0

    # -- bulk operations ---------------------------------------------------

    @property
    def enumerable(self) -> bool:
        return self.order <= ENUMERABLE_CAP

    @property
    def has_table(self) -> bool:
        return self.order <= TABLE_CAP

    @cached_property
    def table(self) -> np.ndarray:
        """Dense multiplication table; only for order <= TABLE_CAP."""
        if not self.has_table:
            raise CapacityError(
                f"multiplication table needs order <= {TABLE_CAP}, got {self.order}"
            )
        n = self.order
        t = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(n):
                t[a, b] = self.mul(a, b)
        return t

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of index arrays (broadcasting allowed)."""
        if self.has_table:
            return self.table[a, b]
        raise CapacityError(f"no vectorized product for {self.kind} of order {self.order}")

    def generators(self) -> list[int]:
        """A small generating set, used to accelerate orbit computations."""
        if not self.enumerable:
            raise CapacityError("generators() needs an enumerable group")
        return list(range(1, self.order))

    # -- naming ------------------------------------------------------------

    def element_name(self, a: int) -> str:
        return str(a)

    def element_index(self, name: str) -> int:
        try:
            a = int(name)
        except ValueError as exc:
            raise DomainError(f"bad element name {name!r} for {self.kind}") from exc
        if not 0 <= a < self.order:
            raise DomainError(f"element {a} out of range for order {self.order}")
        return a

    def describe(self) -> str:
        return f"{self.kind}({self.order})"


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int):
        if n < 2:
            raise ParameterError(f"cyclic group needs L >= 2, got {n}")
        self.kind = "cyclic"
        self.order = n

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return (-a) % self.order

    def mul_vec(self, a, b):
        return (np.asarray(a) + np.asarray(b)) % self.order

    def generators(self):
        return [1]

    def describe(self):
        return f"cyclic(L={self.order})"


class HypercubeGroup(FiniteGroup):
    def __init__(self, d: int):
        if d < 1:
            raise ParameterError(f"hypercube needs d >= 1, got {d}")
        self.kind = "hypercube"
        self.d = d
        self.order = 1 << d

    def mul(self, a, b):
        return a ^ b

    def inv(self, a):
        return a

    def mul_vec(self, a, b):
        if self.d > 63:
            raise CapacityError("vectorized hypercube ops need d <= 63")
        return np.asarray(a) ^ np.asarray(b)

    def generators(self):
        return [1 << k for k in range(self.d)]

    def basis_element(self, k: int) -> int:
        """e_k with the 1 in coordinate k (1-based)."""
        if not 1 <= k <= self.d:
            raise ParameterError(f"coordinate must be in 1..{self.d}")
        return 1 << (k - 1)

    def element_name(self, a):
        return "".join(str((a >> i) & 1) for i in range(self.d))

    def element_index(self, name):
        if len(name) != self.d or set(name) - {"0", "1"}:
            raise DomainError(f"bad hypercube bitstring {name!r} (need length {self.d})")
        return sum(1 << i for i, c in enumerate(name) if c == "1")

    def describe(self):
        return f"hypercube(d={self.d})"


class SymmetricGroup(FiniteGroup):
    """S_m on points 1..m; products compose left factor first: (s*t)(i) = t(s(i))."""

    def __init__(self, m: int):
        if not 1 <= m <= SYMMETRIC_MAX_DEGREE:
            raise ParameterError(
                f"symmetric group supported for 1 <= m <= {SYMMETRIC_MAX_DEGREE}, got {m}"
            )
        self.kind = "symmetric"
        self.m = m
        self.perms = list(itertools.permutations(range(m)))  # lexicographic, id first
        self.order = len(self.perms)
        self._index = {p: i for i, p in enumerate(self.perms)}

    def mul(self, a, b):
        pa, pb = self.perms[a], self.perms[b]
        return self._index[tuple(pb[pa[i]] for i in range(self.m))]

    def inv(self, a):
        pa = self.perms[a]
        out = [0] * self.m
        for i, j in enumerate(pa):
            out[j] = i
        return self._index[tuple(out)]

    def generators(self):
        if self.m == 1:
            return []
        swap = self.perm_index(tuple([1, 0] + list(range(2, self.m))))
        cyc = self.perm_index(tuple(list(range(1, self.m)) + [0]))
        return [swap, cyc] if self.m > 2 else [swap]

    def perm_index(self, perm: tuple) -> int:
        return self._index[tuple(perm)]

    def from_cycles(self, *cycles) -> int:
        """Element from cycles of 1-based points, e.g. from_cycles((1,3,2))."""
        img = list(range(self.m))
        for cyc in cycles:
            pts = [p - 1 for p in cyc]
            if any(not 0 <= p < self.m for p in pts) or len(set(pts)) != len(pts):
                raise DomainError(f"bad cycle {cyc} for S_{self.m}")
            for i, p in enumerate(pts):
                img[p] = pts[(i + 1) % len(pts)]
        return self._index[tuple(img)]

    def element_name(self, a):
        perm = self.perms[a]
        seen = [False] * self.m
        parts = []
        for start in range(self.m):
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = perm[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = perm[nxt]
            parts.append("(" + "".join(str(p + 1) for p in cyc) + ")")
        return "".join(parts) if parts else "e"

    def element_index(self, name):
        name = name.strip()
        if name in ("e", "()", ""):
            return 0
        if not (name.startswith("(") and name.endswith(")")):
            raise DomainError(f"bad cycle notation {name!r}")
        cycles = []
        for part in name[1:-1].split(")("):
            pts = tuple(int(c) for c in part.replace(" ", ""))
            if len(pts) < 2:
                raise DomainError(f"bad cycle notation {name!r}")
            cycles.append(pts)
        return self.from_cycles(*cycles)

    def describe(self):
        return f"symmetric(m={self.m})"


class LamplighterGroup(FiniteGroup):
    """Lamp configurations over a cycle of length L plus a walker position.

    Element (f, j) has index f*L + j (lamp bitstring major, position minor).
    Operation: (f, j)*(h, k) = (phi, j+k) with phi(i) = f(i) XOR h(i - j).
    """

    def __init__(self, L: int, max_order: int = LAMPLIGHTER_DEFAULT_MAX_ORDER):
        if L < 2:
            raise ParameterError(f"lamplighter needs L >= 2, got {L}")
        order = L * (1 << L)
        if order > max_order:
            raise CapacityError(
                f"lamplighter order L*2^L = {order} exceeds cap {max_order}"
            )
        self.kind = "lamplighter"
        self.L = L
        self.order = order

    def encode(self, lamps: int, pos: int) -> int:
        return lamps * self.L + pos

    def decode(self, a: int) -> tuple[int, int]:
        return divmod(a, self.L)

    def mul(self, a, b):
        fa, ja = self.decode(a)
        fb, jb = self.decode(b)
        lamps = fa ^ _rot_bits(fb, ja, self.L)
        return self.encode(lamps, (ja + jb) % self.L)

    def inv(self, a):
        fa, ja = self.decode(a)
        return self.encode(_rot_bits(fa, -ja, self.L), (-ja) % self.L)

    def mul_vec(self, a, b):
        L = self.L
        fa, ja = np.divmod(np.asarray(a, dtype=np.int64), L)
        fb, jb = np.divmod(np.asarray(b, dtype=np.int64), L)
        mask = (1 << L) - 1
        rot = ((fb << ja) | (fb >> (L - ja))) & mask  # ja < L <= 19 so shifts are safe
        return (fa ^ rot) * L + (ja + jb) % L

    def generators(self):
        return [self.encode(1, 0), self.encode(0, 1)]

    def element_name(self, a):
        lamps, pos = self.decode(a)
        bits = "".join(str((lamps >> i) & 1) for i in range(self.L))
        return f"{bits},{pos}"

    def element_index(self, name):
        name = name.strip().lstrip("(").rstrip(")")
        try:
            bits, pos_s = name.split(",")
            pos = int(pos_s)
        except ValueError as exc:
            raise DomainError(f"bad lamplighter name {name!r}") from exc
        bits = bits.strip()
        if len(bits) != self.L or set(bits) - {"0", "1"}:
            raise DomainError(f"bad lamp bitstring {bits!r} (need length {self.L})")
        if not 0 <= pos < self.L:
            raise DomainError(f"lamplighter position {pos} out of range")
        lamps = sum(1 << i for i, c in enumerate(bits) if c == "1")
        return self.encode(lamps, pos)

    def describe(self):
        return f"lamplighter(L={self.L})"


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table; identity must sit at index 0."""

    def __init__(self, table: np.ndarray, check: bool = True, rng_seed: int = 0):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ParameterError("Cayley table must be square")
        n = table.shape[0]
        if n < 1 or table.min() < 0 or table.max() >= n:
            raise ParameterError("Cayley table entries out of range")
        self.kind = "table"
        self.order = n
        self._table = table
        if check:
            self._check_axioms(rng_seed)

    def _check_axioms(self, rng_seed: int):
        t = self._table
        n = self.order
        idx = np.arange(n)
        if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
            raise ParameterError("index 0 is not a two-sided identity")
        # every row/column a permutation => inverses exist (Latin square + assoc)
        for a in range(n):
            if len(set(t[a])) != n or len(set(t[:, a])) != n:
                raise ParameterError(f"row/column {a} is not a permutation")
        if n <= 256:
            ok = np.array_equal(t[t, :], t[:, t])
        else:
            rng = np.random.default_rng(rng_seed)
            a, b, c = rng.integers(0, n, size=(3, 100_000))
            ok = np.array_equal(t[t[a, b], c], t[a, t[b, c]])
        if not ok:
            raise ParameterError("associativity fails")

    @cached_property
    def table(self) -> np.ndarray:
        return self._table

    def mul(self, a, b):
        return int(self._table[a, b])

    def inv(self, a):
        return int(np.nonzero(self._table[a] == 0)[0][0])

    def mul_vec(self, a, b):
        return self._table[a, b]


def _size_param(kind: str, param) -> int:
    # bool is an int subclass, and int() would silently truncate 2.5 or parse "3"
    if isinstance(param, bool) or not isinstance(param, (int, np.integer)):
        raise ParameterError(f"{kind} group size must be an integer, got {param!r}")
    return int(param)


def make_group(kind: str, param=None, **kwargs) -> FiniteGroup:
    """Factory for the supported group families."""
    if kind == "cyclic":
        return CyclicGroup(_size_param(kind, param))
    if kind == "hypercube":
        return HypercubeGroup(_size_param(kind, param))
    if kind == "symmetric":
        return SymmetricGroup(_size_param(kind, param))
    if kind == "lamplighter":
        return LamplighterGroup(_size_param(kind, param), **kwargs)
    if kind == "table":
        return TableGroup(param, **kwargs)
    raise ParameterError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# Step distributions
# ---------------------------------------------------------------------------


class StepDistribution:
    """Probability measure on a group, stored sparsely on its support."""

    def __init__(self, group: FiniteGroup, items):
        self.group = group
        pairs = sorted((int(g), float(p)) for g, p in dict(items).items())
        for g, p in pairs:
            if not 0 <= g < group.order:
                raise DomainError(f"element {g} out of range")
            if p < 0:
                raise DomainError(f"negative probability {p} at element {g}")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > PROB_ATOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        # support membership is exact: strictly positive mass only
        self.items = tuple((g, p) for g, p in pairs if p > 0.0)

    @property
    def support(self) -> tuple:
        return tuple(g for g, _ in self.items)

    def prob(self, g: int) -> float:
        for h, p in self.items:
            if h == g:
                return p
        return 0.0

    @cached_property
    def dense(self) -> np.ndarray:
        if not self.group.enumerable:
            raise CapacityError("dense vector needs an enumerable group")
        out = np.zeros(self.group.order)
        for g, p in self.items:
            out[g] = p
        return out

    @staticmethod
    def from_names(group: FiniteGroup, named: dict) -> "StepDistribution":
        return StepDistribution(
            group, {group.element_index(k): v for k, v in named.items()}
        )


def simple_cycle_mu(group: CyclicGroup) -> StepDistribution:
    """mu(+1) = mu(-1) = 1/2 on a cycle."""
    if group.kind != "cyclic":
        raise DomainError("simple_cycle_mu needs a cyclic group")
    return StepDistribution(group, {1: 0.5, group.order - 1: 0.5})


def lazy_cycle_mu(group: CyclicGroup) -> StepDistribution:
    """mu(0) = 1/2, mu(+1) = mu(-1) = 1/4 on a cycle."""
    if group.kind != "cyclic":
        raise DomainError("lazy_cycle_mu needs a cyclic group")
    return StepDistribution(group, {0: 0.5, 1: 0.25, group.order - 1: 0.25})


def lazy_hypercube_mu(group: HypercubeGroup) -> StepDistribution:
    """mu(e) = 1/2 and mu(e_k) = 1/(2d): the lazy coordinate-flip walk."""
    if group.kind != "hypercube":
        raise DomainError("lazy_hypercube_mu needs a hypercube group")
    d = group.d
    items = {0: 0.5}
    for k in range(1, d + 1):
        items[group.basis_element(k)] = 0.5 / d
    return StepDistribution(group, items)


def lamplighter_example_mu(group: LamplighterGroup) -> StepDistribution:
    """Lazy lamplighter kernel: rest 1/2, toggle lamp 1/4, step left/right 1/8.

    For L = 2 the two moves coincide, so their masses merge.
    """
    if group.kind != "lamplighter":
        raise DomainError("lamplighter_example_mu needs a lamplighter group")
    items: dict[int, float] = {}
    for g, p in (
        (group.encode(0, 0), 0.5),
        (group.encode(1, 0), 0.25),
        (group.encode(0, 1), 0.125),
        (group.encode(0, group.L - 1), 0.125),
    ):
        items[g] = items.get(g, 0.0) + p
    return StepDistribution(group, items)


def uniform_mu(group: FiniteGroup) -> StepDistribution:
    if not group.enumerable:
        raise CapacityError("uniform_mu needs an enumerable group")
    p = 1.0 / group.order
    return StepDistribution(group, {g: p for g in range(group.order)})


# ---------------------------------------------------------------------------
# Transition matrix and certificates
# ---------------------------------------------------------------------------


def transition_matrix(group: FiniteGroup, mu: StepDistribution) -> np.ndarray:
    """Row-stochastic matrix P(x, y) = mu(x^-1 * y); doubly stochastic."""
    if mu.group is not group:
        raise DomainError("mu is defined on a different group")
    if group.order > TABLE_CAP:
        raise CapacityError(
            f"transition matrix needs order <= {TABLE_CAP}, got {group.order}"
        )
    n = group.order
    P = np.zeros((n, n))
    for g, p in mu.items:
        # column pattern of a deterministic right-step by g
        for x in range(n):
            P[x, group.mul(x, g)] += p
    return P


@dataclass(frozen=True)
class IrreducibilityCertificate:
    m_star: int
    eps_star: float


def irreducibility_certificate(P: np.ndarray) -> IrreducibilityCertificate:
    """Minimal m with P^m entrywise positive, plus the min entry at that power.

    For doubly stochastic P positivity is monotone in the exponent, so a
    doubling search followed by bisection finds the minimal exponent.  If no
    exponent up to |G|^2 works the chain is reducible or periodic.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    bound = n * n

    def boolmul(A, B):
        return (A.astype(np.float64) @ B.astype(np.float64)) > 0.0

    powers = {1: P > 0.0}

    def boolpow(m: int) -> np.ndarray:
        if m in powers:
            return powers[m]
        half = boolpow(m // 2)
        out = boolmul(half, half)
        if m % 2:
            out = boolmul(out, powers[1])
        powers[m] = out
        return out

    hi = 1
    while hi <= bound and not boolpow(hi).all():
        hi *= 2
    if hi > bound:
        if not boolpow(bound).all():
            raise ReducibilityError(
                f"P^m never entrywise positive for m <= {bound}: chain reducible or periodic"
            )
        hi = bound
    lo = hi // 2  # positivity fails at lo (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if boolpow(mid).all():
            hi = mid
        else:
            lo = mid
    eps = float(np.linalg.matrix_power(P, hi).min())
    return IrreducibilityCertificate(m_star=hi, eps_star=eps)


# ---------------------------------------------------------------------------
# Predicates and conjugacy
# ---------------------------------------------------------------------------

CONJUGACY_CAP = 10_000


def conjugacy_classes(group: FiniteGroup) -> list[list[int]]:
    """Partition of the group into conjugacy classes (orbits of g -> x^-1 g x)."""
    if group.order > CONJUGACY_CAP:
        raise CapacityError(f"conjugacy classes need order <= {CONJUGACY_CAP}")
    gens = group.generators()
    gens = gens + [group.inv(g) for g in gens]
    seen = [False] * group.order
    classes = []
    for start in range(group.order):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.mul(group.inv(g), group.mul(x, g))
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    frontier.append(y)
        classes.append(sorted(orbit))
    return classes


def subgroup_closure(group: FiniteGroup, elements) -> frozenset:
    """Subgroup generated by ``elements`` (BFS over products and inverses)."""
    if not group.enumerable:
        raise CapacityError("subgroup closure needs an enumerable group")
    gens = {int(g) for g in elements}
    gens |= {group.inv(g) for g in gens}
    members = {group.identity} | gens
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def _product_set(group, A, B):
    return {group.mul(a, b) for a in A for b in B}


def gamma_gamma_inv_closure(group: FiniteGroup, support) -> frozenset:
    """Subgroup generated by {a * b^-1 : a, b in support}."""
    inv = [group.inv(g) for g in support]
    return subgroup_closure(group, _product_set(group, support, inv))


def gamma_inv_gamma_closure(group: FiniteGroup, support) -> frozenset:
    inv = [group.inv(g) for g in support]
    return subgroup_closure(group, _product_set(group, inv, support))


@dataclass(frozen=True)
class DistributionPredicates:
    symmetric: bool
    class_function: bool
    support_symmetric: bool  # case (i)
    support_union_of_classes: bool  # case (ii)
    identity_in_support: bool  # case (iii)
    gamma_gamma_inv_generates: bool
    gamma_inv_gamma_generates: bool


def distribution_predicates(group: FiniteGroup, mu: StepDistribution) -> DistributionPredicates:
    """Evaluate the structural conditions the mixing theorems hinge on."""
    support = set(mu.support)
    symmetric = all(abs(p - mu.prob(group.inv(g))) <= PROB_ATOL for g, p in mu.items)
    identity_in_support = group.identity in support

    if group.order > CONJUGACY_CAP:
        raise CapacityError("predicates need order <= %d" % CONJUGACY_CAP)
    class_function = True
    support_union = True
    gens = group.generators()
    gens = gens + [group.inv(g) for g in gens]
    for g, p in mu.items:
        for h in gens:
            conj = group.mul(group.inv(h), group.mul(g, h))
            if abs(mu.prob(conj) - p) > PROB_ATOL:
                class_function = False
            if conj not in support:
                support_union = False

    support_symmetric = {group.inv(g) for g in support} == support
    ggi = gamma_gamma_inv_closure(group, support)
    gig = gamma_inv_gamma_closure(group, support)
    return DistributionPredicates(
        symmetric=symmetric,
        class_function=class_function,
        support_symmetric=support_symmetric,
        support_union_of_classes=support_union,
        identity_in_support=identity_in_support,
        gamma_gamma_inv_generates=len(ggi) == group.order,
        gamma_inv_gamma_generates=len(gig) == group.order,
    )
