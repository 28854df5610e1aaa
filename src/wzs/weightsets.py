"""Weight sets A in [1, n-1]: cubes and squares of units, units, {+-1}, {1}.

A weight set is materialized eagerly as a sorted tuple plus a frozenset for
O(1) membership; moduli are desk scale, so memory is a non-issue and the
dynamic programming inner loops want fast iteration.  The set alone decides
the mask form of the kernels (uses_orbits) and owns what depends on it: the
DP's step and each residue's bit, and the walks' orbit rows, None where they
have none.  Derived tables (orbit ids and the k least members of the orbits,
from one coset pass; the orbit columns and rows) and the step are built
lazily, once per instance; kind constructors share one per modulus.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .errors import Record
from .modarith import factor, units

MAX_ROW_ORBITS = 128  # the walks use orbit rows up to k orbits: k*k*k bits


class WeightSet(Record):
    """A weight set; the members and every table are derived, not fields."""

    _fields = ("modulus", "elements", "kind", "is_subgroup")

    def __init__(self, modulus: int, elements: tuple[int, ...], kind: str,
                 is_subgroup: bool) -> None:
        self.modulus, self.elements, self.kind = modulus, elements, kind
        self.is_subgroup, self.members = is_subgroup, frozenset(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "n": self.modulus,
            "kind": self.kind,
            "elements": list(self.elements),
            "is_subgroup": self.is_subgroup,
        }

    @cached_property
    def _cosets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(orbit_id, least): orbit_id[x] is the index of the coset A*x, and
        least[i] the least member of coset i; least is increasing, 0 first."""
        n = self.modulus
        if not self.is_subgroup:  # the loop below would give wrong minima
            raise ValueError(f"coset minima need a subgroup; {self.kind} mod {n} is not one")
        # The cosets A*x partition Z_n and are met in increasing order, so the
        # first unseen x (id 0, which only {0} keeps) is the least member of
        # its coset, and ids given as cosets are met rise with least members.
        oid, least = [0] * n, [0]
        for x in range(1, n):
            if not oid[x]:
                i = len(least)
                least.append(x)
                for w in self.elements:
                    oid[w * x % n] = i
        return tuple(oid), tuple(least)

    @cached_property
    def orbit_id(self) -> tuple[int, ...]:
        """orbit_id[x] = index of the coset A*x, numbered by least member, so
        {0} is orbit 0; only meaningful when A is a subgroup."""
        return self._cosets[0]

    @cached_property
    def orbit_count(self) -> int:
        """The number k of orbits A*x, {0} included; A must be a subgroup."""
        return len(self._cosets[1])

    @cached_property
    def uses_orbits(self) -> bool:
        """Whether the kernels carry masks over orbit ids rather than n-bit
        residue masks: for a subgroup with k orbits, when k*k < n or k <=
        MAX_ROW_ORBITS, so the DP reads the keys of the walks' rows.  Per
        has_weighted_zero_subseq call (1 to 8 terms, warm), orbit masks took
        4.7 against 7.3 us on the cubes mod 63 and 5.9 against 6.9 mod 126;
        residue masks win only for |A| <= 2 (3.6 against 8.4 us on {1} mod
        100), which reach the DP once per search and in `check`.  A set
        that is not a subgroup never builds the coset table."""
        if not self.is_subgroup:
            return False
        k = self.orbit_count
        return k * k < self.modulus or k <= MAX_ROW_ORBITS

    @cached_property
    def orbit_columns(self) -> tuple[tuple[int, ...], ...]:
        """orbit_columns[q][o] = mask of the orbits met by r + y for r in
        orbit o and y in orbit q.  Since a*(r + b*y) = a*r + ab*y, this is
        the mask of r + A*y, and one y per orbit gives it, in O(n)."""
        oid, least = self._cosets
        cols = []
        for y in least:
            acc = [0] * len(least)
            for o, p in zip(oid, oid[y:] + oid[:y]):
                acc[o] |= 1 << p
            cols.append(tuple(acc))
        return tuple(cols)

    @cached_property
    def step(self):
        """The DP's step, built once: step(acc, x, src) is acc together with
        every r + a*x for r in src and a in A.  On orbit masks it returns the
        full mask at once when src or acc is full, since r + A*x over every
        r is every residue; otherwise it ORs into acc column orbit_id[x] of
        each orbit in src (r + A*x's orbits), four orbits a lookup:
        tabs[c][v] is the OR of the column's entries 4c + b over the set
        bits b of v.  A column's tables are built on the first step by a
        term of its orbit that does not return at once, so a set holds at
        most k*ceil(k/4)*16 masks; a build costs about four full-mask steps
        of a loop over the bits of src, and a warm call of 1 to 8 terms took
        9.4 against 19.5 us on {1} mod 100 and 6.5 against 13.0 on the cubes
        mod 126 with that loop.  On residue masks it ORs one rotation of src
        per distinct a*x, with x's images sorted on x's first step, so there
        is no O(n*|A|) set-up."""
        if not self.uses_orbits:
            n, elements, shifts = self.modulus, self.elements, {}
            full = (1 << n) - 1

            def step(acc: int, x: int, src: int) -> int:
                images = shifts.get(x)
                if images is None:
                    images = shifts[x] = sorted({a * x % n for a in elements})
                for s in images:
                    acc |= ((src << s) | (src >> (n - s))) & full if s else src
                return acc

            return step
        cols, oid = self.orbit_columns, self.orbit_id
        tables = [None] * len(cols)
        full = (1 << len(cols)) - 1

        def step(acc: int, x: int, src: int) -> int:
            if src == full or acc == full:  # r + A*x over every r is every residue
                return full
            q = oid[x]
            tabs = tables[q]
            if tabs is None:  # v's bits 0, 1, 2, 3 pick a, b, c, d
                p = cols[q] + (0, 0, 0)
                tabs = tables[q] = [[h | lo for h in (0, c, d, c | d) for lo in (0, a, b, a | b)]
                                    for a, b, c, d in zip(p[::4], p[1::4], p[2::4], p[3::4])]
            for t in tabs:
                if not src:
                    break
                acc |= t[src & 15]
                src >>= 4
            return acc

        return step

    @cached_property
    def bit(self):
        """bit[t]: the bit of residue t in the DP's masks."""
        return self.orbit_id if self.uses_orbits else range(self.modulus)

    @cached_property
    def orbit_rows(self) -> tuple[int, ...] | None:
        """orbit_rows[o] holds orbit_columns[q][o] in field q, k bits wide;
        None where the walks have no rows: without orbit masks, or past
        MAX_ROW_ORBITS orbits."""
        if not self.uses_orbits or self.orbit_count > MAX_ROW_ORBITS:
            return None
        cols, k = self.orbit_columns, len(self.orbit_columns)
        return tuple(sum(c[o] << q * k for q, c in enumerate(cols)) for o in range(k))

    @cached_property
    def unit_coset_reps(self) -> tuple[int, ...]:
        """One unit per coset of A in the unit group (its least member);
        only meaningful when A is a subgroup."""
        return tuple(x for x in self._cosets[1] if math.gcd(x, self.modulus) == 1)


def _is_unit_subgroup(elems: set[int], n: int) -> bool:
    # A finite set of units containing 1 and closed under multiplication is a
    # group; a closed set with a non-unit (such as {1, 3} mod 6) is not.
    return (
        1 in elems
        and all(math.gcd(a, n) == 1 for a in elems)
        and all(a * b % n in elems for a in elems for b in elems)
    )


def _make(n: int, elems: set[int], kind: str, subgroup: bool = False) -> WeightSet:
    if n < 2:
        raise ValueError("weight sets need modulus >= 2")
    if not elems:
        raise ValueError("weight set must be nonempty")
    bad = [x for x in elems if not 1 <= x <= n - 1]
    if bad:
        raise ValueError(f"weights {sorted(bad)} outside [1, {n - 1}]")
    return WeightSet(
        modulus=n,
        elements=tuple(sorted(elems)),
        kind=kind,
        is_subgroup=subgroup or _is_unit_subgroup(elems, n),
    )


# The kind constructors below build subgroups of the units by construction
# (images of the unit group, or {1, -1}), so they skip the closure check, and
# each returns one shared instance per modulus so its tables are built once.


@lru_cache(maxsize=512)
def cubes(n: int) -> WeightSet:
    """Cubes of the units mod n; equals the full unit group when every odd
    prime factor is 2 mod 3."""
    return _make(n, {pow(a, 3, n) for a in units(n)}, "cubes", subgroup=True)


@lru_cache(maxsize=512)
def squares(n: int) -> WeightSet:
    """Squares of the units mod n."""
    return _make(n, {pow(a, 2, n) for a in units(n)}, "squares", subgroup=True)


@lru_cache(maxsize=512)
def units_weights(n: int) -> WeightSet:
    """The full unit group as a weight set."""
    return _make(n, units(n), "units", subgroup=True)


@lru_cache(maxsize=512)
def pm_one(n: int) -> WeightSet:
    """{1, n-1}; collapses to {1} when n = 2."""
    return _make(n, {1, n - 1}, "pm_one", subgroup=True)


@lru_cache(maxsize=512)
def singleton_one(n: int) -> WeightSet:
    """{1}: plain (unweighted) zero-sums."""
    return _make(n, {1}, "singleton_one", subgroup=True)


def custom(n: int, elems: list[int]) -> WeightSet:
    """A user-supplied weight set; deduplicates and sorts."""
    return _make(n, set(elems), "custom")


_FACTORIES = {
    "cubes": cubes,
    "squares": squares,
    "units": units_weights,
    "pm_one": pm_one,
    "singleton_one": singleton_one,
}


def by_kind(kind: str, n: int, elems: list[int] | None = None) -> WeightSet:
    """Construct a weight set from its kind tag (CLI aliases accepted)."""
    alias = {"pm1": "pm_one", "one": "singleton_one"}.get(kind, kind)
    if alias == "custom":
        if not elems:
            raise ValueError("custom weight set needs explicit elements")
        return custom(n, elems)
    if alias not in _FACTORIES:
        raise ValueError(f"unknown weight kind {kind!r}")
    return _FACTORIES[alias](n)


def reduced_alphabet(a: WeightSet) -> tuple[list[int], list[int]]:
    """(first symbols, alphabet) for enumerating multisets up to equivalence.

    For subgroup weight sets every nonzero residue is replaced by its
    coset-minimal representative, ordered by (gcd(x, n), x).  A unit
    scaling takes a term of least gcd g to g, a divisor (coset-minimal as 1
    is a weight) and the least symbol of gcd g; every other term has gcd at
    least g.  So each class starts at a divisor d in this order, and the
    branch of d walks only terms of gcd at least d.  Non-subgroup sets get
    no reduction.
    """
    n = a.modulus
    if a.is_subgroup:
        symbols = sorted(a._cosets[1][1:], key=lambda x: (math.gcd(x, n), x))
        firsts = [d for d in factor(n).divisors() if d < n]
        missing = set(firsts) - set(symbols)
        if missing:
            raise RuntimeError(f"divisor anchors {missing} not coset-minimal")
        return firsts, symbols
    symbols = list(range(1, n))
    return list(symbols), symbols
