"""Quine–McCluskey two-level logic minimisation.

The monitors in the paper's figures label transitions with compact
guard expressions such as ``a = (MCmd_rd & Addr & SCmd_accept)`` and
``c = !(a | b)``.  The synthesis core, however, computes transitions
per *concrete valuation* (the paper's ``for each e in 2^Sigma`` loop).
To recover figure-style symbolic monitors we group valuations by target
state and minimise each group's characteristic function.  This module
provides that minimisation: classic Quine–McCluskey prime-implicant
generation followed by Petrick's method for exact minimum cover (the
input sizes here are small — guards rarely exceed ten symbols).

The API works on minterm index sets; :func:`minimize_expr` adapts it to
:class:`~repro.logic.expr.Expr` over an ordered symbol list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.expr import (
    FALSE,
    TRUE,
    And,
    EventRef,
    Expr,
    Not,
    Or,
    PropRef,
)

__all__ = ["Implicant", "prime_implicants", "minimum_cover", "minimize_expr"]


class Implicant:
    """A product term over ``n`` variables.

    ``bits`` holds the required value of each fixed variable position;
    ``mask`` marks the don't-care positions.  An implicant covers a
    minterm ``m`` iff ``m & ~mask == bits``.
    """

    __slots__ = ("bits", "mask", "width")

    def __init__(self, bits: int, mask: int, width: int):
        object.__setattr__(self, "bits", bits & ~mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "width", width)

    def __setattr__(self, name, value):
        raise AttributeError("Implicant is immutable")

    def covers(self, minterm: int) -> bool:
        """True iff this product term evaluates to 1 on ``minterm``."""
        return (minterm & ~self.mask) == self.bits

    def literal_count(self) -> int:
        """Number of literals in the product term."""
        return self.width - bin(self.mask).count("1")

    def try_merge(self, other: "Implicant") -> Optional["Implicant"]:
        """Combine two terms differing in exactly one fixed bit."""
        if self.mask != other.mask:
            return None
        diff = self.bits ^ other.bits
        if diff and diff & (diff - 1) == 0:  # exactly one bit differs
            return Implicant(self.bits & ~diff, self.mask | diff, self.width)
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Implicant)
            and self.bits == other.bits
            and self.mask == other.mask
            and self.width == other.width
        )

    def __hash__(self):
        return hash((self.bits, self.mask, self.width))

    def __repr__(self):
        cells = []
        for position in range(self.width - 1, -1, -1):
            bit = 1 << position
            if self.mask & bit:
                cells.append("-")
            else:
                cells.append("1" if self.bits & bit else "0")
        return "".join(cells)


def prime_implicants(
    minterms: Iterable[int], dont_cares: Iterable[int], width: int
) -> List[Implicant]:
    """Compute all prime implicants of the function.

    ``minterms`` are the ON-set indices, ``dont_cares`` the DC-set; both
    are interpreted over ``width`` variables (bit ``width-1`` is the
    first variable).
    """
    terms: Set[Tuple[int, int]] = {
        (m, 0) for m in set(minterms) | set(dont_cares)
    }
    # Positions a term may merge across: normally ``width``, widened
    # for out-of-range indices so every one-bit neighbour is found.
    span = max([width] + [bits.bit_length() for bits, _ in terms])
    positions = (1 << span) - 1
    primes: Set[Tuple[int, int]] = set()
    while terms:
        # Two terms merge iff they share a don't-care mask and differ
        # in one fixed bit; looking each term's partner up by that bit
        # (set in the partner, clear in the term) finds every pair once.
        merged: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        for term in terms:
            bits, mask = term
            free = positions & ~(bits | mask)
            while free:
                bit = free & -free
                free ^= bit
                partner = (bits | bit, mask)
                if partner in terms:
                    merged.add((bits, mask | bit))
                    used.add(term)
                    used.add(partner)
        primes |= terms - used
        terms = merged
    return [
        Implicant(bits, mask, width)
        for bits, mask in sorted(primes, key=lambda t: (t[1], t[0]))
    ]


def minimum_cover(
    minterms: Sequence[int], primes: Sequence[Implicant]
) -> List[Implicant]:
    """Select a minimum-cardinality subset of ``primes`` covering all minterms.

    Essential primes are extracted first; the residue is solved exactly
    with Petrick's method (product-of-sums expansion), breaking ties by
    total literal count.
    """
    remaining = set(minterms)
    chosen: List[Implicant] = []
    chart: Dict[int, List[int]] = {
        m: [i for i, p in enumerate(primes) if p.covers(m)] for m in remaining
    }
    for m, coverers in chart.items():
        if not coverers:
            raise ValueError(f"minterm {m} not covered by any prime implicant")

    # Essential primes: sole coverer of some minterm.
    changed = True
    while changed and remaining:
        changed = False
        for m in list(remaining):
            if len(chart[m]) == 1:
                essential = primes[chart[m][0]]
                if essential not in chosen:
                    chosen.append(essential)
                remaining -= {x for x in remaining if essential.covers(x)}
                changed = True
                break

    if not remaining:
        return chosen

    # Petrick's method on the residue.
    products: Set[FrozenSet[int]] = {frozenset()}
    for m in sorted(remaining):
        coverers = chart[m]
        expanded: Set[FrozenSet[int]] = set()
        for product in products:
            for index in coverers:
                expanded.add(product | {index})
        # Prune non-minimal products (supersets of others).
        minimal = {
            p
            for p in expanded
            if not any(q < p for q in expanded)
        }
        products = minimal
    best = min(
        products,
        key=lambda p: (len(p), sum(primes[i].literal_count() for i in p)),
    )
    for index in sorted(best):
        if primes[index] not in chosen:
            chosen.append(primes[index])
    return chosen


def _implicant_to_expr(term: Implicant, atoms: Sequence[Expr]) -> Expr:
    """Render a product term over the ordered ``atoms``."""
    literals: List[Expr] = []
    width = term.width
    for position, atom in enumerate(atoms):
        bit = 1 << (width - 1 - position)
        if term.mask & bit:
            continue
        literals.append(atom if term.bits & bit else Not(atom))
    if not literals:
        return TRUE
    if len(literals) == 1:
        return literals[0]
    return And(tuple(literals))


def minimize_expr(
    minterms: Iterable[int],
    atoms: Sequence[Expr],
    dont_cares: Iterable[int] = (),
) -> Expr:
    """Minimise the function given by ON-set ``minterms`` over ``atoms``.

    ``atoms`` is the ordered variable list; minterm bit ``len(atoms)-1-i``
    corresponds to ``atoms[i]``.  Returns a sum-of-products
    :class:`~repro.logic.expr.Expr`.
    """
    width = len(atoms)
    on_set = sorted(set(minterms))
    dc_set = sorted(set(dont_cares) - set(on_set))
    if not on_set:
        return FALSE
    if len(on_set) + len(dc_set) == 1 << width:
        return TRUE
    primes = prime_implicants(on_set, dc_set, width)
    cover = minimum_cover(on_set, primes)
    terms = [_implicant_to_expr(t, atoms) for t in cover]
    if len(terms) == 1:
        return terms[0]
    return Or(tuple(terms))
