"""Bit-parallel kernels pinned to their per-valuation references.

``AlphabetCodec.truth_table`` evaluates a guard once over ``2^k``-bit
integers, the minimiser lifts that to every ``Chk_evt`` assignment at
once, and ``prime_implicants`` merges terms by partner lookup; each
replaced a per-item loop.  The loops survive here, in the tests only,
as the references the kernels must reproduce exactly — values, prime
sets and the first error a short-circuit evaluation would raise.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExprError
from repro.logic.codec import AlphabetCodec, symbol_patterns
from repro.logic.expr import (
    FALSE,
    TRUE,
    And,
    EventRef,
    Not,
    Or,
    PropRef,
    ScoreboardCheck,
    substitute_checks,
)
from repro.logic.qm import Implicant, prime_implicants
from repro.monitor.minimize import _assignment_bitmaps

_NAMES = [f"s{i:02d}" for i in range(12)]
#: Symbols no codec below contains: they must read false everywhere.
_FOREIGN = ["zz_out", "zz_far"]


def _closure_table(codec, expr):
    """The per-valuation reference: one compiled-closure call per mask.

    Returns the bitmap, or the text of the first error raised (masks
    ascending, short-circuit evaluation within a mask).
    """
    fn = expr.compile(codec)
    bitmap = 0
    for mask in range(codec.size):
        try:
            if fn(mask, None):
                bitmap |= 1 << mask
        except ExprError as error:
            return str(error)
    return bitmap


def _kernel_table(codec, expr):
    try:
        return codec.truth_table(expr)
    except ExprError as error:
        return str(error)


@st.composite
def _guards(draw, names, depth=4, checks=False):
    """Random guard trees: constants, nested ``Not``, empty and
    single-argument ``And``/``Or``, foreign symbols and (optionally)
    ``Chk_evt`` atoms."""
    leaves = [TRUE, FALSE] + [EventRef(n) for n in _FOREIGN]
    leaves += [EventRef(n) for n in names] + [PropRef(n) for n in names]
    if checks:
        leaves += [ScoreboardCheck("x"), ScoreboardCheck("y")]
    kind = draw(st.integers(0, 4)) if depth else 0
    if kind == 0:
        return draw(st.sampled_from(leaves))
    if kind == 1:
        return Not(draw(_guards(names, depth - 1, checks)))
    args = tuple(
        draw(_guards(names, depth - 1, checks))
        for _ in range(draw(st.integers(0, 3)))
    )
    return And(args) if kind in (2, 3) else Or(args)


@st.composite
def _codec_and_guard(draw, checks=False):
    width = draw(st.integers(0, 12))
    names = _NAMES[:width]
    codec = AlphabetCodec(names)
    # Guards may also mention symbols just past the alphabet.
    guard = draw(_guards(_NAMES[:width + 2], checks=checks))
    return codec, guard


@settings(max_examples=150, deadline=None)
@given(_codec_and_guard())
def test_truth_table_matches_closure_enumeration(case):
    codec, guard = case
    assert _kernel_table(codec, guard) == _closure_table(codec, guard)


@settings(max_examples=150, deadline=None)
@given(_codec_and_guard(checks=True))
def test_truth_table_raises_exactly_where_closures_do(case):
    codec, guard = case
    assert _kernel_table(codec, guard) == _closure_table(codec, guard)


@pytest.mark.parametrize("guard, expected", [
    (And(()), 0b1111),
    (Or(()), 0),
    (And((EventRef("a"),)), 0b1010),
    (Or((Not(EventRef("b")),)), 0b0011),
    (Not(Not(EventRef("b"))), 0b1100),
    (EventRef("outside"), 0),
    (Not(EventRef("outside")), 0b1111),
    (And((FALSE, ScoreboardCheck("e"))), 0),  # check never reached
    (Or((TRUE, ScoreboardCheck("e"))), 0b1111),
])
def test_truth_table_edge_cases(guard, expected):
    assert AlphabetCodec(["a", "b"]).truth_table(guard) == expected


def test_symbol_patterns_are_the_single_symbol_tables():
    for width in range(0, 7):
        patterns = symbol_patterns(width)
        assert len(patterns) == width
        for index, pattern in enumerate(patterns):
            assert pattern == sum(
                1 << mask for mask in range(1 << width) if mask >> index & 1
            )


def test_tabulate_reports_the_first_fault_with_its_mask():
    codec = AlphabetCodec(["a", "b"])
    a, b = EventRef("a"), EventRef("b")
    guard = Or((And((b, ScoreboardCheck("late"))),
                And((a, ScoreboardCheck("early")))))
    bitmap, (mask, error) = codec.tabulate(guard)
    assert mask == 1  # {a}: the first valuation reaching a check
    assert str(error) == "Chk_evt(early) requires a scoreboard to evaluate"
    assert bitmap & 1 == 0  # exact below the fault


# -------------------------------------- minimize's per-assignment bitmaps --
@settings(max_examples=150, deadline=None)
@given(_codec_and_guard(checks=True))
def test_assignment_bitmaps_match_substitution(case):
    """Each check assignment's bitmap equals substituting the checks
    by constants, simplifying and tabulating the residue."""
    codec, guard = case
    checks = ("x", "y")
    expected = []
    for assignment in range(1 << len(checks)):
        values = {c: bool(assignment >> i & 1) for i, c in enumerate(checks)}
        fixed = substitute_checks(guard, values).simplify()
        expected.append(codec.truth_table(fixed))
    assert _assignment_bitmaps(guard, codec, checks) == expected


# ------------------------------------------------------- prime implicants --
def _pairwise_primes(minterms, dont_cares, width):
    """The pairwise-merge Quine–McCluskey reference (every pair of
    terms in a mask group is tried)."""
    current = {Implicant(m, 0, width) for m in set(minterms) | set(dont_cares)}
    primes = set()
    while current:
        merged, used = set(), set()
        by_mask = {}
        for term in sorted(current, key=lambda t: (t.mask, t.bits)):
            by_mask.setdefault(term.mask, []).append(term)
        for terms in by_mask.values():
            for left, right in combinations(terms, 2):
                combined = left.try_merge(right)
                if combined is not None:
                    merged.add(combined)
                    used.add(left)
                    used.add(right)
        primes |= current - used
        current = merged
    return sorted(primes, key=lambda t: (t.mask, t.bits))


@st.composite
def _on_dc_sets(draw):
    width = draw(st.integers(1, 8))
    indices = st.integers(0, (1 << width) - 1)
    on_set = draw(st.sets(indices, max_size=1 << width))
    dc_set = draw(st.sets(indices, max_size=1 << (width - 1)))
    return width, on_set, dc_set


@settings(max_examples=200, deadline=None)
@given(_on_dc_sets())
def test_prime_implicants_match_pairwise_reference(case):
    width, on_set, dc_set = case
    assert (prime_implicants(on_set, dc_set, width)
            == _pairwise_primes(on_set, dc_set, width))


def test_prime_implicants_out_of_range_minterms_still_merge():
    # 1 and 5 differ in bit 2, past the edge of a width-2 table.
    assert (prime_implicants([1, 5], [], 2)
            == _pairwise_primes([1, 5], [], 2)
            == [Implicant(1, 4, 2)])
