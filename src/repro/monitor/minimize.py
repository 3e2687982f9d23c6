"""State minimisation for monitors (Moore/Mealy partition refinement).

Used by the analysis layer (canonical forms for language-equivalence
checking), by the optimization pipeline (:mod:`repro.optimize`) that
shrinks automata before they are lowered to compiled dispatch tables,
and by the baselines benchmark comparing monitor sizes.

Action-free detectors minimise as classic Moore machines.  Monitors
carrying scoreboard actions are Mealy-style transducers whose output
(the ``Add_evt``/``Del_evt`` sequence) is part of their behaviour;
they are minimised by including the *action signature* — the move's
action tuple, resolved per scoreboard-check assignment — in the
partition-refinement signature, so two states merge only when they
emit identical actions and reach equivalent successors under **every**
input valuation *and* every truth assignment of their ``Chk_evt``
guards.  Quantifying over all check assignments abstracts the dynamic
scoreboard soundly: merged states are indistinguishable no matter
which events the scoreboard happens to hold.

The valuation enumeration is routed through
:class:`~repro.logic.codec.AlphabetCodec` masks, so this layer shares
the codec's ``2^MAX_CODEC_SYMBOLS`` tractability cap instead of
silently attempting an astronomically wide enumeration.  Guards are
tabulated bit-parallel — one ``2^|Sigma|``-bit truth bitmap per
transition and check assignment — and moves are scattered over the
bitmaps' set bits rather than resolved valuation by valuation.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import MonitorError
from repro.logic.codec import MAX_CODEC_SYMBOLS, AlphabetCodec
from repro.logic.expr import And, Expr, Not, Or, ScoreboardCheck, scoreboard_checks_of
from repro.logic.qm import minimize_expr
from repro.monitor.automaton import Monitor, Transition

__all__ = ["minimize_monitor", "transition_function"]

#: One resolved move: ``(actions, target)`` for a fixed (mask, checks).
_Move = Tuple[tuple, int]


def _codec_for(monitor: Monitor) -> AlphabetCodec:
    """The codec enumerating the monitor's valuations, cap enforced.

    The dense ``2^|Sigma|`` enumeration below shares
    :data:`~repro.logic.codec.MAX_CODEC_SYMBOLS` with the compiled
    runtime — one limit for every layer that materialises the
    valuation space.
    """
    if len(monitor.alphabet) > MAX_CODEC_SYMBOLS:
        raise MonitorError(
            f"monitor {monitor.name!r}: alphabet of "
            f"{len(monitor.alphabet)} symbols exceeds the "
            f"2^{MAX_CODEC_SYMBOLS} valuation-enumeration cap "
            f"(shared with AlphabetCodec) — prune the alphabet or "
            f"split the chart"
        )
    return AlphabetCodec(monitor.alphabet)


def transition_function(
    monitor: Monitor,
) -> Dict[Tuple[int, FrozenSet[str]], int]:
    """Explicit ``(state, valuation) -> state`` table over the alphabet.

    Requires an action-free monitor whose guards reference only input
    symbols (no ``Chk_evt``); raises on anything else.
    """
    if monitor.has_actions():
        raise MonitorError(
            f"monitor {monitor.name!r} carries scoreboard actions; its "
            "transition function is scoreboard-dependent"
        )
    codec = _codec_for(monitor)
    full = (1 << codec.size) - 1
    table: Dict[Tuple[int, FrozenSet[str]], int] = {}
    for state in monitor.states:
        outgoing = monitor.transitions_from(state)
        tabulated = [codec.tabulate(t.guard) for t in outgoing]
        # The first guard evaluation that would raise: lowest mask,
        # then declaration order.  Bitmaps are exact below it.
        fault = None
        for transition, (_, guard_fault) in zip(outgoing, tabulated):
            if guard_fault is not None and (
                fault is None or guard_fault[0] < fault[0][0]
            ):
                fault = (guard_fault, transition)
        by_target: Dict[int, int] = {}
        for transition, (bitmap, _) in zip(outgoing, tabulated):
            by_target[transition.target] = (
                by_target.get(transition.target, 0) | bitmap
            )
        bad = _not_exactly_one(by_target.values(), full)
        if fault is not None:
            bad &= (1 << fault[0][0]) - 1
        if bad:
            mask = _lowest_bit(bad)
            enabled = sum(bitmap >> mask & 1 for bitmap, _ in tabulated)
            raise MonitorError(
                f"monitor {monitor.name!r}: state {state} has "
                f"{enabled} enabled transitions on {codec.decode(mask)!r}"
            )
        if fault is not None:
            (_, error), transition = fault
            raise MonitorError(
                f"guard {transition.guard!r} is scoreboard-dependent: {error}"
            ) from error
        target_of: List[int] = [0] * codec.size
        for target, bitmap in by_target.items():
            for mask in _set_bits(bitmap):
                target_of[mask] = target
        for mask in codec.all_masks():
            table[(state, codec.decode(mask).true)] = target_of[mask]
    return table


def _lowest_bit(bitmap: int) -> int:
    """Index of the lowest set bit of a non-zero ``bitmap``."""
    return (bitmap & -bitmap).bit_length() - 1


def _set_bits(bitmap: int) -> Iterator[int]:
    """Indices of the set bits of ``bitmap``, ascending."""
    digits = bin(bitmap)[:1:-1]  # LSB first, ``0b`` prefix dropped
    index = digits.find("1")
    while index >= 0:
        yield index
        index = digits.find("1", index + 1)


def _not_exactly_one(bitmaps: Iterable[int], full: int) -> int:
    """Masks set in none, or in more than one, of ``bitmaps``."""
    seen = multi = 0
    for bitmap in bitmaps:
        multi |= seen & bitmap
        seen |= bitmap
    return multi | (full ^ seen)


def _assignment_bitmaps(
    guard: Expr, codec: AlphabetCodec, checks: Tuple[str, ...]
) -> List[int]:
    """Truth bitmap of ``guard`` under each ``Chk_evt`` assignment.

    Entry ``a`` is the guard's input truth table with every check
    fixed by assignment ``a`` (bit ``i`` = truth of ``checks[i]``).
    Check-free subtrees are tabulated once and shared by every
    assignment; only the connectives above a check are re-combined
    per assignment.
    """
    n_assignments = 1 << len(checks)
    full = (1 << codec.size) - 1
    index_of = {check: index for index, check in enumerate(checks)}

    def lift(node: Expr) -> List[int]:
        if isinstance(node, ScoreboardCheck):
            bit = 1 << index_of[node.event]
            return [full if a & bit else 0 for a in range(n_assignments)]
        if isinstance(node, Not):
            return [full ^ value for value in lift(node.operand)]
        if isinstance(node, (And, Or)):
            pure: List[Expr] = []
            mixed: List[Expr] = []
            for arg in node.args:
                (mixed if scoreboard_checks_of(arg) else pure).append(arg)
            if mixed:
                rows = [codec.truth_table(type(node)(tuple(pure)))]
                rows *= n_assignments
                for arg in mixed:
                    if isinstance(node, And):
                        rows = [r & v for r, v in zip(rows, lift(arg))]
                    else:
                        rows = [r | v for r, v in zip(rows, lift(arg))]
                return rows
        return [codec.truth_table(node)] * n_assignments

    return lift(guard)


class _StateBehaviour:
    """One state's move function, resolved per (mask, check assignment).

    ``checks`` is the sorted tuple of ``Chk_evt`` events the state's
    outgoing guards mention; ``moves[mask][a]`` is the unique
    ``(actions, target)`` fired by valuation ``mask`` when assignment
    ``a`` (bit ``i`` = truth of ``checks[i]``) fixes every check.
    """

    __slots__ = ("checks", "moves")

    def __init__(self, checks: Tuple[str, ...],
                 moves: List[List[_Move]]):
        self.checks = checks
        self.moves = moves


def _state_behaviour(
    monitor: Monitor, codec: AlphabetCodec, state: int
) -> _StateBehaviour:
    """Resolve ``state``'s moves for every valuation and check truth.

    Raises :class:`MonitorError` on the first cell, in mask-major order
    (lowest mask, then lowest assignment), that fires no move or
    several distinct ones.
    """
    outgoing = monitor.transitions_from(state)
    check_set: set = set()
    for transition in outgoing:
        check_set |= scoreboard_checks_of(transition.guard)
    checks = tuple(sorted(check_set))
    if len(checks) > MAX_CODEC_SYMBOLS:
        raise MonitorError(
            f"monitor {monitor.name!r}: state {state} guards mention "
            f"{len(checks)} distinct Chk_evt events, exceeding the "
            f"2^{MAX_CODEC_SYMBOLS} assignment-enumeration cap"
        )
    n_assignments = 1 << len(checks)
    full = (1 << codec.size) - 1
    # Per assignment, the masks firing each distinct move: one bitmap
    # per transition and assignment, scattered by (actions, target).
    fired: List[Dict[_Move, int]] = [{} for _ in range(n_assignments)]
    for transition in outgoing:
        move = (transition.actions, transition.target)
        bitmaps = _assignment_bitmaps(transition.guard, codec, checks)
        for cover, bitmap in zip(fired, bitmaps):
            if bitmap:
                cover[move] = cover.get(move, 0) | bitmap
    # Report the first ill-formed cell in mask-major order (lowest
    # mask, then lowest assignment), as a per-cell scan would.
    worst: Optional[Tuple[int, int]] = None
    for assignment, cover in enumerate(fired):
        bad = _not_exactly_one(cover.values(), full)
        if bad:
            cell = (_lowest_bit(bad), assignment)
            if worst is None or cell < worst:
                worst = cell
    if worst is not None:
        mask, assignment = worst
        count = sum(
            bitmap >> mask & 1 for bitmap in fired[assignment].values()
        )
        kind = "no move" if not count else f"{count} conflicting moves"
        held = [c for i, c in enumerate(checks) if assignment >> i & 1]
        raise MonitorError(
            f"monitor {monitor.name!r}: state {state} has {kind} "
            f"on {codec.decode(mask)!r} with scoreboard checks "
            f"{held or '{}'} assumed true"
        )
    moves: List[List[_Move]] = [
        [None] * n_assignments for _ in range(codec.size)
    ]
    for assignment, cover in enumerate(fired):
        for move, bitmap in cover.items():
            for mask in _set_bits(bitmap):
                moves[mask][assignment] = move
    return _StateBehaviour(checks, moves)


def _dependent_checks(outs: Sequence, n_checks: int) -> List[int]:
    """Indices of checks the outcome actually depends on.

    ``outs`` maps every assignment (bit ``i`` = truth of check ``i``)
    to its resolved output; a check whose flip never changes the
    output is a don't-care and is eliminated from signatures and
    rebuilt guards alike.
    """
    return [
        index for index in range(n_checks)
        if any(outs[a] != outs[a ^ (1 << index)]
               for a in range(len(outs)))
    ]


def _expand_assignment(sub: int, kept: Sequence[int]) -> int:
    """Map an assignment over the kept checks back to the full space
    (don't-care bits zero)."""
    assignment = 0
    for j, index in enumerate(kept):
        if sub >> j & 1:
            assignment |= 1 << index
    return assignment


def _mask_signature(
    checks: Tuple[str, ...],
    per_assignment: Sequence[_Move],
    block_of: Dict[int, int],
) -> tuple:
    """Canonical decision function of one ``(state, mask)`` cell.

    Maps targets to their current partition blocks, then eliminates
    checks the outcome never depends on, so two states whose guards
    *mention* different checks but *behave* identically get equal
    signatures.
    """
    outs = [
        (actions, block_of[target]) for actions, target in per_assignment
    ]
    kept = _dependent_checks(outs, len(checks))
    projected = tuple(
        outs[_expand_assignment(sub, kept)] for sub in range(1 << len(kept))
    )
    return (tuple(checks[i] for i in kept), projected)


def _check_guard(
    assignments: Sequence[int], checks: Tuple[str, ...], kept: List[int]
):
    """Minimal ``Chk_evt`` expression selecting exactly ``assignments``.

    ``assignments`` index the kept-check truth space (bit ``j`` =
    ``checks[kept[j]]``); the result is their Quine–McCluskey minimum
    sum-of-products over ``ScoreboardCheck`` atoms.
    """
    atoms = [ScoreboardCheck(checks[i]) for i in kept]
    width = len(atoms)
    minterms = []
    for assignment in assignments:
        index = 0
        for j in range(width):
            if assignment >> j & 1:
                index |= 1 << (width - 1 - j)
        minterms.append(index)
    return minimize_expr(minterms, atoms)


def minimize_monitor(monitor: Monitor) -> Monitor:
    """Behaviour-preserving state minimisation (final state = accepting).

    Returns a monitor over the same alphabet with the minimum number of
    states distinguishing acceptance *and* action behaviour:
    action-free detectors reduce exactly as Moore machines; monitors
    with scoreboard actions merge states only when every input
    valuation, under every ``Chk_evt`` truth assignment, yields the
    same action tuple and an equivalent successor.  Unreachable states
    are dropped.  Transitions in the result are labelled with minterm
    guards (one per valuation class, conjoined with a minimised check
    expression where the move is scoreboard-dependent), ready for
    :func:`~repro.synthesis.symbolic.symbolic_monitor` compression.
    """
    codec = _codec_for(monitor)
    masks = list(codec.all_masks())

    # Reachability over (state) with behaviour resolved lazily — an
    # unreachable ill-formed state cannot poison the minimisation.
    behaviour: Dict[int, _StateBehaviour] = {}

    def behaviour_of(state: int) -> _StateBehaviour:
        resolved = behaviour.get(state)
        if resolved is None:
            resolved = _state_behaviour(monitor, codec, state)
            behaviour[state] = resolved
        return resolved

    reachable = {monitor.initial}
    frontier = [monitor.initial]
    while frontier:
        state = frontier.pop()
        for per_assignment in behaviour_of(state).moves:
            for _, target in per_assignment:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)

    # The empty-language check runs *before* partition refinement: a
    # final state no run can enter means the detected language is
    # empty, and no amount of refinement changes that.  ``initial ==
    # final`` (an empty chart) is trivially reachable and proceeds.
    if monitor.final not in reachable:
        raise MonitorError(
            f"monitor {monitor.name!r}: final state unreachable — the "
            "detected language is empty and has no DFA in monitor form"
        )

    # Partition refinement, accepting block split out first.
    accepting = frozenset({monitor.final})
    partition: List[FrozenSet[int]] = [
        block
        for block in (frozenset(reachable) - accepting, accepting)
        if block
    ]
    while True:
        block_of: Dict[int, int] = {}
        for index, block in enumerate(partition):
            for state in block:
                block_of[state] = index
        refined: List[FrozenSet[int]] = []
        for block in partition:
            groups: Dict[tuple, List[int]] = {}
            for state in block:
                resolved = behaviour_of(state)
                signature = tuple(
                    _mask_signature(
                        resolved.checks, resolved.moves[mask], block_of
                    )
                    for mask in masks
                )
                groups.setdefault(signature, []).append(state)
            refined.extend(frozenset(g) for g in groups.values())
        if len(refined) == len(partition):
            break
        partition = refined

    block_of = {}
    for index, block in enumerate(partition):
        for state in block:
            block_of[state] = index
    # Renumber with the initial block first for readability.
    order = sorted(range(len(partition)),
                   key=lambda i: (i != block_of[monitor.initial], i))
    renumber = {old: new for new, old in enumerate(order)}

    from repro.synthesis.tr import minterm_expr

    # One minterm guard per valuation, shared by every block's row.
    minterms = [
        minterm_expr(codec.decode(mask).true, codec.symbols, monitor.props)
        for mask in masks
    ]
    transitions: List[Transition] = []
    for index, block in enumerate(partition):
        representative = min(block)
        resolved = behaviour_of(representative)
        checks = resolved.checks
        for mask in masks:
            per_assignment = resolved.moves[mask]
            outs = [
                (actions, block_of[target])
                for actions, target in per_assignment
            ]
            kept = _dependent_checks(outs, len(checks))
            groups: Dict[_Move, List[int]] = {}
            for sub in range(1 << len(kept)):
                groups.setdefault(
                    outs[_expand_assignment(sub, kept)], []
                ).append(sub)
            minterm = minterms[mask]
            for (actions, target_block), subs in sorted(
                groups.items(), key=lambda item: repr(item[0])
            ):
                if len(groups) == 1:
                    guard = minterm
                else:
                    guard = And(
                        (minterm, _check_guard(subs, checks, kept))
                    ).simplify()
                transitions.append(
                    Transition(renumber[index], guard, actions,
                               renumber[target_block])
                )
    return Monitor(
        f"{monitor.name}:min",
        n_states=len(partition),
        initial=renumber[block_of[monitor.initial]],
        final=renumber[block_of[monitor.final]],
        transitions=transitions,
        alphabet=monitor.alphabet,
        props=monitor.props,
    )
