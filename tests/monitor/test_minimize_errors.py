"""Error-string identity for the bitmap-driven minimiser and codec.

``minimize_monitor``, ``transition_function`` and
``AlphabetCodec.truth_table`` tabulate guards over whole-alphabet
bitmaps instead of evaluating them per valuation, yet must still
report the *first* ill-formed cell a per-valuation scan would hit —
same valuation, same scoreboard assumption, same text.  The strings
below are pinned byte for byte.
"""

import pytest

from repro.errors import ExprError, MonitorError
from repro.logic.codec import AlphabetCodec
from repro.logic.expr import FALSE, TRUE, And, EventRef, Not, Or, ScoreboardCheck
from repro.monitor.automaton import AddEvt, Monitor, Transition
from repro.monitor.minimize import minimize_monitor, transition_function

a, b = EventRef("a"), EventRef("b")
x, y = ScoreboardCheck("x"), ScoreboardCheck("y")


def _monitor(name, transitions):
    return Monitor(name, n_states=2, initial=0, final=1,
                   transitions=transitions + [Transition(1, TRUE, (), 1)],
                   alphabet={"a", "b"})


def _message(fn, *args):
    with pytest.raises((ExprError, MonitorError)) as info:
        fn(*args)
    return str(info.value)


# ------------------------------------------------------------ truth_table --
@pytest.mark.parametrize("guard, text", [
    (ScoreboardCheck("e"), "Chk_evt(e) requires a scoreboard to evaluate"),
    (And((a, ScoreboardCheck("e"))),
     "Chk_evt(e) requires a scoreboard to evaluate"),
    # The lowest mask reaching a check decides which check is named.
    (Or((And((a, x)), And((Not(a), y)))),
     "Chk_evt(y) requires a scoreboard to evaluate"),
    (Or((And((Not(a), x)), And((a, y)))),
     "Chk_evt(x) requires a scoreboard to evaluate"),
])
def test_truth_table_scoreboard_error_text(guard, text):
    codec = AlphabetCodec(["a", "b", "c"])
    with pytest.raises(ExprError) as info:
        codec.truth_table(guard)
    assert str(info.value) == text


def test_truth_table_unreached_checks_do_not_raise():
    codec = AlphabetCodec(["a", "b", "c"])
    assert codec.truth_table(And((FALSE, x))) == 0
    assert codec.truth_table(Or((TRUE, x))) == 0xFF
    assert codec.truth_table(And((a, Not(a), x))) == 0


# -------------------------------------------------------- minimize_monitor --
@pytest.mark.parametrize("transitions, text", [
    ([Transition(0, a, (), 1)],
     "monitor 'm': state 0 has no move on {-} with scoreboard checks {} "
     "assumed true"),
    ([Transition(0, And((a, Not(x))), (), 1), Transition(0, Not(a), (), 0)],
     "monitor 'm': state 0 has no move on {a} with scoreboard checks "
     "['x'] assumed true"),
    ([Transition(0, And((b, Not(And((x, y))))), (), 1),
      Transition(0, Not(b), (), 0)],
     "monitor 'm': state 0 has no move on {b} with scoreboard checks "
     "['x', 'y'] assumed true"),
], ids=["incomplete", "incomplete-one-check", "incomplete-two-checks"])
def test_minimize_incomplete_error_text(transitions, text):
    assert _message(minimize_monitor, _monitor("m", transitions)) == text


@pytest.mark.parametrize("transitions, text", [
    ([Transition(0, a, (), 1), Transition(0, Or((a, b)), (), 0),
      Transition(0, Not(Or((a, b))), (), 0)],
     "monitor 'm': state 0 has 2 conflicting moves on {a} with "
     "scoreboard checks {} assumed true"),
    # Duplicate moves count once; the conflict is found at {b} before
    # any check assignment makes the Add_evt move fire too.
    ([Transition(0, TRUE, (), 0), Transition(0, b, (), 1),
      Transition(0, And((b, x)), (AddEvt(("b",)),), 1),
      Transition(0, And((b, x)), (AddEvt(("b",)),), 1)],
     "monitor 'm': state 0 has 2 conflicting moves on {b} with "
     "scoreboard checks {} assumed true"),
], ids=["conflict", "conflict-with-duplicates"])
def test_minimize_nondeterministic_error_text(transitions, text):
    assert _message(minimize_monitor, _monitor("m", transitions)) == text


def test_minimize_duplicate_moves_are_not_conflicts():
    monitor = _monitor("m", [
        Transition(0, a, (), 1), Transition(0, Or((a, b)), (), 1),
        Transition(0, Not(Or((a, b))), (), 0),
    ])
    assert [repr(t) for t in minimize_monitor(monitor).transitions] == [
        "0 --[!a & !b]--> 0", "0 --[a & !b]--> 1", "0 --[!a & b]--> 1",
        "0 --[a & b]--> 1", "1 --[!a & !b]--> 1", "1 --[a & !b]--> 1",
        "1 --[!a & b]--> 1", "1 --[a & b]--> 1",
    ]


# ----------------------------------------------------- transition_function --
@pytest.mark.parametrize("transitions, text", [
    ([Transition(0, a, (), 1), Transition(0, Or((a, b)), (), 0),
      Transition(0, Not(Or((a, b))), (), 0)],
     "monitor 'm': state 0 has 2 enabled transitions on {a}"),
    ([Transition(0, a, (), 1)],
     "monitor 'm': state 0 has 0 enabled transitions on {-}"),
    ([Transition(0, And((a, x)), (), 1), Transition(0, Not(a), (), 0)],
     "guard a & Chk_evt(x) is scoreboard-dependent: Chk_evt(x) requires "
     "a scoreboard to evaluate"),
    # The guard reaching a check at the lowest mask is named, not the
    # first guard in declaration order.
    ([Transition(0, And((b, x)), (), 1), Transition(0, And((a, y)), (), 0),
      Transition(0, Not(Or((a, b))), (), 0)],
     "guard a & Chk_evt(y) is scoreboard-dependent: Chk_evt(y) requires "
     "a scoreboard to evaluate"),
    # Guards reaching checks at the same lowest mask: the first one
    # declared is named.
    ([Transition(0, And((a, x)), (), 1), Transition(0, And((a, y)), (), 1),
      Transition(0, Not(a), (), 0)],
     "guard a & Chk_evt(x) is scoreboard-dependent: Chk_evt(x) requires "
     "a scoreboard to evaluate"),
    # A cell error at a lower mask than the first one reaching a check
    # is reported instead of the scoreboard error: {-} before {b} ...
    ([Transition(0, And((b, x)), (), 1), Transition(0, a, (), 0)],
     "monitor 'm': state 0 has 0 enabled transitions on {-}"),
    # ... and {b} before {a, b}.
    ([Transition(0, And((a, b, x)), (), 1), Transition(0, Not(b), (), 0)],
     "monitor 'm': state 0 has 0 enabled transitions on {b}"),
], ids=["nondeterministic", "incomplete", "scoreboard", "lowest-mask-guard",
        "first-declared-guard", "cell-at-zero",
        "cell-before-check"])
def test_transition_function_error_text(transitions, text):
    assert _message(transition_function, _monitor("m", transitions)) == text


def test_transition_function_same_target_is_deterministic():
    monitor = _monitor("m", [
        Transition(0, a, (), 1), Transition(0, Or((a, b)), (), 1),
        Transition(0, Not(Or((a, b))), (), 0),
    ])
    table = transition_function(monitor)
    assert list(table.items()) == [
        ((0, frozenset()), 0), ((0, frozenset({"a"})), 1),
        ((0, frozenset({"b"})), 1), ((0, frozenset({"a", "b"})), 1),
        ((1, frozenset()), 1), ((1, frozenset({"a"})), 1),
        ((1, frozenset({"b"})), 1), ((1, frozenset({"a", "b"})), 1),
    ]
