"""Persistent-memory bit accounting (the currency of Lemma 8).

The paper measures memory as the number of bits a robot stores *between*
rounds; within-round scratch space is free.  Algorithms in this library
expose their per-robot persistent state as a small dict of primitive values
via ``persistent_state(robot_id)``; the functions here convert such states
into bit counts so the engine can audit the Theta(log k) bound empirically.

The encoding charged is the information-theoretic one a real robot would
use: an integer field known to lie in ``[0, B]`` costs
``bound_bits(B) = ceil(log2(B + 1))`` bits, a boolean costs 1 bit,
``None`` (absent optional field) costs the field's full width (the robot
must still reserve the slot).  :func:`bound_bits` is the one width the
engine's audit, the campaign's Lemma 8 section and the tests share.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


def bound_bits(bound: int) -> int:
    """``ceil(log2(bound + 1))``, at least 1, in exact integer arithmetic.

    This is the one Lemma 8 width: a robot ID from ``[1, k]`` costs
    ``bound_bits(k)`` (5 bits for ``k = 16``).

    ``bound.bit_length()`` is that width for every ``bound >= 0``.  The
    float formula rounds ``bound + 1`` to a double first, so from ``2**53``
    on it can charge one bit too few (53 for ``2**53`` itself).
    """
    if bound < 0:
        raise ValueError(f"declared bound {bound} is negative")
    return max(1, bound.bit_length())


def bits_for_value(value: Any, *, bound: Optional[int] = None) -> int:
    """Bits to persist one value.

    ``bound`` is the declared maximum for integer fields (e.g. ``k`` for a
    robot ID, the maximum degree for a port).  Without a bound, the value's
    own bit length is charged -- a lower bound on any real encoding.
    """
    if value is None:
        return 0 if bound is None else bound_bits(bound)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if bound is not None:
            if value > bound:
                raise ValueError(
                    f"value {value} exceeds its declared bound {bound}"
                )
            return bound_bits(bound)
        return max(1, abs(value).bit_length() + (1 if value < 0 else 0))
    if isinstance(value, (tuple, list)):
        return sum(bits_for_value(item) for item in value)
    if isinstance(value, str):
        return 8 * len(value.encode("utf-8"))
    if isinstance(value, frozenset) or isinstance(value, set):
        return sum(bits_for_value(item) for item in value)
    raise TypeError(
        f"cannot account bits for persistent value of type {type(value)!r}; "
        "persistent state must be built from ints, bools, strings, and "
        "containers of those"
    )


def bits_for_state(
    state: Mapping[str, Any],
    *,
    bounds: Optional[Mapping[str, int]] = None,
) -> int:
    """Total persisted bits for a robot's named state fields.

    ``bounds`` optionally declares the maximum for integer fields by name.
    Field names themselves are not charged: they are part of the algorithm's
    program, not its state.
    """
    bounds = bounds or {}
    total = 0
    for name, value in state.items():
        total += bits_for_value(value, bound=bounds.get(name))
    return total
