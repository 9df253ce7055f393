"""Predicates over typed column values.

A predicate exposes two evaluation surfaces:

* :meth:`Predicate.evaluate` — vectorised over a NumPy array or
  :class:`~repro.types.StringArray`, returning a boolean mask;
* :meth:`Predicate.may_match_range` / :meth:`Predicate.always_matches_range`
  — conservative tests against ``[minimum, maximum]`` bounds: ``False``
  from the first guarantees no value in them matches, ``True`` from the
  second that every one does. Both are array-safe: zone-map pruning asks
  them about one block's statistics, a bit-packed node's scan rule about
  the arrays of its pages' header bounds, with the same code.

String predicates compare raw bytes (UTF-8 for ``str`` arguments), matching
the storage format's semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.types import StringArray

Scalar = Union[int, float, bytes, str]


def _as_bytes(value: Union[bytes, str]) -> bytes:
    return value.encode("utf-8") if isinstance(value, str) else value


def _string_mask(values: StringArray, test) -> np.ndarray:
    out = np.empty(len(values), dtype=bool)
    for i, item in enumerate(values):
        out[i] = test(item)
    return out


class Predicate(ABC):
    """A row-level filter over one column."""

    @abstractmethod
    def evaluate(self, values) -> np.ndarray:
        """Boolean match mask for an array of values."""

    def may_match_range(self, minimum, maximum) -> bool:
        """Could any value in [minimum, maximum] match? Default: maybe.

        ``minimum`` / ``maximum`` are scalars or equal-shape arrays (one
        interval per element); the answer then has their shape, or is a
        scalar that holds for every element.
        """
        return True

    def always_matches_range(self, minimum, maximum) -> bool:
        """Does *every* value in [minimum, maximum] match? Default: unknown.

        The accept-side dual of :meth:`may_match_range`: ``True`` lets a
        scan mark a whole block as matching without decoding it. Because the
        bounds a caller holds are conservative supersets of the actual
        values, ``True`` for the interval implies ``True`` for every value
        in it — so ``False`` is always a safe answer and the default.
        """
        return False

    def may_match_bytes(self, minimum: bytes, maximum: "bytes | None") -> bool:
        """Conservative test against a block's *string* bounds.

        ``minimum`` may be a truncated prefix of the real minimum (prefixes
        compare lower, so it stays a valid lower bound); ``maximum`` is
        ``None`` when the upper bound is unknown. Default: maybe.
        """
        return True

    def bloom_probes(self) -> "list[bytes] | None":
        """Byte values whose joint Bloom absence rules the block out, or
        ``None`` when this predicate cannot use a distinct-value digest."""
        return None

    def evaluate_scalar(self, value) -> bool:
        """Match test for one value (used on One Value / dictionary entries)."""
        if isinstance(value, bytes):
            return bool(self.evaluate(StringArray.from_pylist([value]))[0])
        return bool(self.evaluate(np.asarray([value]))[0])


@dataclass(frozen=True)
class Equals(Predicate):
    value: Scalar

    def evaluate(self, values):
        if isinstance(values, StringArray):
            needle = _as_bytes(self.value)  # type: ignore[arg-type]
            return _string_mask(values, lambda s: s == needle)
        return np.asarray(values) == self.value

    def may_match_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None or isinstance(self.value, (bytes, str)):
            return True
        return (minimum <= self.value) & (self.value <= maximum)

    def always_matches_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None or isinstance(self.value, (bytes, str)):
            return False
        return (minimum == self.value) & (maximum == self.value)

    def may_match_bytes(self, minimum, maximum) -> bool:
        if not isinstance(self.value, (bytes, str)):
            return True
        needle = _as_bytes(self.value)
        return minimum <= needle and (maximum is None or needle <= maximum)

    def bloom_probes(self):
        if isinstance(self.value, (bytes, str)):
            return [_as_bytes(self.value)]
        return None


@dataclass(frozen=True)
class GreaterThan(Predicate):
    value: Scalar
    inclusive: bool = False

    def evaluate(self, values):
        if isinstance(values, StringArray):
            needle = _as_bytes(self.value)  # type: ignore[arg-type]
            if self.inclusive:
                return _string_mask(values, lambda s: s >= needle)
            return _string_mask(values, lambda s: s > needle)
        arr = np.asarray(values)
        return arr >= self.value if self.inclusive else arr > self.value

    def may_match_range(self, minimum, maximum) -> bool:
        if maximum is None or isinstance(self.value, (bytes, str)):
            return True
        return maximum >= self.value if self.inclusive else maximum > self.value

    def always_matches_range(self, minimum, maximum) -> bool:
        if minimum is None or isinstance(self.value, (bytes, str)):
            return False
        return minimum >= self.value if self.inclusive else minimum > self.value

    def may_match_bytes(self, minimum, maximum) -> bool:
        if maximum is None or not isinstance(self.value, (bytes, str)):
            return True
        needle = _as_bytes(self.value)
        return maximum >= needle if self.inclusive else maximum > needle


@dataclass(frozen=True)
class LessThan(Predicate):
    value: Scalar
    inclusive: bool = False

    def evaluate(self, values):
        if isinstance(values, StringArray):
            needle = _as_bytes(self.value)  # type: ignore[arg-type]
            if self.inclusive:
                return _string_mask(values, lambda s: s <= needle)
            return _string_mask(values, lambda s: s < needle)
        arr = np.asarray(values)
        return arr <= self.value if self.inclusive else arr < self.value

    def may_match_range(self, minimum, maximum) -> bool:
        if minimum is None or isinstance(self.value, (bytes, str)):
            return True
        return minimum <= self.value if self.inclusive else minimum < self.value

    def always_matches_range(self, minimum, maximum) -> bool:
        if maximum is None or isinstance(self.value, (bytes, str)):
            return False
        return maximum <= self.value if self.inclusive else maximum < self.value

    def may_match_bytes(self, minimum, maximum) -> bool:
        if not isinstance(self.value, (bytes, str)):
            return True
        needle = _as_bytes(self.value)
        return minimum <= needle if self.inclusive else minimum < needle


@dataclass(frozen=True)
class Between(Predicate):
    low: Scalar
    high: Scalar

    def evaluate(self, values):
        if isinstance(values, StringArray):
            lo, hi = _as_bytes(self.low), _as_bytes(self.high)  # type: ignore[arg-type]
            return _string_mask(values, lambda s: lo <= s <= hi)
        arr = np.asarray(values)
        return (arr >= self.low) & (arr <= self.high)

    def may_match_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None or isinstance(self.low, (bytes, str)):
            return True
        # (``^ True`` negates a bool and a bool array alike.)
        return ((maximum < self.low) | (minimum > self.high)) ^ True

    def always_matches_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None or isinstance(self.low, (bytes, str)):
            return False
        return (self.low <= minimum) & (maximum <= self.high)

    def may_match_bytes(self, minimum, maximum) -> bool:
        if not isinstance(self.low, (bytes, str)):
            return True
        lo, hi = _as_bytes(self.low), _as_bytes(self.high)  # type: ignore[arg-type]
        if minimum > hi:
            return False
        return maximum is None or maximum >= lo


@dataclass(frozen=True)
class In(Predicate):
    values: tuple

    def __init__(self, values: Sequence[Scalar]):
        object.__setattr__(self, "values", tuple(values))

    def evaluate(self, values):
        if isinstance(values, StringArray):
            needles = {_as_bytes(v) for v in self.values}  # type: ignore[arg-type]
            return _string_mask(values, lambda s: s in needles)
        return np.isin(np.asarray(values), np.asarray(self.values))

    def may_match_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None:
            return True
        if any(isinstance(v, (bytes, str)) for v in self.values):
            return True
        # Some needle lies in [minimum, maximum]: fewer of them precede the
        # low end than reach the high end.
        needles = np.sort(np.asarray(self.values))
        return np.searchsorted(needles, minimum, "left") < np.searchsorted(needles, maximum, "right")

    def always_matches_range(self, minimum, maximum) -> bool:
        if minimum is None or maximum is None:
            return False
        if any(isinstance(v, (bytes, str)) for v in self.values):
            return False
        # A one-value interval holding a needle: the one value is that needle.
        return (minimum == maximum) & self.may_match_range(minimum, maximum)

    def may_match_bytes(self, minimum, maximum) -> bool:
        if not all(isinstance(v, (bytes, str)) for v in self.values):
            return True
        return any(
            minimum <= _as_bytes(v) and (maximum is None or _as_bytes(v) <= maximum)
            for v in self.values
        )

    def bloom_probes(self):
        if self.values and all(isinstance(v, (bytes, str)) for v in self.values):
            return [_as_bytes(v) for v in self.values]
        return None


@dataclass(frozen=True)
class IsNull(Predicate):
    """Matches NULL rows; handled specially by the executor (NULL positions
    live in the block's Roaring bitmap, not in the value array)."""

    def evaluate(self, values):
        return np.zeros(len(values), dtype=bool)

    def may_match_range(self, minimum, maximum) -> bool:
        return True
