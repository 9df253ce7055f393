"""Scheme interface, registry and cascading context.

A *scheme* compresses one typed value sequence (an int32 array, a float64
array or a :class:`~repro.types.StringArray`) into a byte payload and back.
Schemes that produce integer/double/string sub-sequences (RLE run lengths,
dictionary codes, pseudodecimal digits, ...) hand those to the
:class:`CompressionContext`, which recursively picks the best scheme for them
-- the paper's cascading compression (Section 3.2, Listing 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from repro.core.config import DEFAULT_DECODE_LIMITS
from repro.exceptions import FormatError, UnknownSchemeError
from repro.observe import get_registry
from repro.types import ColumnType, StringArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import BtrBlocksConfig, DecodeLimits
    from repro.core.stats import Stats

Values = Union[np.ndarray, StringArray]


class SchemeId:
    """Stable scheme ids used in the serialized format."""

    UNCOMPRESSED_INT = 0
    UNCOMPRESSED_DOUBLE = 1
    UNCOMPRESSED_STRING = 2
    ONE_VALUE_INT = 3
    ONE_VALUE_DOUBLE = 4
    ONE_VALUE_STRING = 5
    RLE_INT = 6
    RLE_DOUBLE = 7
    DICT_INT = 8
    DICT_DOUBLE = 9
    DICT_STRING = 10
    FREQUENCY_INT = 11
    FREQUENCY_DOUBLE = 12
    FREQUENCY_STRING = 13
    FAST_BP128 = 14
    FAST_PFOR = 15
    FSST = 16
    PSEUDODECIMAL = 18


SCHEME_IDS = SchemeId


class CompressionContext:
    """Carries cascade state through recursive compression.

    ``depth`` is the number of *remaining* cascade levels. When it reaches
    zero the context stores child data uncompressed, mirroring the
    ``if (!recur) return UNCOMPRESSED`` guard in the paper's Listing 1.
    """

    def __init__(
        self,
        config: "BtrBlocksConfig",
        depth: int,
        compress_fn: Callable[[Values, ColumnType, "CompressionContext"], bytes],
    ) -> None:
        self.config = config
        self.depth = depth
        self._compress_fn = compress_fn

    def child(self) -> "CompressionContext":
        """Context for one cascade level deeper."""
        return CompressionContext(self.config, self.depth - 1, self._compress_fn)

    def compress_child(self, values: Values, ctype: ColumnType) -> bytes:
        """Pick a scheme for child data and compress it, one level deeper."""
        return self._compress_fn(values, ctype, self.child())


class DecompressionContext:
    """Carries the vectorised/scalar switch through recursive decompression.

    ``limits`` are the untrusted-input ceilings every cascade level checks
    declared counts and payload sizes against before allocating (defaults
    to :data:`~repro.core.config.DEFAULT_DECODE_LIMITS`).
    """

    def __init__(
        self,
        decode_fn: "Callable[..., Values]",
        vectorized: bool = True,
        limits: "DecodeLimits | None" = None,
    ) -> None:
        self._decode_fn = decode_fn
        self.vectorized = vectorized
        self.limits = limits if limits is not None else DEFAULT_DECODE_LIMITS

    def decompress_child(
        self,
        blob: bytes,
        ctype: ColumnType,
        positions: "np.ndarray | None" = None,
        count: "int | None" = None,
    ) -> Values:
        """Decode a child node, or only its values at sorted row ``positions``.

        A selection cascades one level deeper (so e.g. dictionary codes
        packed with FastBP128 unpack only the pages that hold selected
        rows), through the same dispatcher -- and crossover -- as the block.
        ``count`` is the row count the parent holds the child to: a child
        header declaring another is rejected on every route, selective ones
        included (a selection alone never reads past its last row).
        """
        return self._decode_fn(blob, ctype, self, positions, expected=count)

    def scan_child(
        self, blob: bytes, ctype: ColumnType, predicate, want: bool = False,
        count: "int | None" = None,
    ) -> "tuple[np.ndarray, Values | None]":
        """Evaluate ``predicate`` over a child node: ``(row mask, values at
        its hits)`` (:meth:`Scheme.scan`), through the same dispatcher, gate
        and ``count`` check as :meth:`decompress_child`."""
        return self._decode_fn(blob, ctype, self, predicate=predicate, want=want, expected=count)


class Scheme(ABC):
    """One encoding scheme for one data type.

    Subclasses set ``scheme_id`` (stable wire id), ``name`` and ``ctype`` and
    implement viability, compression and decompression. The selector asks
    each viable scheme for :meth:`estimate_ratio`, whose default compresses
    the sample through :meth:`compress` and measures the output, exactly as
    the paper's ``estimateFromSamples`` does.
    """

    scheme_id: int
    name: str
    ctype: ColumnType
    #: ``decompress(positions=)`` beats full-decode-then-take even when every
    #: row is selected, so the dispatcher's crossover never reroutes it
    #: (string dictionaries: the filtered form gathers from the cached pool).
    filtered_wins_dense: bool = False
    #: :meth:`scan` answers a number block as fast as a hit in the warm decode
    #: cache would (One Value: one comparison; Uncompressed: its payload is
    #: the values, a hit would add the CRC32), so the scan never asks it.
    scan_beats_cache: bool = False

    def is_viable(self, stats: "Stats", config: "BtrBlocksConfig") -> bool:
        """Cheap statistics-based filter (paper step 2). Default: viable."""
        return True

    def prepare_stats(self, sample: Values, stats: "Stats", config: "BtrBlocksConfig") -> None:
        """Hook to enrich stats from the sample before viability filtering.

        Pseudodecimal uses this to measure its exception fraction; most
        schemes need nothing beyond the standard statistics pass.
        """

    def dominated_by(self, stats: "Stats", survivors: "dict[int, Scheme]") -> "Scheme | None":
        """The viable scheme of this pick (``survivors``, by scheme id) that the
        statistics alone say beats this one, so it is dropped un-estimated
        (a filter in front of paper step 3). Default: none."""
        return None

    def estimate_ratio(
        self, sample: Values, stats: "Stats", ctx: "CompressionContext"
    ) -> float:
        """Estimated compression ratio for a block, from its sample + stats.

        Mirrors the paper's per-scheme ``estimateRatio`` (Listing 1): the
        default compresses the sample and measures the output. Schemes whose
        sample-compressed size is a biased predictor of the block-compressed
        size override this — Dictionary corrects the amortisation of the
        pool over the whole block, FSST holds out half the sample when
        training its symbol table.
        """
        from repro.encodings.wire import wrap

        compressed = self.compress(sample, ctx.child())
        size = len(wrap(self.scheme_id, len(sample), compressed))
        return values_nbytes(sample) / size if size else 0.0

    @abstractmethod
    def compress(self, values: Values, ctx: CompressionContext) -> bytes:
        """Compress values to a payload (header framing is the caller's job)."""

    @abstractmethod
    def decompress(
        self,
        payload: bytes,
        count: int,
        ctx: DecompressionContext,
        positions: "np.ndarray | None" = None,
        out: "np.ndarray | None" = None,
    ) -> "Values | None":
        """Inverse of :meth:`compress`, bitwise-identical, on one of three
        routes: all ``count`` values; only those at ``positions`` (sorted,
        unique, in ``[0, count)``), in position order; or all of them
        written into ``out`` (a writable view of ``count`` elements of a
        number column's dtype), returning ``None``.

        The payload is parsed once and every structural check holds on every
        route. A scheme without a selective kernel decodes whole and hands
        the values to :func:`deliver`. Selective kernels *rely* on the
        sorted contract (the public entry points establish it) and are
        vectorised only: the dispatcher sends them selections sparse enough
        to win (:func:`prefers_full_decode`), never the scalar ablation.
        """

    def scan(
        self,
        payload: bytes,
        count: int,
        ctx: DecompressionContext,
        predicate,
        want: bool,
        block_level: bool = False,
    ) -> "tuple[np.ndarray, Values | None]":
        """This scheme's predicate rule: ``(mask, values)``, the ``count``-row
        match mask and, when ``want``, the values at its hit rows in order
        (``None`` when the rule decoded none of them).

        The default decodes the node whole and evaluates: every scheme
        without a cheaper rule inherits it. Overrides answer from their
        layout (read through the same ``_parse`` as :meth:`decompress`) and
        push the predicate into their children with
        :meth:`DecompressionContext.scan_child`. The dispatcher holds every
        result to the node. Handing on hits decoded from a whole block
        (``block_level``: the node is a block's root) counts as
        ``query.cdomain.filtered.full_decodes``.
        """
        values = self.decompress(payload, count, ctx)
        mask = np.asarray(predicate.evaluate(values), dtype=bool)
        if not want:
            return mask, None
        if block_level and mask.any():
            get_registry().incr("query.cdomain.filtered.full_decodes")
        return mask, kept_values(values, mask)

    def children(self, payload: bytes, count: int) -> "list[tuple[str, bytes]]":
        """``(label, node)`` of every cascaded child node, in payload
        order (``repro.inspect`` explains a cascade with it). Default: none."""
        return []

    # ``lakebench/tracer.py`` wraps these two names as resolved through each
    # scheme's MRO; they stay as forwards so it finds them. Nothing calls them.
    def decompress_into(self, payload, count, ctx, out):
        return self.decompress(payload, count, ctx, out=out)

    def decompress_filtered(self, payload, count, ctx, positions):
        return self.decompress(payload, count, ctx, positions=positions)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} id={self.scheme_id} {self.ctype.value}>"


#: Crossover of selective vs full decode: skipping work pays only while the
#: selection touches less than 1/8 of what a full decode would process; past
#: that, one contiguous decode plus one take is cheaper than the gather
#: indirection. From the per-scheme sweep in docs/PERFORMANCE.md section 7.
FULL_DECODE_DIVISOR = 8


def prefers_full_decode(touched: int, present: int) -> bool:
    """The one crossover rule: ``touched`` of ``present`` rows' worth of work."""
    return touched * FULL_DECODE_DIVISOR >= present


def locate_sorted(haystack: np.ndarray, needles: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(insertion index, present?)`` of each needle in a sorted unique array.

    The index doubles as the number of haystack entries before the needle,
    which is what turns a row position into a rank among the *other* rows.
    """
    index = np.searchsorted(haystack, needles)
    found = np.zeros(index.size, dtype=bool)
    inside = index < haystack.size
    found[inside] = haystack[index[inside]] == needles[inside]
    return index, found


def deliver(
    values: Values,
    count: int,
    positions: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
) -> "Values | None":
    """A whole node's decoded ``values`` on the route asked for: copied into
    ``out``, taken at ``positions``, or as they are. Held to the declared
    ``count`` first, so no route copies or takes from a node that decoded
    to a different length."""
    if len(values) != count:
        raise FormatError(f"block declared {count} values but its node decoded {len(values)}")
    if out is not None:
        np.copyto(out, values, casting="unsafe")
        return None
    return values if positions is None else take_values(values, positions)


def take_values(values: Values, positions: np.ndarray) -> Values:
    """Gather ``values`` at ``positions``, preserving the sequence type."""
    if isinstance(values, StringArray):
        from repro.encodings import strutil

        return strutil.gather(values, np.asarray(positions, dtype=np.int64))
    return np.asarray(values)[positions]


def kept_values(values: Values, keep: np.ndarray) -> Values:
    """``values`` where the boolean ``keep`` is set, in order."""
    if isinstance(values, StringArray):
        return take_values(values, np.flatnonzero(keep))
    return np.compress(keep, values)


def values_nbytes(values: Values) -> int:
    """Uncompressed binary size of a value sequence (the ratio numerator)."""
    if isinstance(values, StringArray):
        return values.nbytes
    return int(np.asarray(values).nbytes)


_REGISTRY: dict[int, Scheme] = {}


def register_scheme(scheme: Scheme) -> Scheme:
    """Register a scheme instance under its wire id."""
    if scheme.scheme_id in _REGISTRY:
        raise ValueError(f"duplicate scheme id {scheme.scheme_id}")
    _REGISTRY[scheme.scheme_id] = scheme
    return scheme


def get_scheme(scheme_id: int) -> Scheme:
    """Look up a scheme by wire id."""
    try:
        return _REGISTRY[scheme_id]
    except KeyError:
        raise UnknownSchemeError(f"no scheme registered with id {scheme_id}") from None


def all_schemes() -> list[Scheme]:
    """All registered schemes, in id order."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def default_pool(ctype: ColumnType) -> list[Scheme]:
    """The default scheme pool for one data type (paper Figure 3)."""
    return [s for s in all_schemes() if s.ctype is ctype]
