"""Introspection: explain the cascade inside compressed blocks.

``explain_block`` parses a compressed node and returns the cascade as a tree
of :class:`CascadeNode` — which scheme encoded the block, how large each
part is and which schemes its children cascaded into. ``format_tree``
renders it like::

    dictionary[string] n=64000 12.4KB
      codes: rle[integer] n=64000 1.1KB
        values: fastbp128[integer] n=1582 0.4KB
        lengths: fastbp128[integer] n=1582 0.3KB

This is the debugging surface an engineer working on scheme selection needs;
it is also wired into ``python -m repro inspect --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import CompressedColumn
from repro.encodings.base import get_scheme
from repro.encodings.wire import unwrap
from repro.types import ColumnType


@dataclass
class CascadeNode:
    """One node in a compressed block's cascade tree."""

    scheme: str
    ctype: ColumnType
    count: int
    nbytes: int
    children: list[tuple[str, "CascadeNode"]] = field(default_factory=list)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for _, child in self.children)

    def scheme_names(self) -> set[str]:
        names = {self.scheme}
        for _, child in self.children:
            names |= child.scheme_names()
        return names


def explain_block(blob: bytes, ctype: ColumnType) -> CascadeNode:
    """Parse one compressed node (and its children) into a cascade tree.

    Each composite scheme names its child nodes (``Scheme.children``, read
    through the same ``_parse`` as its decode), so no payload layout is
    read here."""
    scheme_id, count, payload = unwrap(blob)
    scheme = get_scheme(scheme_id)
    node = CascadeNode(scheme.name, scheme.ctype, count, len(blob))
    for label, child in scheme.children(payload, count):
        node.children.append((label, explain_block(child, ctype)))
    return node


def format_tree(node: CascadeNode, label: str = "", indent: int = 0) -> str:
    """Render a cascade tree as indented text."""
    prefix = "  " * indent + (f"{label}: " if label else "")
    size = f"{node.nbytes / 1024:.1f}KB" if node.nbytes >= 1024 else f"{node.nbytes}B"
    lines = [f"{prefix}{node.scheme}[{node.ctype.value}] n={node.count} {size}"]
    for child_label, child in node.children:
        lines.append(format_tree(child, child_label, indent + 1))
    return "\n".join(lines)


def explain_column(column: CompressedColumn, block: int = 0) -> str:
    """Human-readable cascade tree of one block of a compressed column."""
    node = explain_block(column.blocks[block].data, column.ctype)
    return format_tree(node)
