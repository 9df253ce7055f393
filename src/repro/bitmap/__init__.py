"""Roaring bitmap substrate.

BtrBlocks uses Roaring bitmaps (Lemire et al. [43]) to store NULL positions
for every column and exception positions for encodings such as Frequency and
Pseudodecimal. The paper links against the CRoaring C library; this package
is a from-scratch NumPy implementation of the same container design.
"""

from repro.bitmap.roaring import RoaringBitmap, strictly_increasing

__all__ = ["RoaringBitmap", "strictly_increasing"]
