"""Weighted zero-sum invariants of cyclic groups Z_n.

Computes the weighted Davenport constant and its length-n companion for cube
(and other) weight sets, extracts explicit certificates, builds and verifies
zero-sum-free witnesses, and classifies extremal sequences up to the orbit
equivalence.  Everything desk scale is exact and double-checked by brute
force oracles in the test suite.
"""

__version__ = "0.1.0"
