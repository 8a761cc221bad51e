"""Exact computations around nilpotent slices in classical and
exceptional Lie algebras.

Everything runs over Q (or Q adjoined sqrt 2) with Fraction arithmetic;
there is no floating point anywhere, so every identity check is an exact
polynomial comparison.
"""

__version__ = "0.1.0"
