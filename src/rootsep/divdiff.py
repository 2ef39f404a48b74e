"""Divided differences, the reduction's rows.

The pipeline builds the rows of the reduced matrix W_1, divided differences
of the power basis, on the rung grid: `bounds._w1` runs the complete
homogeneous recurrence h_i += v h_{i-1} exactly on Gaussian integers. The
tests check it against three exact routes on Gaussian rationals (recursive,
explicit and monomial, in `tests/oracles.py`), compared by equality; the
module stays as the package's layer of that name.
"""
