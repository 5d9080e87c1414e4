"""Exact combinatorics and linear algebra for coverings of nodal curves.

The package computes with the free-product fundamental groups of nodal
curves, the coverings attached to their finite-dimensional representations
over F_p(t), constant-coefficient descent twists and their integral models,
Frobenius-divided data, and function Hopf algebras of finite groups.
"""

__version__ = "0.1.0"
