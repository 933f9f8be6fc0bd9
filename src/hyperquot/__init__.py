"""Exact partition functions of hyperquot schemes on smooth projective curves.

Coefficients live in the E-polynomial realization of the Grothendieck ring
of varieties; series are windowed Laurent series over the multidegree
lattice.  The closed formulas are verified against a brute-force
fixed-component enumeration (the ``oracle`` module).

The package root exports nothing: each name is imported from its module
(``hyperquot.formulas``, ``hyperquot.qseries``, ``hyperquot.epoly``, ...).
"""
