"""Abelian squares in infinite words: exact counting, growth bounds, search.

The package splits into exact word machinery (`words`, `counting`),
generators for the classical infinite words (`substitutions`, `sturmian`),
exact quadratic arithmetic backing the rotation analysis (`quadratic`,
`discrepancy`), empirical study helpers (`analysis`), and exhaustive
finite-word search (`search`).  The `cli` module exposes all of it as the
``absquares`` command.  Library code imports from the submodules, for
example ``from absquares.counting import asf_profile``.
"""

__version__ = "0.1.0"
