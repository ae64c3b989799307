"""A small functional language with two executable semantics.

The surface language (algebraic data types, fixpoints, parametric
polymorphism, arbitrary-precision integers and naturals) evaluates under a fuelled
environment-based interpreter. The same programs translate to a de Bruijn
kernel calculus with a substitution-based evaluator, and the two are checked
against each other differentially. On top sits a block-structured chain
simulator for the bundled contracts.
"""

__version__ = "0.1.0"
