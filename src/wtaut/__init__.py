"""wtaut: exact computer algebra for Weierstrass cycles and tautological rings.

Computes pullbacks of equivariant Schubert classes to moduli of pointed
(possibly singular, irreducible) curves, Weierstrass cycle classes and
their pushforwards, relation ideals, and Hilbert-function sandwich
bounds for tautological rings, all in exact rational arithmetic.

The package re-exports nothing: each public name is imported from its
module, whose __all__ lists it.  The modules form layers, and each one
imports only modules of lower layers:

* errors (DataError, ResourceError, UsageError) and exactalg (Variable,
  Layout, MultiPoly, Echelon, det);
* semigroups: partitions, numerical semigroups and their enumeration;
* schur: factorial and shifted Schur polynomials, the Kempf-Laksov
  matrices and the x-root view;
* pullback (Schubert and power-sum pullbacks, the Mumford quotient) and
  wcycles (Weierstrass and virtual cycle classes, their pushforwards);
* tautring: relation generators and the Hilbert-function sandwich;
* cli: the command-line reports.
"""

__version__ = "0.1.0"
