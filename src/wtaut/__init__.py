"""wtaut: exact computer algebra for Weierstrass cycles and tautological rings.

Computes pullbacks of equivariant Schubert classes to moduli of pointed
(possibly singular, irreducible) curves, Weierstrass cycle classes and
their pushforwards, relation ideals, and Hilbert-function sandwich
bounds for tautological rings, all in exact rational arithmetic.
"""

from .exactalg import (
    MultiPoly,
    PSI,
    Variable,
    det,
    kap,
    lam,
    zvar,
)
from .errors import DataError, ResourceError
from .pullback import (
    bernoulli,
    kstar_power_sum,
    kstar_power_sum_roots,
    kstar_schubert,
    mumford_generators,
    mumford_reduce,
    smooth_power_sum,
)
from .schur import factorial_schur, in_roots, psi_matrix, root_orbits, shifted_schur
from .semigroups import (
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
)
from .tautring import (
    HilbertReport,
    hilbert_quotient_lower,
    hilbert_quotient_upper,
    relation_generators,
    sandwich_report,
)
from .wcycles import (
    CycleClass,
    push_to_unpointed,
    virtual_class,
    weierstrass_class,
)

__version__ = "0.1.0"
