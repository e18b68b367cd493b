"""Exact dimension functions for modules over group rings of amenable groups.

The library computes, in exact arithmetic over F_p or Q:

* the Ore dimension of finitely presented modules over k[Z^d] (rank over
  the rational function field),
* Foelner-truncation dimensions (Elek's dimension through truncated
  cokernels),
* normalized Betti numbers along residual chains of finite quotients,
* virtual Ore dimensions through restriction to finite-index subgroups,

for the built-in group models Z^d, the infinite dihedral group, and the
discrete Heisenberg group, plus homology dimensions of finite free chain
complexes over these group rings.
"""

from .chains import (FreeChainComplex, build_degree_p_attachment, build_koszul,
                     char_comparison, finite_group_betti, homology_report,
                     ore_homology, quotient_homology)
from .dimensions import (Record, approx_report, default_subgroup,
                         elek_truncation_dim, ore_dim, quotient_betti_dim,
                         virtual_ore_dim)
from .errors import (MismatchError, OredimError, SchemaError,
                     UnsupportedOperationError)
from .fields import Field, PrimeField, Rationals, is_prime
from .groupring import (GroupRingElement, GroupRingMatrix, PresentedModule,
                        Sublattice, TranslationSubgroup, compress_to_folner,
                        induce_to_quotient, restrict_scalars, to_laurent)
from .groups import (DihedralInfinite, FiniteQuotient, FolnerSet, Group,
                     Heisenberg, Zd)
from .linalg import (LaurentMatrix, PlainMatrix, RankReport, rank_dense,
                     rank_laurent, rank_laurent_bareiss,
                     rank_laurent_probabilistic, rank_plain, rank_sparse)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
