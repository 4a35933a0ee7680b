"""Exact verification toolkit for quasi-Hopf algebras, their comodule
algebras, product constructions and Hopf-module category isomorphisms.

All arithmetic is exact (rationals or a prime field); every identity
check is an exact equality of sparse tensors with no tolerance.
"""

from .fields import Field, Fp, PrimeField, QQ, RationalField, parse_field
from .tensor import Basis, LinearMap, Tensor, product_basis
from .linalg import RowSpan, solve_linear
from .algebra import (FinAlgebra, LegMul, flat_pairing,
                      invert_in_tensor_algebra, invert_linear_map, mul_legs,
                      sandwich, sweedler)
from .report import CheckRecord, VerificationReport
from .quasihopf import (DerivedElements, DualView, NotGaugeError,
                        NotInvertibleError, QuasiBialgebra, QuasiHopfAlgebra,
                        check_dual_bimodule_algebra,
                        check_quasibialgebra, check_quasihopf, is_gauge,
                        normalize_alpha_beta, twist, verify_core_identities)
from .coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                    LeftModuleAlgebra, RightComoduleAlgebra,
                    RightModuleCoalgebra, canonical_bicomodule,
                    canonical_left_comodule, canonical_module_coalgebra,
                    canonical_right_comodule, check_bicomodule_algebra,
                    check_left_comodule_algebra, check_left_module_algebra,
                    check_right_comodule_algebra,
                    check_right_module_coalgebra, verify_tilde_identities)
from .products import (HeisenbergDouble, HomSmash, ProductAlgebra,
                       QuasiSmash, generalized_smash, quasi_smash,
                       smash_product, two_sided_crossed,
                       verify_crossed_decomposition,
                       verify_heisenberg_double, verify_hom_smash)
from .hopfmod import (RelativeHopfModule, TwoSidedHopfModule,
                      canonical_first_module, canonical_second_module,
                      check_relative_hopf_module,
                      check_two_sided_hopf_module, cyclic_right_submodule,
                      module_isomorphism, relative_from_smash_module,
                      relative_from_two_sided,
                      seeded_cyclic_module, smash_action_from_two_sided,
                      transport_module,
                      two_sided_from_relative, two_sided_from_smash_module,
                      verify_canonical_modules,
                      verify_module_correspondence)
from .doihopf import (BimoduleCoalgebra, CrossedHopfModule, DoiHopfModule,
                      algebra_action_from_doi, canonical_bimodule_coalgebra,
                      check_bimodule_coalgebra, check_crossed_hopf_module,
                      check_doi_hopf_module, crossed_comodule_algebra,
                      crossed_from_doi, crossed_smash_direct,
                      doi_from_algebra_module, doi_from_crossed,
                      dual_module_algebra, hhop_module_coalgebra,
                      nested_smash_direct, verify_crossed_module_description)
from .classical import (ClassicalHopf, NotApplicableError,
                        from_structure_constants, verify_classical_agreement)
from .corpus import (corpus, cyclic_group_algebra, group_algebra,
                     hopf_seeds, klein_group_algebra, klein_twist,
                     quasi_z2, symmetric_group_algebra, twisted_klein)
from . import specfile
from . import cli

__version__ = "0.1.0"
