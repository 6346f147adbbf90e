"""Exact double brackets on free associative algebras.

The package computes double brackets under the four standard bimodule
structures on the tensor square (with twists), decides Poisson and weak
Poisson properties, transports brackets along equivalences, induces the
corresponding Poisson structures on coordinate rings of generic-matrix
representation spaces, verifies matrix solutions of the classical
Yang-Baxter equation together with their entry brackets, and classifies
gradient-type brackets on three generators.  All arithmetic is exact
rational arithmetic.
"""

from .bimodule import (Bimodule, BimodKind, SwapCommutingReport, act,
                       check_swap_commuting, swap_bimodule)
from .commpoly import CPoly, poisson_biderivation
from .dbracket import (AntisymReport, DoubleBracket, JacVerdict, SwapAuto,
                       TwistPairAuto, apply_equivalence, bracket_left,
                       bracket_pair_left, bracket_pair_right, bracket_right,
                       bullet_bracket, check_antisymmetry, eval_bracket,
                       is_poisson, is_weak_poisson, jacobiator,
                       jacobiator_form, mult_bracket, permute_args,
                       swap_equivalent, sym_jacobi_defect,
                       sym_necklace_bracket, weak_jacobiator)
from .freealg import (AlgEndo, FreeAlgebra, NCPoly, Necklace, Tensor2, Tensor3,
                      apply_endo, apply_endo_tensor2, perm_invert,
                      tensor3_perm, transposition)
from .gradient import (ClassifyReport, classify, double_derivation,
                       family_polynomial, gradient_bracket, gradient_gen_table,
                       is_fully_noncommutative, symmetrize)
from .parsing import (ParseError, SessionSpec, parse_poly, parse_rational,
                      parse_session, parse_tensor2)
from .repspace import (EntryVar, MatPoly, PoissonStructure, RepJacobiReport,
                       entry_name, eval_nc, induce, jacobi_defect,
                       jacobi_sweep, matrix_tensor_bracket, poisson_eval,
                       trace_bracket)
from .ybe import (EntryBracket, MatTensor2, MatTensor3, casimir,
                  check_entry_jacobi, cybe_defect, entry_bracket,
                  format_mat_tensor2, parse_mat_tensor2, standard_r)

__version__ = "0.1.0"
