"""quadkit: exact computer algebra and computational geometry for cyclic
quadrilaterals, tilted kites and related four-point conditions."""

from .poly import GREVLEX, LEX, MonomialOrder, Polynomial, VarSet, det
from .groebner import (GroebnerBasis, GroebnerTimeout, buchberger,
                       divmod_multi, elimination_ideal, ideal_membership,
                       normal_form, radical_membership, s_polynomial)
from .radicals import RadicalValue, sqrt_rational, squarefree_decompose
from .geometry import (DistSextuple, HullClass, Point, QuadConfig,
                       cayley_menger, classify_hull, cocircularity,
                       config_from_obj, config_svg, config_to_obj, gen_cyclic,
                       gen_folded, gen_reflected, gen_tilted_kite,
                       midpoint_distances, random_quad, reflect_over_line)
from .conditions import (CONDITION_NAMES, IDENTITY_NAMES, condition_poly,
                         eval_condition, midpoint_v_formulas,
                         verify_all_identities, verify_identity)
from .certificates import (CLAIMS, Certificate, run_certificates)

__version__ = "0.1.0"
