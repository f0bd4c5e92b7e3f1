"""Exact Ehrhart and h*-polynomials of lattice zonotopes.

The package computes, in exact integer/rational arithmetic:

* Ehrhart polynomials and h*-vectors of lattice zonotopes, half-open cubes
  and parallelepipeds, and their [-1,1]-coefficient (type-B) variants;
* refined Eulerian polynomials of types A and B via independent
  enumeration and recurrence/identity paths;
* the matroid structure of a generator configuration (independent sets,
  bases, internally passive elements, coloops);
* coefficient-shape predicates (real-rootedness by Sturm chains,
  unimodality, palindromicity, alternating increase, cone membership,
  reflexivity);
* a brute-force lattice-point oracle used as formula-independent ground
  truth.
"""

from types import ModuleType as _ModuleType

from .errors import (DependentSetError, EnumerationLimitError,
                     InternalDisagreementError, LatticeMathError)
from .eulerian import (a_j_polynomial, a_j_polynomial_enumerate,
                       b_l_polynomial_enumerate, b_l_polynomial_via_a,
                       descent_count, descent_set, eulerian_a,
                       eulerian_a_enumerate, eulerian_b, eulerian_b_via_a,
                       j_descent_set, l_descent_set_b, signed_descent_count,
                       signed_descent_set, signed_permutations)
from .matroid import VectorConfiguration
from .oracle import (bounding_box, contains_point, count_interior_lattice_points,
                     count_lattice_points, ehrhart_via_oracle, hstar_via_oracle,
                     interpolate_ehrhart)
from .polycore import (HStarVector, Poly, count_distinct_real_roots,
                       ehrhart_from_hstar, express_in_shifted_power_basis,
                       hstar_from_ehrhart, is_alternatingly_increasing,
                       is_palindromic, is_real_rooted, is_unimodal,
                       symmetric_decomposition)
from .zonotope import (BoxValuationTable, ZonotopeSpec, default_box_table,
                       ehrhart, ehrhart_halfopen_cube, ehrhart_type_b_zonotope,
                       ehrhart_zonotope, eulerian_ray_parallelepiped,
                       express_in_eulerian_basis, hstar, hstar_halfopen_cube,
                       hstar_halfopen_parallelepiped, hstar_totally_unimodular,
                       hstar_type_b_zonotope, hstar_zonotope, is_in_zonotope_cone,
                       is_reflexive_by_ehrhart)

__version__ = "0.1.0"

# The public names are the imported functions, classes and constants; the
# submodules that importing them binds here are not among them.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
