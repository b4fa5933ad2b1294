"""Exact arithmetic for planes in Z^4.

Rank-2 primitive sublattices of Z^4 are enumerated through their Plucker
coordinates, counted against closed formulas built from sums of three
squares, matched with pairs of integer vectors through the Klein
correspondence, and tied to a two-variable Euler product whose local
factors are checked symbolically.  Everything that can be exact is exact:
integers, Fractions, Laurent polynomials.  Floats appear only in the two
numerical checks (L-values and the global Dirichlet-series comparison).
"""

from planes.quaternion import Quaternion, TracelessQuaternion
from planes.lattice import (
    Plane,
    PluckerVector,
    enumerate_planes,
    orth_complement,
    plucker_of_basis,
)
from planes.qform import (
    ClassGroup,
    FormClass,
    GenusPartition,
    QuadForm,
    class_group,
    compose,
    genus_partition,
    gl2_class,
    opposite,
    reduce,
)
from planes.repnum import (
    RepDecomposition,
    r3,
    r24_formula,
    r24_oracle,
    rs3_coeffs,
)
from planes.klein import (
    KleinPair,
    gauss_map,
    klein_map,
    mu_image,
)
from planes.mds import (
    MultiPoly,
    RationalFn,
    l_value_check,
    p_local,
    q_local,
    rf_equal,
    rs3_identity_numeric,
    verify_local_identity,
)

__version__ = "0.1.0"
