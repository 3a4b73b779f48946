"""State-integral invariants of shaped triangulations.

Building blocks: the noncompact quantum dilogarithm and hyperbolic gamma
function, certified oscillatory quadrature, a combinatorial model of
oriented triangulated pseudo-3-manifolds with dihedral-angle structures,
the gauge-fixed partition function with its invariance checks, a suite of
integral identities (pentagons, beta integrals, kernel compositions), and
the hyperbolic-volume layer (maximization, Thurston gluing residuals).

Importing the package pins BLAS to one thread unless the environment
already sets it, before any submodule imports numpy (OpenBLAS reads the
variables then): the line builds issue small GEMMs, and on a loaded 2-core
host a multi-threaded 32x360 by 360x32 complex product took 32 ms against
0.08 ms on one thread.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .complexes import (GaugeFixing, Gluing, Tetrahedron, Triangulation,
                        build_complex, edge_weight, angle_holonomy,
                        pachner_32, shape_gauge_transform, standalone_bipyramid,
                        state_gauge_image, tas_basis)
from .errors import (BadGluing, BadLoop, BoundaryDegeneration, ConstraintViolation,
                     DecayEstimateFailure, InvalidGauge, NonConvergence,
                     NotApplicable, NotCritical, PoleHit, QuadratureFailure,
                     ShapedTqftError, ShapeViolation, WeightOutOfRange)
from .geometry import (gluing_residual, maximize_volume_in_gauge_class,
                       shape_parameters, shape_volume)
from .params import EllipticBases, ModularParameter
from .qdilog import FaddeevDilog, phi_b
from .quadrature import IntegralResult, QuadratureConfig, integrate_1d, integrate_nd
from .special import (bernoulli_b22, cap_psi, cap_psi_direct, classical_beta,
                      elliptic_gamma, hyper_B, hyperbolic_gamma, lobachevsky,
                      psi_fn, theta_fn)
from .tqft import (BoltzmannEvaluator, PartitionResult, check_pachner_invariance,
                   check_shape_gauge_invariance, faddeev_popov_check,
                   partition_function, tet_weight)

__version__ = "0.1.0"
