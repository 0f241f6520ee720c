"""Totally geodesic Radon transforms on constant-curvature spaces and their
derivative-based inversion formulas, validated against quadrature oracles."""

from .constants import (LOG_ODD, SGN_EVEN, SHIFTED_DUAL, InversionConstant,
                        c_k_value, inversion_constant, lambda_weight,
                        sphere_area, theta_k)
from .dual_ops import (BothSides, DualConfig, Lambda_r, McEstimate,
                       dual_shifted_mc, dual_shifted_mean,
                       weighted_dual_both_sides)
from .fields import (PHANTOMS, ScalarField, make_phantom, rotate_field,
                     zonal_field)
from .geometry import (EUCLIDEAN, HYPERBOLIC, SPHERE, Curvature, Geodesic,
                       Point, Rotation, Space, base_point, center_distance,
                       distance_rho, geodesic, geodesic_at_distance,
                       haar_rotation, point, rotate_geodesic)
from .inversion import (ChebyshevTable, GridSpec, InversionReport,
                        invert_mader, invert_shifted_dual, mader_classical,
                        mader_radial_average, tabulate_radial_average)
from .kernels import (KernelParams, lambda_coeffs, mu_alpha, phi_closed,
                      phi_oracle, psi_k_closed, psi_sign, theta_alpha)
from .numerics import (RadialProfile, endpoint_derivative, gauss_legendre,
                       quad_log_singular)
from .transforms import radon_forward, spherical_mean, tilde_mean

__version__ = "0.1.0"
