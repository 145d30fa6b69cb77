"""Variable-exponent p(x)-Laplacian energies on discrete positive cones.

Library layout, each module importing only from those above it and the
two leaves ``expressions`` (the formula language) and ``reporting``
(validation tables):

* ``grid``        meshes, nodal fields, gradients, quadrature
* ``exponents``   exponent fields, modular, Luxemburg norm
* ``anisotropy``  integrand families A(x, xi) and their fluxes
* ``energy``      discrete energies, line restrictions, Gateaux gradients
* ``inequality``  convexity / gap / comparison checkers of given fields
* ``problems``    problem specs, each with its energy model, and
                  hypothesis validators
* ``solver``      energy minimization, eigenpairs, and the uniqueness and
                  weak-comparison experiments
* ``cli``         command-line front end (``pxlaplace`` entry point)
"""

from . import anisotropy, energy, exponents, expressions, grid, \
    inequality, problems, reporting, solver
from .anisotropy import (AnisotropyModel, check_hypothesis_A,
                         check_N_strict_convexity, eval_A, eval_N, flux_a,
                         isotropic, weighted_quadratic)
from .energy import (AbsorptionTerm, EnergyModel, KirchhoffTerm, M_hat,
                     ReactionTerm, W_A_functional, W_functional, energy_E,
                     energy_E_hat, energy_J, gateaux_gradient, phi_line,
                     phi_prime, potential_F, potential_G, power_absorption,
                     power_reaction, saturating_kirchhoff, source_reaction)
from .exponents import (ExponentField, exponent_bounds, exponent_field,
                        luxemburg_norm, modular, sobolev_conjugate,
                        validate_exponent_hypothesis)
from .expressions import ScalarExpr, parse_expr
from .grid import (Mesh, NodeField, build_interval, build_rectangle,
                   cell_average, cell_gradient, constant_field, integrate,
                   interpolate)
from .inequality import (ComparisonVerdict, GapReport, check_ray_convexity,
                         comparison_check, diaz_saa_gap, ratio_bound)
from .problems import (ProblemSpec, build_energy_model, sharpness_regime,
                       validate_corollary_chain, validate_f, validate_g,
                       validate_M)
from .solver import (SolveReport, SolverOptions, first_eigenpair,
                     hopf_diagnostic, initial_guess, minimize_energy, solve,
                     solve_kirchhoff, solve_problem1, solve_problem2,
                     uniqueness_experiment, weak_comparison_experiment,
                     weak_residual)

__version__ = "0.1.0"
