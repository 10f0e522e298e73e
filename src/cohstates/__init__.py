"""Coherent states for a quantum particle on a circle and on a sphere.

Log-domain numerics, the zero-twist e(3) representation, three independent
coherent-state constructions, phase-space expectation values, and the free
rotator's energy distribution, with a CLI for reports and verification.
"""

from .errors import ConstraintError
from .logdomain import wrap_phase
from .specfun import gegenbauer_column, hyp2f1_terminating, log_factorial
from .repspace import (BandTable, StateVector, apply_J, apply_X, apply_Z,
                       basis_state, expectation, operator_table,
                       residual_norm, state_scale, state_sum)
from .spinor import exp_minus_k_table, k_table, v_table
from .circle import (CirclePhasePoint, CircleState, CircleUncertainty,
                     circle_coherent, circle_eigen_residual, circle_expect_J,
                     circle_expect_U, circle_relative_U,
                     circle_uncertainty_report)
from .sphere import (SpherePhasePoint, SphereUncertainty, ZLabel,
                     axis_reference_label,
                     coherent_closed_form, coherent_ladder_generated,
                     coherent_state, coherent_triple_sum, eigen_residual,
                     expect_J, expect_X, generation_params,
                     max_amplitude_rel_diff, north_pole_state, phase_to_z,
                     relative_X, uncertainty_J)
from .rotator import (DistributionTable, argmax_j, argmax_m, classical_peak_j,
                      distribution_from_state, rotator_energy)

__version__ = "0.1.0"
