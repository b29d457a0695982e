"""Simulator and stability-certificate toolkit for kinetic transport on
networks of circles with delayed, scattering junction couplings."""

from .errors import (BracketError, CflError, DomainError, ExtinctionFlag,
                     HistoryGapError, KinnetError, PreconditionError,
                     SchemaError, SmallGainViolation, ValidationError)
from .model import (AbsorptionProfile, CircleSpec, DelayMeasure, NetworkBounds,
                    NetworkSpec, ScatteringKernel, load_network,
                    measure_laplace, measure_total_variation, network_bounds,
                    routing_norm)
from .operators import (BlockOperator, GainAssemblyReport, VelocityGrid,
                        assemble_gain, assemble_pd, dirichlet_norm_closed_form,
                        pd_norm_closed_form)
from .spectral import (AbscissaResult, BoundCheck, Certificate, IssConstants,
                       c_check, iss_constants, resolvent_constant_c,
                       small_gain_certificate, spectral_abscissa,
                       spectral_radius)
from .simulator import Scenario, SimState, Trajectory, make_scenario, run
from .analysis import (DecayFit, IssReport, SweepResult, disturbance_lp_norm,
                       fit_decay, scale_spec, sweep, verify_iss)
from . import presets

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
