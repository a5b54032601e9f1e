"""Learning and certifying near-maximal Lyapunov functions.

A small tanh network is trained against the PDE that characterizes the
maximal Lyapunov function of an asymptotically stable equilibrium, and
its sublevel sets are then certified as regions of attraction with a
sound interval branch-and-bound engine.
"""

from .dynamics import SystemDef, builtin, linearize, solve_lyapunov, lambda_min
from .expr import VectorField, parse
from .interval import Box, Certified, Falsified, Unknown, bnb_verify
from .net import Mlp, TrainConfig, init_mlp, train
from .ode import BetaKind, IntegratorConfig, advance_batch, gen_dataset
from .verify import (find_max_level, find_max_local_c, verify_local,
                     verify_roa, volume_fraction)

__version__ = "0.1.0"
