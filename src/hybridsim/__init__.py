"""hybridsim: simulate hybrid programs (a while-language with differential
statements) under a failure-aware operational semantics, with an exact
matrix-exponential backend and a fixed-step RK4 backend."""
from importlib import resources

from .syntax import (parse, parse_program, parse_expression, parse_boolean,
                     desugar, pretty, pretty_unit, ordered_vars, ParseError,
                     ArityError)
from .errors import ErrorInfo, ErrorKind, HybridError
from .linearize import AffineSystem, to_affine
from .odesolve import (Exact, RK4, Solution, NumericalOverflow, solve_exact,
                       solve_rk4)
from .semantics import (Limits, Skip, Stop, Err, BoundReached, BoundKind,
                        Config, big_step, small_step, run_to_terminal,
                        applicable_rules, eval_expr, eval_bool)
from .trajectory import (Trajectory, Segment, expand_variability, simulate,
                         consistency_check, interp_at, VariabilityCapExceeded)
from .export import (parse_axes, make_plot_spec, export_csv, export_json,
                     emit_plot_script, PlotSpec)
from .cli import cli_main

__version__ = "0.1.0"


def corpus_path(name: str):
    """Filesystem path of a bundled example program, e.g. corpus_path('eq1')."""
    if not name.endswith(".lince"):
        name += ".lince"
    return resources.files(__package__).joinpath("corpus", name)
