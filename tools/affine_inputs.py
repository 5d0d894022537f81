"""The affine grid's inputs: random right-hand sides of every shape the
linearizer accepts or rejects, perturbed environments, and what building a
system from them gives.  `tools/affine_grid.py` draws its grid from them,
and `tests/test_linearize.py` its random statements.

Import it once the `hybridsim` to be run is on `sys.path`: the nodes it
builds and the errors it catches are that checkout's.
"""
from hybridsim.errors import HybridError
from hybridsim.syntax import Apply, Const, Var


def system_or_error(build, diff, env) -> tuple:
    """What building the system gives: its vars, the bytes of A, b and M
    and `closed_form`, or the error with the environment it carries."""
    try:
        s = build(diff, env)
    except HybridError as ex:
        return "err", ex.info, ex.info.env
    return s.vars, s.A.tobytes(), s.b.tobytes(), s.M.tobytes(), s.closed_form


# values a frozen variable takes in the perturbed environments (the zeros
# twice, as they are the ones that tell -0.0 and zero divisors apart)
ODD_VALUES = (0.0, -0.0, 0.0, -0.0, 1e308, -1e308, 5e-324, 2, 2**70)


def perturbed(rng, frozen, base) -> dict:
    env = dict(base)
    for name in frozen:
        r = rng.random()
        if r < 0.05:
            env.pop(name, None)
        elif r < 0.4:
            env[name] = rng.choice(ODD_VALUES)
        else:
            env[name] = rng.randrange(-16, 17) / 4.0
    return env


def gen_rhs(rng, bound, frozen, depth):
    """Right-hand sides of every shape the tree path accepts or rejects:
    the affine combinators with frozen or bound operands on either side,
    unary minus, frozen calls and divisors, and non-affine nodes."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        w = rng.random()
        if w < 0.4:
            return Var(rng.choice(bound))
        if w < 0.7:
            return Var(rng.choice(frozen))
        return Const(rng.choice((0.0, -0.0, 0.5, -3.0, 1e308)))

    def sub():
        return gen_rhs(rng, bound, frozen, depth - 1)

    if r < 0.45:
        return Apply(rng.choice("+-"), (sub(), sub()))
    if r < 0.55:
        return Apply("-", (sub(),))
    if r < 0.7:
        return Apply("*", (sub(), sub()))
    if r < 0.85:
        return Apply("/", (sub(), sub()))
    if r < 0.95:
        return Apply(rng.choice(("sqrt", "sin", "exp")), (sub(),))
    return Apply("min", (sub(), sub()))
