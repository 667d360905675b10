"""Exception types shared across the package.

Everything raised on purpose derives from LineCoxError so callers can catch
the whole family at once. Bad input, an argument or configuration the
request should not have made, derives from InputError, which is also a
ValueError; this module alone decides what counts as bad input, and, in
``_shown``, how a message shows the value it refuses. The CLI maps errors
to exit codes by type: any ValueError (so every InputError) exits 2,
QuadratureFailure exits 3, and every other LineCoxError exits 4.
"""

import operator

__all__ = [
    "LineCoxError", "InputError", "NonFinite", "NegativeIntensity", "ZeroMu",
    "NonPositiveScale", "NegativeT", "NotAnInteger", "NonPositiveParameter",
    "NonPositiveRadius", "TBeyondClip", "TooManyLines", "TooManyPoints",
    "PolicyBudgetNegative", "DomainError", "QuadratureFailure",
    "GridMismatch", "NoBracket",
]


def _shown(x) -> str:
    """The text a message uses for the value ``x``: its repr, except that an
    int outside [-2**63, 2**63), Python's or numpy's, shows as its sign and
    bit length ("a 16610-bit int", "a negative 64-bit int"), and a value
    whose repr cannot be built, such as a Fraction past Python's limit on
    printed digits, as its type name. So building a message never fails."""
    try:
        n = operator.index(x)  # an int, Python's or numpy's, but no timedelta64
    except TypeError:
        n = 0
    if not -2**63 <= n < 2**63:
        return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit int"
    try:
        return repr(x)
    except Exception:
        return f"a {type(x).__name__}"


class LineCoxError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(LineCoxError, ValueError):
    """Base class for bad input: a parameter, distance, budget or curve
    that the request should not have given."""


# ---- parameter validation -------------------------------------------------

class NonFinite(InputError):
    """A numeric input was nan or inf. The message names the field."""


class NegativeIntensity(InputError):
    """An intensity (lambda, mu, or a point density) was negative."""


class ZeroMu(InputError):
    """mu == 0; the on-line point process would be empty and several
    expressions divide by mu."""


class NonPositiveScale(InputError):
    """Scale factor for rescaling must be finite and > 0."""


class NegativeT(InputError):
    """Distance argument t must be >= 0."""


class NotAnInteger(InputError):
    """A count, seed, worker number or turn budget was not an integer. The
    message names the field."""


class NonPositiveParameter(InputError):
    """A physical parameter that must be strictly positive was not."""


# ---- sampling / geometry --------------------------------------------------

class NonPositiveRadius(InputError):
    """Clip radius must be > 0."""


class TBeyondClip(InputError):
    """A query distance exceeds the sampled clip radius; results there
    would silently miss geometry."""


class TooManyLines(InputError):
    """The expected line count per trial, lam * pi * clip_radius, exceeds
    ``sampler.MAX_EXPECTED_LINES``; such a run is rejected before it draws
    rather than left to exhaust memory."""


class TooManyPoints(InputError):
    """The expected point count per line, 2 * mu * clip_radius, exceeds
    ``sampler.MAX_EXPECTED_POINTS``, or per trial, lines times points per
    line, ``sampler.MAX_TRIAL_POINTS``; or a chunk of more than one trial
    costs more than ``MAX_TRIAL_POINTS``, counting each trial's expected
    lines and points and its fixed cost, ``sampler._TRIAL_FIXED_COST``.
    Such a run is rejected before it draws rather than left to exhaust
    memory."""


class PolicyBudgetNegative(InputError):
    """Turn budget k must be >= 0; raised when the TurnPolicy is built."""


class DomainError(InputError):
    """Arguments fell outside the domain a formula is defined on, such as
    the arcs of ``two_turn_T`` out of order."""


# ---- numerics -------------------------------------------------------------

class QuadratureFailure(LineCoxError):
    """An integral could not be evaluated to the requested tolerance.

    Carries the best value and error estimate seen.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class GridMismatch(InputError):
    """Two curves share no usable common grid."""


class NoBracket(LineCoxError):
    """Root bracketing failed: the requested quantile is not reached below
    the search cap."""
