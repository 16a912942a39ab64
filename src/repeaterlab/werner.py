"""Closed-form fidelity maps for Werner pairs under swapping and purification.

A Werner pair with fidelity ``f`` keeps weight ``w = (4f - 1)/3`` on the
target Bell state and the rest on the fully mixed state.  Swapping,
purification and memory decay (:mod:`repeaterlab.noise`) all have the form
``1/4 + (3/4) * (weight)``, so a weight in [0, 1] keeps the fidelity in
[1/4, 1].  The density-matrix reference circuits live in :mod:`repeaterlab.dmsim`.

Every number the package takes passes one rule, :func:`_real` or
:func:`_integer`: a ``bool``, a non-number or a non-integer where an integer
is needed raises ``TypeError``; NaN, an infinity, an int past the float
range or a value out of range raises ``ValueError``.  Both name the parameter.
Its common case, a float in (0, 1], :func:`validate_fidelity` returns at once.
"""

from __future__ import annotations

import math
import numbers
import sys

FIDELITY_TOL = 1e-12

# Fully mixed two-qubit state: fidelity 1/4 to every Bell state.
MIXED_FIDELITY = 0.25

#: Below this the pair is indistinguishable from white noise and every map
#: stops being informative; chain traces are truncated here.
DEGENERACY_THRESHOLD = MIXED_FIDELITY + 1e-12


class NoValidRangeError(ValueError):
    """Purification cannot gain fidelity anywhere in (1/4, 1] for these gates."""


def validate_fidelity(f: float, name: str = "f") -> float:
    """Check ``f`` is a physical fidelity and clamp rounding spill to [0, 1].

    Values outside [0, 1] by more than ``FIDELITY_TOL`` are rejected;
    anything closer is treated as accumulated floating-point error.
    """
    if f.__class__ is float and 0.0 < f <= 1.0:
        return f
    return min(1.0, max(0.0, _real(name, f, -FIDELITY_TOL, 1.0 + FIDELITY_TOL)))


_FLOAT_MAX = sys.float_info.max


def _real(name: str, value, low: float, high: float = _FLOAT_MAX, open_low: bool = False):
    """``value``, if it is an ``int`` or ``float`` from ``low`` (excluded if
    ``open_low``) to ``high``, which defaults to the largest float: NaN, the
    infinities and an int past the float range fail the comparison."""
    kind = value.__class__
    # Exact int and float, the common case, skip the isinstance test.
    if kind is not float and kind is not int and (
        kind is bool or not isinstance(value, (int, float))
    ):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if (low < value <= high) if open_low else (low <= value <= high):
        return value
    raise _out_of_range(name, value, low, high, open_low)


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value``, if it is an ``int`` from ``low`` to ``high`` (unbounded if
    None).  Any other number raises ``TypeError`` too, as ``2.0`` does."""
    kind = value.__class__
    if kind is not int and (kind is bool or not isinstance(value, int)):
        if kind is bool or not isinstance(value, numbers.Number):
            raise TypeError(f"{name} must be a number, got {value!r}")
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low <= value and (high is None or value <= high):
        return value
    raise _out_of_range(name, value, low, high)


def _out_of_range(name: str, value, low, high, open_low: bool = False) -> ValueError:
    """The error for a number outside its interval; an int past the float
    range is shown by its digit count, as ``str`` may refuse it."""
    left = "(" if open_low else "["
    right = "inf)" if high is None or high == _FLOAT_MAX else f"{high:.15g}]"
    huge = isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX
    shown = f"an int of {_digit_count(value)} digits" if huge else repr(value)
    return ValueError(f"{name} must lie in {left}{low:.15g}, {right}, got {shown}")


# Sets a field of a _Record past the record's own refusing __setattr__.
_setattr = object.__setattr__


class _Record:
    """Base of the records that check their fields: immutable, equal and
    hashed by their field values within one class, printed as
    ``Name(field=value, ...)``, and matched positionally.  A subclass lists
    its fields in ``__slots__`` and its ``__init__`` sets each, once checked,
    with a ``_setattr`` call of its own (a loop over ``__slots__`` makes a
    record about 50% slower to build); :meth:`_replace` calls the class
    again, so a copy is checked again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self.__slots__, self._values())) | changes)


class GateNoiseParams(_Record):
    """Local gate and measurement quality (p1, p2, eta).

    p1  reliability of a one-qubit operation (depolarizing weight),
    p2  reliability of a two-qubit operation,
    eta probability a single-qubit measurement reports the true outcome.
    All live in (0, 1]; eta additionally must exceed 1/2 or outcomes carry
    no information.  ``GateNoiseParams()`` is perfect gates.
    """

    __slots__ = ("p1", "p2", "eta")

    def __init__(self, p1: float = 1.0, p2: float = 1.0, eta: float = 1.0) -> None:
        _setattr(self, "p1", _real("p1", p1, 0.0, 1.0, open_low=True))
        _setattr(self, "p2", _real("p2", p2, 0.0, 1.0, open_low=True))
        _setattr(self, "eta", _real("eta", eta, 0.5, 1.0, open_low=True))


def werner_weight(f: float) -> float:
    """Weight of the target Bell projector in the Werner decomposition, (4f-1)/3."""
    return (4.0 * f - 1.0) / 3.0


def fidelity_from_weight(w: float) -> float:
    """Inverse of :func:`werner_weight`."""
    return (1.0 + 3.0 * w) / 4.0


def _gate_terms(g: GateNoiseParams) -> tuple[float, float]:
    """``(q, c) = (p2^2, (2 eta - 1)^2)``, all that purification depends on."""
    return g.p2 * g.p2, (2.0 * g.eta - 1.0) ** 2


def _purify(f: float, g: GateNoiseParams) -> tuple[float, float]:
    """One purification round with unreliable gates and measurements.

    Both input pairs carry fidelity ``f``, weight ``w = (4f - 1)/3``.  With
    ``(q, c)`` from :func:`_gate_terms`, the kept pair's fidelity and the
    probability that the coincidence check keeps it are

        f_out  = 1/4 + q (1 + c) w (1 + 2w) / (4 (1 + q c w^2))
        p_pass = (1 + q c w^2) / 2

    This is the map of Dür et al. in Bell coefficients (``fb = (1-f)/3``,
    ``phi = f^2 + fb^2``, ``lam = f^2 + 2 f fb + 5 fb^2``): the
    flipped-readout and failed-gate terms cancel from
    ``f_out - 1/4 = q (1 + c)(4 phi - lam) / (8 p_pass)``, and
    ``4 phi - lam = (3f + fb) w = (1 + 2w) w``.  So 1/4 maps to exactly 1/4
    and nothing above it falls below.  Perfect gates give ``f_out = phi/lam``
    and ``p_pass = lam``; ``p1`` never enters (the circuit has no one-qubit gate).
    """
    q, c = _gate_terms(g)
    w = werner_weight(validate_fidelity(f))
    den = 1.0 + q * c * w * w
    return 0.25 + q * (1.0 + c) * w * (1.0 + 2.0 * w) / (4.0 * den), den / 2.0


def purify_success_probability(f: float, g: GateNoiseParams) -> float:
    """Probability the coincidence check passes with gates ``g``."""
    return _purify(f, g)[1]


def purify_noisy(f: float, g: GateNoiseParams) -> float:
    """Fidelity after one purification round with gates ``g``."""
    return _purify(f, g)[0]


def swap_chain_fidelity(f: float, l: int, g: GateNoiseParams) -> float:
    """Fidelity after connecting ``l`` equal-fidelity pairs end to end.

    Each of the ``l - 1`` connection points costs a factor
    ``p1^2 * p2 * (4 eta^2 - 1) / 3`` on the Werner weight, and the weight
    itself multiplies across the ``l`` segments:

        F_out = 1/4 + (3/4) * [p1^2 p2 (4 eta^2 - 1)/3]^(l-1) * [(4f-1)/3]^l

    ``l = 1`` is the identity.  An ``l`` too large to convert to a float
    raises ``OverflowError`` naming its digit count.
    """
    _integer("l", l, 1)
    f = validate_fidelity(f)
    k = g.p1 * g.p1 * g.p2 * (4.0 * g.eta * g.eta - 1.0) / 3.0
    w = werner_weight(f)
    try:
        return 0.25 + 0.75 * (k ** (l - 1)) * (w**l)
    except OverflowError:
        raise OverflowError(f"l has {_digit_count(l)} digits, past the float range") from None


def _digit_count(n: int) -> str:
    """Decimal digits of ``n``, or a bound for an int too long for ``str``."""
    try:
        return str(len(str(abs(n))))
    except ValueError:
        return f"more than {sys.get_int_max_str_digits()}"


class FixedPoints(_Record):
    """Nontrivial fixed points of the noisy purification map.

    ``f_min`` and ``f_max`` bound the interval on which purification gains
    fidelity; outside it the map loses ground.  ``marginal`` flags the
    degenerate case where the two roots have merged into a tangency.  In
    practice that is an exact tangency (discriminant 0) or a single root
    left in range: distinct roots never come within the 1e-9 gap.
    """

    __slots__ = ("f_min", "f_max", "marginal")

    def __init__(self, f_min: float, f_max: float, marginal: bool = False) -> None:
        # Rounding spill past 1 is clamped, as validate_fidelity does.
        f_min = _real("f_min", f_min, MIXED_FIDELITY, 1.0 + FIDELITY_TOL, open_low=True)
        _setattr(self, "f_min", f_min if f_min <= 1.0 else 1.0)
        f_max = _real("f_max", f_max, self.f_min, 1.0 + FIDELITY_TOL)
        _setattr(self, "f_max", f_max if f_max <= 1.0 else 1.0)
        if marginal.__class__ is not bool:
            raise TypeError(f"marginal must be a bool, got {marginal!r}")
        _setattr(self, "marginal", marginal)


def purification_fixed_points(g: GateNoiseParams) -> FixedPoints:
    """Fixed points of ``purify_noisy(., g)`` above the mixed state, in closed form.

    In the weight form of :func:`_purify`, ``f_out = f`` reads
    ``q (1 + c)(1 + 2w) w = 3 (1 + q c w^2) w``.  Dropping the root ``w = 0``
    (f = 1/4) and putting ``w = (4f - 1)/3`` leaves

        16 q c f^2 - 8 q (1 + 2c) f + (9 - q) = 0;

    ``p1`` does not enter.  Purification gains exactly between its two roots.
    Both exceed 1/4 (the quadratic is positive there and its vertex is at
    ``f >= 3/4``); they come from the cancellation-safe form of the quadratic
    formula, and a root past 1 by at most ``FIDELITY_TOL`` is clamped to 1.
    Perfect gates give exactly (0.5, 1.0).  Raises :class:`NoValidRangeError`
    when the discriminant is negative or no root is left in (1/4, 1]
    (purification never helps), and reports ``marginal=True`` if the roots
    lie within 1e-9 of each other or only one is in range.  The gap catches
    only an exact tangency: the next float past one already gives distinct
    roots about 1.9e-8 apart (eta = 0.99, p2 one float above
    0.9542903459463077).
    """
    q, c = _gate_terms(g)
    # Discriminant over 64 q, q (1 + c)(1 + 4c) - 9c, with 1 - q written as
    # (1 - p2)(1 + p2) so that nothing cancels at p2 = 1.
    failed = (1.0 - g.p2) * (1.0 + g.p2)
    disc = (2.0 * c - 1.0) ** 2 - failed * (1.0 + c) * (1.0 + 4.0 * c)
    # q c underflows to 0 only for q < 1e-290: the lower root is then past 1e144.
    if disc >= 0.0 and 16.0 * q * c > 0.0:
        s = 4.0 * (q * (1.0 + 2.0 * c) + math.sqrt(q * disc))
        roots = [
            min(r, 1.0)
            for r in ((9.0 - q) / s, s / (16.0 * q * c))
            if r <= 1.0 + FIDELITY_TOL
        ]
        if roots:
            lo, hi = roots[0], roots[-1]
            return FixedPoints(lo, hi, marginal=(hi - lo) < 1e-9)
    raise NoValidRangeError(
        f"purification loses fidelity everywhere in (1/4, 1] for gates {g!r}"
    )
