"""Reference formulas the checks compare the package against.

Written from the Bell-diagonal form of the noisy recurrence protocol
(Dür, Briegel, Cirac & Zoller, PRA 59, 169 (1999)) rather than copied from
``repeaterlab.werner``, so a wrong change to the package's map is caught
instead of reproduced.
"""

from __future__ import annotations

#: Largest disagreement allowed between a circuit oracle and a closed form,
#: the tolerance ``oracle-check`` applies.
ORACLE_TOLERANCE = 1e-9

#: Points of (1/4, 1] where an unpurifiable gate set must lose fidelity.
COARSE_GRID = tuple(0.25 + 0.75 * j / 300 for j in range(1, 301))


def purify(f: float, p2: float, eta: float) -> tuple[float, float]:
    """Kept-pair fidelity and pass probability of one noisy recurrence round.

    Both inputs are Werner pairs with Bell coefficients A = f and
    B = C = D = (1 - f)/3.  A coincidence passes with probability
    ``p2^2 * den``; ``num/den`` is the kept pair's A coefficient.
    """
    a = f
    b = c = d = (1.0 - f) / 3.0
    both_right = eta * eta + (1.0 - eta) * (1.0 - eta)
    one_wrong = eta * (1.0 - eta)
    depolarized = (1.0 - p2 * p2) / (p2 * p2)
    num = both_right * (a * a + b * b) + 2.0 * one_wrong * (a * c + b * d) + depolarized / 8.0
    den = (
        both_right * ((a + b) ** 2 + (c + d) ** 2)
        + 4.0 * one_wrong * (a + b) * (c + d)
        + depolarized / 2.0
    )
    return num / den, p2 * p2 * den


def residual(f: float, p2: float, eta: float) -> float:
    """Gain of one purification round at fidelity ``f``."""
    return purify(f, p2, eta)[0] - f


def link_transmission(distance_km: float, alpha_db_per_km: float) -> float:
    """Fiber transmission 10^(-alpha d / 10)."""
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)
