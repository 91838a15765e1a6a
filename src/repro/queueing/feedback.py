"""Loss-feedback effective arrival rates (Burke's theorem at steady state).

Section III-B of the paper analyses a request whose packets are delivered
correctly with probability ``P``; lost packets trigger a NACK and are
retransmitted from the source.  At steady state the flow conservation
equation ``lambda_0 + (1 - P) lambda = lambda`` gives the *equivalent*
arrival rate seen by every VNF on the chain:

    ``lambda = lambda_0 / P``

Eq. (7) sums these per-request effective rates into the equivalent total
rate at each service instance:

    ``Lambda_k^f = sum_r (lambda_r / P_r) z_{r,k}^f``
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError


def validate_delivery_probability(p: float) -> None:
    """Raise unless ``p`` is a valid delivery probability in ``(0, 1]``."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(
            f"delivery probability must be in (0, 1], got {p!r}"
        )


def effective_arrival_rate(external_rate: float, delivery_probability: float) -> float:
    """Effective per-request rate ``lambda = lambda_0 / P`` with loss feedback.

    Parameters
    ----------
    external_rate:
        The external (fresh-packet) Poisson arrival rate ``lambda_0``.
    delivery_probability:
        Probability ``P`` a packet is received correctly end to end;
        ``1 - P`` of packets are retransmitted.
    """
    if external_rate < 0.0:
        raise ValidationError(
            f"external arrival rate must be non-negative, got {external_rate!r}"
        )
    validate_delivery_probability(delivery_probability)
    return external_rate / delivery_probability


def retransmission_rate(external_rate: float, delivery_probability: float) -> float:
    """Rate of retransmitted packets, ``lambda - lambda_0 = lambda_0 (1-P)/P``."""
    return (
        effective_arrival_rate(external_rate, delivery_probability) - external_rate
    )


def merged_effective_rate(
    flows: Iterable[Tuple[float, float]],
) -> float:
    """Equivalent total arrival rate at one service instance (Eq. 7).

    Parameters
    ----------
    flows:
        Iterable of ``(lambda_r, P_r)`` pairs — one per request scheduled
        onto the instance.

    Returns
    -------
    float
        ``Lambda = sum_r lambda_r / P_r``.
    """
    total = 0.0
    for rate, p in flows:
        total += effective_arrival_rate(rate, p)
    return total


def expected_transmissions(delivery_probability: float) -> float:
    """Expected number of end-to-end transmissions per packet, ``1 / P``.

    The number of attempts until first success is geometric with success
    probability ``P``.
    """
    validate_delivery_probability(delivery_probability)
    return 1.0 / delivery_probability


def effective_arrival_rates(
    external_rates: Sequence[float],
    delivery_probabilities: Sequence[float],
) -> np.ndarray:
    """Vectorized :func:`effective_arrival_rate` — one entry per request.

    The columnar form of Eq. (7)'s ingredients, ``lambda_r / P_r``;
    the simulation benchmarks use it to size scenarios and cross-check
    measured utilizations against the closed form.
    """
    lam = np.asarray(external_rates, dtype=np.float64)
    p = np.asarray(delivery_probabilities, dtype=np.float64)
    if lam.shape != p.shape:
        raise ValidationError(
            f"rate and probability columns must align, got shapes "
            f"{lam.shape} and {p.shape}"
        )
    if np.any(lam < 0.0):
        raise ValidationError("external arrival rates must be non-negative")
    if np.any((p <= 0.0) | (p > 1.0)):
        raise ValidationError("delivery probabilities must be in (0, 1]")
    return lam / p


def aggregate_external_rate(rates: Sequence[float]) -> float:
    """Sum of external rates (additivity of independent Poisson streams)."""
    for rate in rates:
        if rate < 0.0:
            raise ValidationError(f"arrival rate must be non-negative, got {rate!r}")
    return float(sum(rates))
