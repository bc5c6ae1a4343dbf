"""Closed-form capacities for lossy bosonic channels with thermal noise.

Point-to-point formulas cover homodyne, heterodyne, and joint (Holevo)
detection of coherent-state encodings.  The two-sender functions treat a
passive optical interference network: receiver 1 collects a fraction
eta11 of sender 1's power and eta21 of sender 2's, receiver 2 collects
eta12 and eta22, and the remaining port of each receiver admits thermal
background photons.  Everything here is scalar arithmetic; no field
state is ever represented numerically.

Every rate is one function of signal power P received over
treat-as-noise power U at a receiver whose environment port carries
etabar N_B thermal photons.  Coherent detection is parameterized by a
bandwidth exponent i (1 for homodyne, 0 for heterodyne), giving

    (1/2^i) log2(1 + 4^i P / (4^i U + 2^i etabar N_B + 1)),

and joint detection gives g(P + base) - g(base), base = U + etabar N_B.
The point-to-point capacities are this rate at U = 0, the very-strong
and strong interference thresholds compare it across receivers, and the
Han-Kobayashi bounds add it up, alike in every mode.  A silent sender
puts a zero rate on both sides of its half of each threshold, which
therefore holds (0 against 0) in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (CLOSED_FORM_TOL, ETA_CONSISTENCY_TOL, InvariantError, SchemaError,
                     finite_reals)
from .regions import HalfspaceRegion

_TRANSMISSIVITY = "a transmissivity in [0, 1]"
_PHOTON_NUMBER = "a photon number >= 0"


class DetectionMode(Enum):
    HOMODYNE = "hom"
    HETERODYNE = "het"
    JOINT = "joint"

    @property
    def exponent(self):
        """Bandwidth exponent of the coherent detectors; None for joint."""
        if self is DetectionMode.HOMODYNE:
            return 1
        if self is DetectionMode.HETERODYNE:
            return 0
        return None

    @classmethod
    def parse(cls, value):
        """The mode whose value is ``value`` (hom, het or joint), or
        ``value`` itself when it is a mode; anything else is a SchemaError."""
        try:
            return cls(value)
        except ValueError:
            raise SchemaError(
                f"unknown detection mode {value!r}; expected hom, het, or joint"
            ) from None


@dataclass(frozen=True)
class BosonicICParams:
    """Transmissivities, photon numbers, and power splits of the network.

    eta_mk couples sender m to receiver k.  NS are mean signal photons
    per mode, NB mean background thermal photons per mode at each
    receiver.  lambda1/lambda2 are the fractions of each sender's power
    devoted to its personal message; they only enter the Han-Kobayashi
    region.
    """

    eta11: float
    eta12: float
    eta21: float
    eta22: float
    NS1: float
    NS2: float
    NB1: float
    NB2: float
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for names, upper, what in (
            (("eta11", "eta12", "eta21", "eta22"), 1.0, _TRANSMISSIVITY),
            (("NS1", "NS2", "NB1", "NB2"), math.inf, _PHOTON_NUMBER),
            (("lambda1", "lambda2"), 1.0, "a power fraction in [0, 1]"),
        ):
            for name in names:
                _check_range(name, getattr(self, name), upper, what)
        # no sender may emit more power than it puts in, and no receiver
        # may collect more than unit power across its input ports
        for a, b in (
            ("eta11", "eta12"),
            ("eta11", "eta21"),
            ("eta22", "eta21"),
            ("eta22", "eta12"),
        ):
            total = getattr(self, a) + getattr(self, b)
            if total > 1.0 + CLOSED_FORM_TOL:
                raise SchemaError(
                    f"{a} + {b} = {total} exceeds 1; the network is not passive"
                )
        cross = abs(
            math.sqrt(self.eta11 * self.eta12) - math.sqrt(self.eta21 * self.eta22)
        )
        if cross > ETA_CONSISTENCY_TOL:
            raise SchemaError(
                "eta11*eta12 and eta21*eta22 disagree: the four couplings do "
                "not describe a single passive linear-optical network"
            )

    @property
    def etabar1(self):
        """Environment fraction entering receiver 1."""
        return max(0.0, 1.0 - self.eta11 - self.eta21)

    @property
    def etabar2(self):
        """Environment fraction entering receiver 2."""
        return max(0.0, 1.0 - self.eta12 - self.eta22)


def _pair(value, what):
    """``value`` as two floats when it is a list of two finite real
    numbers, not bools; otherwise a SchemaError naming ``what`` it holds."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise SchemaError(f"{what} must be a list of two numbers")
    return finite_reals(value, what)


def params_from_json(doc):
    """Build (BosonicICParams, DetectionMode) from a parameter document:
    "eta" is two rows of two numbers, "NS", "NB" and the optional
    "lambda" two numbers each, and "mode" an optional detection mode."""
    if not isinstance(doc, dict):
        raise SchemaError("bosonic parameter document must be an object")
    try:
        eta = doc["eta"]
        ns = doc["NS"]
        nb = doc["NB"]
    except KeyError as missing:
        raise SchemaError(f"parameter document lacks key {missing}") from None
    lam = doc.get("lambda", [1.0, 1.0])
    mode = DetectionMode.parse(doc.get("mode", "joint"))
    if not (isinstance(eta, (list, tuple)) and len(eta) == 2):
        raise SchemaError("'eta' must be a list of two rows")
    (e11, e12), (e21, e22) = (_pair(row, "each 'eta' row") for row in eta)
    ns1, ns2 = _pair(ns, "'NS'")
    nb1, nb2 = _pair(nb, "'NB'")
    lam1, lam2 = _pair(lam, "'lambda'")
    return BosonicICParams(e11, e12, e21, e22, ns1, ns2, nb1, nb2, lam1, lam2), mode


def c_homodyne(eta, N_S, N_B):
    """Single-quadrature detection capacity of the lossy thermal channel."""
    _check_p2p(eta, N_S, N_B)
    return _rate(eta * N_S, 0.0, 1.0 - eta, N_B, DetectionMode.HOMODYNE)


def c_heterodyne(eta, N_S, N_B):
    """Dual-quadrature detection capacity of the lossy thermal channel."""
    _check_p2p(eta, N_S, N_B)
    return _rate(eta * N_S, 0.0, 1.0 - eta, N_B, DetectionMode.HETERODYNE)


def c_holevo(eta, N_S, N_B):
    """Joint-detection rate of coherent encodings over the lossy thermal
    channel: the entropy gained by the signal over the background alone."""
    _check_p2p(eta, N_S, N_B)
    return _rate(eta * N_S, 0.0, 1.0 - eta, N_B, DetectionMode.JOINT)


def _check_range(name, value, upper, what):
    if not (math.isfinite(value) and 0.0 <= value <= upper):
        raise SchemaError(f"{name} = {value} is not {what}")


def _check_p2p(eta, N_S, N_B):
    _check_range("eta", eta, 1.0, _TRANSMISSIVITY)
    _check_range("N_S", N_S, math.inf, _PHOTON_NUMBER)
    _check_range("N_B", N_B, math.inf, _PHOTON_NUMBER)


def _x_psi(x, c):
    """x psi(c/x) for psi(u) = u - ln(1 + u), and its limit c at x = 0.
    Below u = 1 it sums psi(u) = 2 s^2/(1 - s) - 2 (s^3/3 + s^5/5 + ...)
    for s = u/(2 + u), from ln(1 + u) = 2 atanh(s), so it does not cancel."""
    u = c / x if x else math.inf
    if u >= 1.0:
        return c - x * math.log1p(u) if u < math.inf else c
    s = u / (2.0 + u)
    s2 = s * s
    total, term, k = 2.0 * s2 / (1.0 - s), 2.0 * s * s2, 3
    while term > 1e-17 * total:
        total -= term / k
        term *= s2
        k += 2
    return x * total


def _thermal_gain(P, a):
    """g(a + P) - g(a) in nats, as P ln(1 + 1/b) + [a psi(P/a) -
    (a+1) psi(P/(a+1))] for P <= 1 and as ln(1 + P/(a+1)) + [a psi(1/a) -
    b psi(1/b)] above, with b = a + P and psi as in ``_x_psi``.  Each
    bracket is >= 0 and small against the term before it, so the
    difference keeps its relative precision however large a is."""
    b = a + P
    if not math.isfinite(b):
        raise InvariantError(f"mean photon number {b!r} is not finite")
    if P == 0.0:
        return 0.0
    if P <= 1.0:
        # ln(1 + 1/b) as in g_thermal, where 1/b may overflow
        tail = math.log1p(1.0 / b) if b > 1e-300 else math.log1p(b) - math.log(b)
        return P * tail + (_x_psi(a, P) - _x_psi(a + 1.0, P))
    return math.log1p(P / (a + 1.0)) + (_x_psi(a, 1.0) - _x_psi(b, 1.0))


def _rate(P, U, etabar, N_B, mode):
    """Rate of signal power P over treat-as-noise power U at a receiver
    whose environment port (fraction etabar) admits N_B thermal photons.
    A result below -CLOSED_FORM_TOL (or nan) is an InvariantError."""
    if mode is DetectionMode.JOINT:
        nats = _thermal_gain(P, U + etabar * N_B)
    else:
        four, two = 4.0**mode.exponent, 2.0**mode.exponent
        nats = math.log1p(four * P / (four * U + two * etabar * N_B + 1.0)) / two
    rate = nats / math.log(2.0)
    if not rate >= -CLOSED_FORM_TOL:
        raise InvariantError(f"rate {rate!r} at signal power {P!r} is negative")
    return rate


def _receiver_rates(p, mode, U1=0.0, U2=0.0):
    """Per-receiver rate functions with fixed treat-as-noise powers."""
    t1 = lambda P: _rate(P, U1, p.etabar1, p.NB1, mode)
    t2 = lambda P: _rate(P, U2, p.etabar2, p.NB2, mode)
    return t1, t2


def bosonic_vsi(params, mode):
    """Very-strong-interference test and the interference-free rectangle.

    The condition asks that each receiver can decode the other sender's
    whole message, with its own signal still treated as noise, at least
    as fast as the intended receiver could with no interference at all;
    a silent sender's half reads 0 <= 0.  When it holds the returned
    rectangle is the capacity region; it is returned either way.
    """
    p = params
    mode = DetectionMode.parse(mode)
    t1, t2 = _receiver_rates(p, mode)
    x1, x2 = _receiver_rates(p, mode, U1=p.eta11 * p.NS1, U2=p.eta22 * p.NS2)
    cond = (
        t2(p.eta22 * p.NS2) <= x1(p.eta21 * p.NS2) + CLOSED_FORM_TOL
        and t1(p.eta11 * p.NS1) <= x2(p.eta12 * p.NS1) + CLOSED_FORM_TOL
    )
    region = HalfspaceRegion(
        ("R1", "R2"),
        [([1.0, 0.0], t1(p.eta11 * p.NS1)), ([0.0, 1.0], t2(p.eta22 * p.NS2))],
    )
    return cond, region


def bosonic_si(params, mode):
    """Strong-interference test and the two-receiver pentagon.

    The condition asks that each sender's signal, over thermal noise
    alone, reach the other receiver at a rate no lower than its own; a
    silent sender's half reads 0 >= 0.  When it holds the pentagon
    (individual bounds plus the smaller of the two receivers'
    total-power sum bounds) is the capacity region.
    """
    p = params
    mode = DetectionMode.parse(mode)
    t1, t2 = _receiver_rates(p, mode)
    cond = (
        t1(p.eta21 * p.NS2) >= t2(p.eta22 * p.NS2) - CLOSED_FORM_TOL
        and t2(p.eta12 * p.NS1) >= t1(p.eta11 * p.NS1) - CLOSED_FORM_TOL
    )
    sum_bound = min(
        t1(p.eta11 * p.NS1 + p.eta21 * p.NS2),
        t2(p.eta22 * p.NS2 + p.eta12 * p.NS1),
    )
    region = HalfspaceRegion(
        ("R1", "R2"),
        [
            ([1.0, 0.0], t1(p.eta11 * p.NS1)),
            ([0.0, 1.0], t2(p.eta22 * p.NS2)),
            ([1.0, 1.0], sum_bound),
        ],
    )
    return cond, region


def bosonic_hk_region(params, mode):
    """Rate-splitting region for the bosonic interference channel.

    Each sender devotes the lambda fraction of its received power to a
    personal message and the rest to a common message both receivers
    decode.  The other sender's personal part is treated as noise, so
    receiver 1 sees noise power U1 = lambda2 eta21 NS2 on top of its
    thermal floor, and the common part W1 = (1-lambda2) eta21 NS2 is
    decodable signal.  The nine bounds walk the decodings in every
    useful order.
    """
    p = params
    mode = DetectionMode.parse(mode)
    p1 = p.eta11 * p.NS1
    p2 = p.eta22 * p.NS2
    p1p = p.lambda1 * p1
    p2p = p.lambda2 * p2
    w1 = (1.0 - p.lambda2) * p.eta21 * p.NS2
    u1 = p.lambda2 * p.eta21 * p.NS2
    w2 = (1.0 - p.lambda1) * p.eta12 * p.NS1
    u2 = p.lambda1 * p.eta12 * p.NS1
    t1, t2 = _receiver_rates(p, mode, U1=u1, U2=u2)
    rows = [
        ([1.0, 0.0], t1(p1)),
        ([1.0, 0.0], t1(p1p) + t2(w2)),
        ([0.0, 1.0], t2(p2)),
        ([0.0, 1.0], t2(p2p) + t1(w1)),
        ([1.0, 1.0], t1(p1 + w1) + t2(p2p)),
        ([1.0, 1.0], t2(p2 + w2) + t1(p1p)),
        ([1.0, 1.0], t1(p1p + w1) + t2(p2p + w2)),
        ([2.0, 1.0], t1(p1 + w1) + t1(p1p) + t2(p2p + w2)),
        ([1.0, 2.0], t2(p2 + w2) + t2(p2p) + t1(p1p + w1)),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)
