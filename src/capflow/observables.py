"""Equilibrium laws and the transient-duration metric."""

from __future__ import annotations

import math

import numpy as np

from .fields import PhysParams


def spherical_cap_offset(theta_s: float, radius: float) -> float:
    """Contact-line height minus volume-mean height of the equilibrium meniscus.

    The force balance g Z = (p_bar + zeta) + 2 gamma cos(theta_s)/r fixes the
    volume-equivalent column height exactly; the contact line itself sits
    above (wetting) or below (non-wetting) that level by the purely geometric
    offset of a spherical cap meeting the wall at the static angle.  Zero for
    a 90-degree angle.
    """
    c = math.cos(theta_s)
    if abs(c) < 1e-12:
        return 0.0
    R = radius / abs(c)
    rim = math.sqrt(R * R - radius * radius)          # = R sin(theta_s)
    vol_def = (R ** 3 - rim ** 3) / 3.0 - rim * radius ** 2 / 2.0
    return math.copysign(vol_def / (radius ** 2 / 2.0), c)


def equilibrium_height(phys: PhysParams, radius: float, zeta_final: float = 0.0) -> float:
    """Rest height of the contact line.

    Bernoulli balance of the column, g Z = p_bar + zeta, plus the
    capillary-rise contribution 2 gamma cos(theta_s)/(g r) and the
    spherical-cap contact offset; the last two vanish for a 90-degree
    contact angle.
    """
    if not 0 < radius < math.inf:       # NaN fails too
        raise ValueError("radius must be positive and finite")
    capillary = 2.0 * phys.gamma * math.cos(phys.theta_s) / (phys.g * radius)
    return (phys.p_bar + zeta_final) / phys.g + capillary \
        + spherical_cap_offset(phys.theta_s, radius)


def transient_time(history, z_inf: float, tol: float = 1e-3):
    """Earliest time after which every recorded Z_CL stays within tol * z_inf of z_inf.

    Returns the time of the last sample violating the band (the first
    sample's time, t[0], if none does), or None when the final sample still
    violates it ("not attained").
    """
    t = np.asarray(history.t, dtype=float)
    z = np.asarray(history.z_cl, dtype=float)
    if len(t) == 0:
        raise ValueError("empty history")
    violated = np.abs(z - z_inf) >= tol * z_inf
    if violated[-1]:
        return None
    if not violated.any():
        return float(t[0])
    return float(t[np.where(violated)[0][-1]])
