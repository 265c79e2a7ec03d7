"""The operator W of the closed-form battery sources and the integer
count, and the transforms G of the former, against 30-digit mpmath
(tests/oracle_w.py, which writes the fixture tests/data/oracle_w.json and
checks it for drift).

The two routes share _matrix_from_moments, the Gauss-Legendre tables and
the closed forms of G, so an error common to both would pass the route
comparison of criterion 3; the fixture's moments come from mpmath's own G
and quadrature alone."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tauberlab import tauber
from tauberlab.transform import source_integers
from tauberlab.operators import (
    _GL16,
    IntervalSpec,
    _matrix_from_moments,
    assemble_frequency_route,
    assemble_kernel_route,
    kernel,
)

mpmath = pytest.importorskip("mpmath")

_spec = importlib.util.spec_from_file_location("oracle_w", Path(__file__).with_name("oracle_w.py"))
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

FIXTURE = json.loads(oracle.FIXTURE.read_text())
SOURCES = {S.label: S for S, *_ in tauber.battery_members()}
CLOSED_FORM = [label for label, S in SOURCES.items() if S.jumps_upto is None]
SOURCES["integer_count"] = source_integers()
ORACLE = CLOSED_FORM + ["integer_count"]


def test_the_fixture_covers_every_closed_form_battery_member():
    """and the integer count, whose G is zeta(s)/s."""
    assert sorted(FIXTURE["moments"]) == sorted(ORACLE) == sorted(oracle.TRANSFORMS)
    assert (FIXTURE["dps"], FIXTURE["pieces"], FIXTURE["N"]) == (oracle.DPS, oracle.PIECES, oracle.ORDER)
    assert (FIXTURE["L"], FIXTURE["eps"]) == (oracle.LENGTH, oracle.EPS)


def _abs_kernel_integral(S) -> float:
    """int_0^L |K|, by 16-point Gauss-Legendre on 4,096 equal panels: the
    scale of the rounding of either route's sums (operators module
    docstring), which a few digits serve."""
    L, P = FIXTURE["L"], 4096
    h = L / (2 * P)
    xi, wi = _GL16
    x = np.add.outer((2 * np.arange(P) + 1) * h, h * xi)
    return float(np.sum(np.abs(kernel(S, FIXTURE["eps"], x)) * (h * wi)))


@pytest.mark.parametrize("label", ORACLE)
def test_both_routes_lie_within_the_rounding_bound_of_the_oracle(label):
    """Each moment s_n, c_n and each entry of W, on the kernel and the
    frequency route, lies within 1e-14 max|W| plus 64 ulp of int_0^L |K| of
    the 30-digit oracle (L = 8 pi, eps = 0.05, N = 8): the kernel route's
    stated rounding, until a derived bound replaces it. The frequency
    route samples the integer count's staircase past x = 2e5 (ROADMAP item
    11) and is held to the integers' route tolerance, 1e-9 (measured:
    4.4e-10); its kernel route meets the bound (measured: 3.5e-15)."""
    S = SOURCES[label]
    ref = FIXTURE["moments"][label]
    s, c = (np.array([float(v) for v in ref[k]]) for k in ("s", "c"))
    W = _matrix_from_moments(s, c)
    rounding = 1e-14 * np.max(np.abs(W)) + 64 * np.spacing(_abs_kernel_integral(S))
    I = IntervalSpec(FIXTURE["L"])
    for route in (assemble_kernel_route, assemble_frequency_route):
        sampled = label == "integer_count" and route is assemble_frequency_route
        bound = 1e-9 if sampled else rounding
        (T,) = route([S], I, FIXTURE["eps"], FIXTURE["N"])
        assert np.max(np.abs(T.odd - s)) <= bound, route.__name__
        assert np.max(np.abs(T.diag - c)) <= bound, route.__name__
        assert np.max(np.abs(T.entries - W)) <= bound, route.__name__


def test_the_oracle_regenerates_its_fixture():
    """sqrt_mix(1,1) at orders 0-2, regenerated, matches the fixture to
    DRIFT_RTOL; `python tests/oracle_w.py --check` regenerates all of it."""
    label = "sqrt_mix(a=1,b=1)"
    fresh = oracle.moments(label, range(3))
    stored = {k: v[:3] for k, v in FIXTURE["moments"][label].items()}
    assert oracle.drift(stored, fresh) == []


_SIGMAS = (1.001, 1.05, 1.5, 2.0, 3.0)
_TS = (0.0, 1e-3, 0.3, 1.0, 2.5, 7.0, 31.0, 100.0, 1e3, 1e4)


@pytest.mark.parametrize("label", CLOSED_FORM)
def test_each_closed_form_transform_is_within_4_ulp_of_mpmath(label):
    """G(sigma + it) within 4 ulp |G| of mpmath's G at 30 digits, for
    sigma in {1.001, 1.05, 1.5, 2, 3} and t = +-0 .. 1e4, with the pole terms
    near s = 1 and s = 1 +- i (log_oscillation) and e^w E1(w) on both sides
    of its series-fraction seam (slow_approach)."""
    s = np.array([complex(a, b) for a in _SIGMAS for t in _TS for b in (t, -t)])
    got = np.asarray(SOURCES[label].laplace(s))
    with mpmath.workdps(30):
        ref = np.array([complex(oracle.TRANSFORMS[label](mpmath.mpc(z.real, z.imag))) for z in s])
    assert np.all(np.abs(got - ref) <= 4 * 2.0**-52 * np.abs(ref))
