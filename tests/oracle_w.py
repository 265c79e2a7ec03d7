"""30-digit moments of the operator W for the closed-form battery sources
and the integer count.

    python tests/oracle_w.py           # write tests/data/oracle_w.json
    python tests/oracle_w.py --check   # regenerate it and fail on any drift

For each source the script takes K(x) = (1/pi) Re G(1 + eps + i x) from
mpmath's own transform G (mpmath.e1 for slow_approach, mpmath.zeta for
the integer count), independent of tauberlab, and integrates the
kernel-route moments of the operators module

    s_n = int_0^L K(x) sin(alpha n x) dx,
    c_n = int_0^L 2 K(x) (1 - x/L) cos(alpha n x) dx,   alpha = 2 pi / L,

for n = 0..N with mpmath.quad on 32 equal pieces of [0, L], at 30 digits.
L = 8 pi, eps = 0.05 and the parameters of G enter as the floats the
routes take, so the fixture is the exact W of the float setting. K is
memoized on the quadrature nodes, which every moment of a source shares.
The fixture records mpmath's version and the digits used; it is read by
tests/test_oracle_w.py, which bounds both routes against it. pytest does
not collect this file.
"""

import json
import math
import sys
from pathlib import Path

import mpmath

FIXTURE = Path(__file__).with_name("data") / "oracle_w.json"
DPS = 30
PIECES = 32
LENGTH, EPS, ORDER = 8.0 * math.pi, 0.05, 8
# a fresh value may differ from the fixture by this much, relative to the
# source's largest moment: far below float64, above a last-digit change
DRIFT_RTOL = 1e-25


_HALF = mpmath.mpf(0.5)
# mpmath's G for each closed-form battery member, by its label
# (tauber.battery_members), and for the integer count
TRANSFORMS = {
    "integer_count": lambda s: mpmath.zeta(s) / s,
    "identity": lambda s: 1 / (s - 1),
    "sqrt_mix(a=2,b=1)": lambda s: 2 / (s - 1) + 1 / (s - _HALF),
    "sqrt_mix(a=1,b=1)": lambda s: 1 / (s - 1) + 1 / (s - _HALF),
    "log_oscillation(amp=0.5)": lambda s: 1 / (s - 1) + _HALF / ((s - 1) ** 2 + 1),
    "slow_approach": lambda s: 1 / (s - 1) + mpmath.exp(s - 1) * mpmath.e1(s - 1),
}


def moments(label: str, orders) -> dict:
    """{"s": [...], "c": [...]}: the moments s_n and c_n of the source
    `label` at the orders n given, as 30-digit strings."""
    with mpmath.workdps(DPS):
        G = TRANSFORMS[label]
        L, eps = mpmath.mpf(LENGTH), mpmath.mpf(EPS)
        alpha = 2 * mpmath.pi / L
        pieces = mpmath.linspace(0, L, PIECES + 1)
        memo = {}

        def K(x):
            if x not in memo:
                memo[x] = mpmath.re(G(1 + eps + 1j * x)) / mpmath.pi
            return memo[x]

        s = [mpmath.quad(lambda x: K(x) * mpmath.sin(alpha * n * x), pieces) for n in orders]
        c = [mpmath.quad(lambda x: 2 * K(x) * (1 - x / L) * mpmath.cos(alpha * n * x), pieces) for n in orders]
        return {"s": [mpmath.nstr(v, DPS) for v in s], "c": [mpmath.nstr(v, DPS) for v in c]}


def generate() -> dict:
    """The whole fixture: every source of TRANSFORMS at orders 0..N."""
    return {
        "mpmath": mpmath.__version__,
        "dps": DPS,
        "pieces": PIECES,
        "L": LENGTH,
        "eps": EPS,
        "N": ORDER,
        "moments": {label: moments(label, range(ORDER + 1)) for label in TRANSFORMS},
    }


def drift(stored: dict, fresh: dict) -> list:
    """The moments on which two {"s", "c"} records of one source differ by
    more than DRIFT_RTOL of the stored record's largest moment, as
    (kind, index, stored, fresh); both records cover the same orders."""
    with mpmath.workdps(DPS):
        scale = max(abs(mpmath.mpf(v)) for kind in ("s", "c") for v in stored[kind])
        return [
            (kind, i, a, b)
            for kind in ("s", "c")
            for i, (a, b) in enumerate(zip(stored[kind], fresh[kind]))
            if abs(mpmath.mpf(a) - mpmath.mpf(b)) > DRIFT_RTOL * scale
        ]


def main(argv) -> int:
    fresh = generate()
    if "--check" not in argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    stored = json.loads(FIXTURE.read_text())
    bad = 0
    for key in ("dps", "pieces", "L", "eps", "N"):
        if stored[key] != fresh[key]:
            print(f"{key}: fixture {stored[key]!r}, script {fresh[key]!r}")
            bad += 1
    if sorted(stored["moments"]) != sorted(fresh["moments"]):
        print(f"sources: fixture {sorted(stored['moments'])}, script {sorted(fresh['moments'])}")
        return 1
    for label, record in fresh["moments"].items():
        for kind, i, a, b in drift(stored["moments"][label], record):
            print(f"{label} {kind}_{i}: fixture {a}, fresh {b}")
            bad += 1
    print(f"{len(fresh['moments'])} sources checked against {FIXTURE.name} (mpmath {mpmath.__version__}): "
          f"{'no drift' if not bad else f'{bad} differences'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
