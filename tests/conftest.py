"""Shared fixtures: prime tables and the acceptance summary hook.

Both tables are built once per session. The small one is sieved in
memory; the big (10^8) one, about 0.15 s to sieve, is cached in a
per-session temp directory, from which the README examples reload it.
"""

import numpy as np
import pytest

from tauberlab.arith import build_prime_table

ACCEPTANCE_LABELS = {
    1: "pole-split identity, cancellation-safe path",
    2: "log zeta vs prime-zeta sum",
    3: "kernel vs frequency route equivalence",
    4: "Plancherel normalization",
    5: "forward battery diagonal decay",
    6: "oscillating counterexample + witness",
    7: "prime counting pipeline",
    8: "symmetry / realness / positivity suite",
    9: "weak-limit epsilon schedule",
    10: "byte-identical reruns of criteria 3-7",
}

_acceptance_results = {}


@pytest.fixture(scope="session")
def small_table():
    return build_prime_table(100_000)


@pytest.fixture(scope="session")
def big_table_cache(tmp_path_factory):
    """The cache directory that holds the session's 10^8 table."""
    return tmp_path_factory.mktemp("ptbl_big")


@pytest.fixture(scope="session")
def big_table(big_table_cache):
    return build_prime_table(100_000_000, cache_dir=big_table_cache)


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory):
    """Where acceptance criteria 3-7 drop their CSV artifacts."""
    return tmp_path_factory.mktemp("artifacts")


def pytest_runtest_logreport(report):
    if report.when != "call" and not (report.when == "setup" and report.skipped):
        return
    nodeid = report.nodeid
    if "test_acceptance" not in nodeid:
        return
    import re

    m = re.search(r"test_c(\d+)", nodeid)
    if not m:
        return
    crit = int(m.group(1))
    verdict = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    # a parametrized criterion fails as a whole if any case fails
    prev = _acceptance_results.get(crit)
    if prev == "FAIL":
        return
    if prev == "PASS" and verdict == "SKIP":
        return
    _acceptance_results[crit] = verdict


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance criteria")
    for crit in sorted(_acceptance_results):
        verdict = _acceptance_results[crit]
        label = ACCEPTANCE_LABELS.get(crit, "?")
        markup = {"PASS": {"green": True}, "FAIL": {"red": True}, "SKIP": {"yellow": True}}[verdict]
        tr.write(f"criterion {crit:2d}  {label:<45s} ", bold=True)
        tr.write_line(verdict, **markup)
