import numpy as np
import pytest
from hypothesis import settings

from flowsketch import build_random_expander, verify_expansion

from helpers import affine_plane_graph

# On CI, hypothesis loads its "ci" profile by itself: derandomized and
# without an example database, so every CI run replays the same examples.
# "explore" (pytest --hypothesis-profile=explore) draws fresh ones and
# prints the blob that reproduces a failure.
settings.register_profile("explore", derandomize=False, print_blob=True,
                          database=None)

# Seeds for (N=200, M=60, d=6) graphs that pass the (2, 1/4) expansion
# check. Random graphs at this density pass with probability ~1e-4, so
# the seeds were found by scanning from 0; the first sixteen hits are
# recorded here. Any change to the column sampler invalidates them.
EXPANDER_SEEDS_200_60_6 = (
    17566, 24420, 24635, 25477, 36105, 47687, 51366, 56854,
    75618, 86116, 103003, 112940, 119837, 121864, 127212, 145445,
)

# Gate lines emitted by the acceptance tests, printed after the run so
# they survive pytest's output capture.
GATE_LINES = []


def record_gate(name: str, ok: bool, detail: str) -> bool:
    GATE_LINES.append(f"{name} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gates")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_expander():
    """(N=50, M=20, d=4) graph, seed 7, verified (2, 3/8)-expander."""
    g = build_random_expander(50, 20, 4, 7)
    rep = verify_expansion(g, 2, 0.375)
    assert rep.is_expander and rep.worst_ratio == 0.625
    return g


@pytest.fixture(scope="session")
def plane_expander():
    """Verified (2, 1/16)-expander from an affine plane (132x121, d=11)."""
    g = affine_plane_graph()
    rep = verify_expansion(g, 2, 1.0 / 16.0)
    assert rep.is_expander
    assert np.isclose(rep.worst_ratio, 21.0 / 22.0)
    return g


@pytest.fixture(scope="session")
def ac2_seeds():
    return EXPANDER_SEEDS_200_60_6
