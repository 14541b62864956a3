"""Shared instance factories for the test suite.

All randomness flows through explicit ``numpy.random.default_rng`` seeds so
every test is reproducible bit-for-bit.
"""

import numpy as np
from hypothesis import strategies as st

from clusterlife import BitDistance, ClusterSpec, GaussianField, NodeSpec

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    ACCEPTANCE_LINES.append(
        f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} — {detail}"
    )


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

# A decent default offset keeping Gaussian conditional loads comfortably
# positive for clusters with min pairwise separation around 0.3.
GAUSS_OFFSET = 3.0


def random_positions(rng, n, low=1.0, high=4.0, min_sep=0.3):
    for _ in range(1000):
        pos = rng.uniform(low, high, size=(n, 2))
        if n == 1:
            return pos
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        if d[~np.eye(n, dtype=bool)].min() > min_sep:
            return pos
    raise RuntimeError("could not place nodes")


def make_cluster(
    rng,
    n,
    model="bit",
    equal_energy=False,
    unit_ratio=False,
    groups=0,
    a=0.5,
    offset=GAUSS_OFFSET,
    bits=5,
):
    """Random cluster with path loss = distance to origin (base station).

    ``unit_ratio`` forces E_k = d_k so E/d == 1 for every node;
    ``equal_energy`` forces identical batteries; ``groups`` > 0 gives node k
    the battery and path loss of node k % groups, so each group's nodes are
    interchangeable but for their positions.
    """
    pos = random_positions(rng, n)
    d = np.hypot(pos[:, 0], pos[:, 1])
    if unit_ratio:
        en = d.copy()
    elif equal_energy:
        en = np.full(n, 1.5)
    else:
        en = rng.uniform(0.5, 2.0, size=n)
    if groups:
        d, en = d[np.arange(n) % groups], en[np.arange(n) % groups]
    corr = BitDistance(bits) if model == "bit" else GaussianField(1.0, a, offset=offset)
    nodes = [NodeSpec(i, (float(pos[i, 0]), float(pos[i, 1])), float(en[i]), float(d[i])) for i in range(n)]
    return ClusterSpec(nodes, corr)


def two_node_cluster(distance=1.5, energies=(1.0, 1.0), path_losses=(1.0, 1.0), model=None):
    nodes = [
        NodeSpec(0, (1.0, 0.0), energies[0], path_losses[0]),
        NodeSpec(1, (1.0 + distance, 0.0), energies[1], path_losses[1]),
    ]
    return ClusterSpec(nodes, model if model is not None else BitDistance(2))


def cluster_of(model):
    """Hypothesis strategy: seeded ``make_cluster`` instances with N = 2..6."""
    return st.builds(
        lambda seed, n: make_cluster(np.random.default_rng(seed), n, model=model),
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
    )
