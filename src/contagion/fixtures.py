"""Small benchmark networks with hand-verified model outcomes.

The four-bank chain/star/cycle family shares the same fragile bank and the
same clearing-model outcome (H = 0.16, second round = 0.6/35) while the
mark-to-market cascade outcome depends on the topology. The two three-bank
networks are counterexamples showing that the single-propagation cascade is
not ordered against the threshold cascade or the clearing model. The wheel
family illustrates mutualization of a central default across counterparties.

Where a published diagram and its printed balance-sheet totals disagree, the
quantities here are adjusted minimally so every balance sheet closes and the
printed vulnerability values are still reproduced; see each builder's
docstring for the adjustment.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import LiabilityNetwork, ShockSpec, network_from_vectors
from .models import ADR, DC, EN

RANDOM_NETWORK_DENSITY = 0.3  # random_network's chance of a link for each ordered pair


@dataclass(frozen=True)
class Fixture:
    """A network, its shock and the hand-verified outcomes of some models.

    expected_h maps a model name to its final vulnerabilities h(inf), and
    expected_H to its final global vulnerability H(inf); every expectation
    holds at recovery_rate.
    """

    name: str
    network: LiabilityNetwork
    shock: ShockSpec
    recovery_rate: float
    expected_h: dict
    expected_H: dict = field(default_factory=dict)


def chain_fixture() -> Fixture:
    """Four banks in a line: 1 -> 2 -> 3 -> 4, each edge 15.

    Fragile bank 1: A^e=80, L^e=60, L^b=15, E=5. Banks 2-4 have E=10;
    external quantities chosen to close each balance sheet.
    """
    L = np.zeros((4, 4))
    L[0, 1] = L[1, 2] = L[2, 3] = 15.0
    ae = np.array([80.0, 60.0, 60.0, 45.0])
    le = np.array([60.0, 50.0, 50.0, 50.0])
    net = network_from_vectors(ae, le, L)
    return Fixture(
        name="chain",
        network=net,
        shock=ShockSpec.on_bank(0, 0.10, 4),
        recovery_rate=0.5,
        expected_h={EN: np.array([1.0, 0.06, 0.0, 0.0]),
                    ADR: np.array([1.0, 0.75, 0.5625, 0.421875])},
        expected_H={EN: 0.16, ADR: 22.34375 / 35.0},
    )


def star_fixture() -> Fixture:
    """Fragile center owing 5 to each of three leaves, plus a leaf ring.

    The published diagram shows only the three 5-unit spokes, but the printed
    cascade outcome (leaf vulnerability 0.75) is unreachable on the bare star:
    a leaf's claim on the center is 5 against equity 10, capping the transmitted
    distress at 0.5 for any recovery rate. A ring 2 -> 3 -> 4 -> 2 of weight 40
    is added, which reproduces the printed cascade values at R = 0.5 and leaves
    the clearing outcome untouched (no leaf defaults).
    """
    L = np.zeros((4, 4))
    L[0, 1] = L[0, 2] = L[0, 3] = 5.0
    L[1, 2] = L[2, 3] = L[3, 1] = 40.0
    ae = np.array([80.0, 55.0, 55.0, 55.0])
    le = np.array([60.0, 50.0, 50.0, 50.0])
    net = network_from_vectors(ae, le, L)
    return Fixture(
        name="star",
        network=net,
        shock=ShockSpec.on_bank(0, 0.10, 4),
        recovery_rate=0.5,
        expected_h={EN: np.array([1.0, 0.02, 0.02, 0.02]),
                    ADR: np.array([1.0, 0.75, 0.75, 0.75])},
        expected_H={EN: 0.16, ADR: 27.5 / 35.0},
    )


def cycle_fixture() -> Fixture:
    """Directed cycle 1 -> 2 -> 3 -> 4 -> 1 with uniform edge weight 18.75.

    The published diagram uses edge weight 15, which cannot close bank 1's
    balance sheet once the incoming 4 -> 1 claim exists. The unique uniform
    weight consistent with the printed outcomes (fragile-bank connectivity
    0.2, neighbour vulnerability 0.06 under clearing and 0.75 under the
    cascade) is 18.75, with bank 1's outside liabilities at 75 and the
    cascade run at R = 0.6.
    """
    w = 18.75
    L = np.zeros((4, 4))
    L[0, 1] = L[1, 2] = L[2, 3] = L[3, 0] = w
    ae = np.array([80.0, 60.0, 60.0, 60.0])
    le = np.array([75.0, 50.0, 50.0, 50.0])
    net = network_from_vectors(ae, le, L)
    return Fixture(
        name="cycle",
        network=net,
        shock=ShockSpec.on_bank(0, 0.10, 4),
        recovery_rate=0.6,
        expected_h={EN: np.array([1.0, 0.06, 0.0, 0.0]),
                    ADR: np.array([1.0, 0.75, 0.5625, 0.421875])},
        expected_H={EN: 0.16, ADR: 22.34375 / 35.0},
    )


def topology_family() -> list:
    return [chain_fixture(), star_fixture(), cycle_fixture()]


def dc_vs_adr_fixture() -> Fixture:
    """Three-bank cycle where the threshold cascade beats the one-shot cascade.

    Two waves of distress hit bank 2: under single-propagation dynamics it
    spends its one transmission on the small first wave, while the threshold
    cascade lets it transmit its (later) default in full.
    """
    # Asset matrix rows are claims: 1 on 3 (20), 2 on 1 (20), 3 on 2 (15).
    L = np.zeros((3, 3))
    L[0, 1] = 20.0
    L[1, 2] = 15.0
    L[2, 0] = 20.0
    ae = np.array([100.0, 100.0, 100.0])
    equity = np.array([5.0, 15.0, 25.0])
    ab = L.sum(axis=0)
    lb = L.sum(axis=1)
    le = ae + ab - lb - equity
    net = network_from_vectors(ae, le, L)
    return Fixture(
        name="dc-vs-adr",
        network=net,
        shock=ShockSpec.uniform(0.10),
        recovery_rate=0.0,
        expected_h={DC: np.array([1.0, 1.0, 1.0]),
                    ADR: np.array([1.0, 1.0, 4.0 / 5.0])},
    )


def en_vs_adr_fixture() -> Fixture:
    """Three-bank chain where clearing losses exceed the one-shot cascade's.

    Banks 2 and 3 live almost entirely off interbank claims, so the full
    write-off of external assets defaults everyone under clearing while the
    single-propagation cascade leaves bank 3 partially distressed.
    """
    L = np.zeros((3, 3))
    L[0, 1] = 50.0
    L[1, 2] = 20.0
    ae = np.array([100.0, 5.0, 20.0])
    equity = np.array([15.0, 35.0, 35.0])
    ab = L.sum(axis=0)
    lb = L.sum(axis=1)
    le = ae + ab - lb - equity
    net = network_from_vectors(ae, le, L)
    return Fixture(
        name="en-vs-adr",
        network=net,
        shock=ShockSpec.uniform(1.0),
        recovery_rate=0.0,
        expected_h={EN: np.array([1.0, 1.0, 1.0]),
                    ADR: np.array([1.0, 1.0, 32.0 / 49.0])},
    )


def wheel_fixture(n: int) -> Fixture:
    """Fragile center owing 10 to each of n-1 leaves joined in a ring.

    Center: A^e = 75(n-1), E = 5(n-1), L^b = 10(n-1), L^e = 60(n-1).
    Leaves: A^e = 50(n-1), E = 10(n-1), ring edges of weight 5(n-1); the
    published leaf totals (A^b = 15(n-1)) only close for n = 2, so leaf
    outside liabilities are set to 40(n-1) + 10 to close every sheet while
    preserving the center's connectivity 1/7 and the equal mutualization of
    its shortfall. Under a 10% shock on the center, each leaf's clearing
    vulnerability is exactly 2.5 / (70 (n-1)).
    """
    if n < 2:
        raise ValueError("wheel needs at least 2 banks")
    k = n - 1
    L = np.zeros((n, n))
    L[0, 1:] = 10.0
    if k >= 2:
        for i in range(1, n):
            L[i, 1 + (i % k)] = 5.0 * k
    ae = np.concatenate(([75.0 * k], np.full(k, 50.0 * k)))
    le = np.concatenate(([60.0 * k], np.full(k, 40.0 * k + 10.0)))
    net = network_from_vectors(ae, le, L)
    h_leaf = 2.5 / (70.0 * k)
    expected = np.concatenate(([1.0], np.full(k, h_leaf)))
    return Fixture(
        name=f"wheel-{n}",
        network=net,
        shock=ShockSpec.on_bank(0, 0.10, n),
        recovery_rate=0.0,
        expected_h={EN: expected},
    )


def _random_interbank(rng: np.random.Generator, n: int) -> tuple:
    """(equity, L) as random_network draws them, L scaled to its spectral radius."""
    spectral_radius = rng.uniform(0.15, 0.85)
    equity = rng.lognormal(mean=2.0, sigma=0.8, size=n)
    adj = rng.random((n, n)) < RANDOM_NETWORK_DENSITY
    np.fill_diagonal(adj, False)
    if not adj.any():
        adj[0, 1 % n] = True
    L = np.where(adj, rng.lognormal(mean=1.0, sigma=0.7, size=(n, n)), 0.0)
    lb_lev = L.T / equity[:, None]
    rho = float(np.max(np.abs(np.linalg.eigvals(lb_lev))))
    if rho > 1e-12:
        L = L * (spectral_radius / rho)
    return equity, L


def random_network(rng: np.random.Generator, n: int) -> LiabilityNetwork:
    """Random admissible network for property tests and audits.

    Interbank leverage is rescaled so the leverage matrix's spectral radius
    is uniform in [0.15, 0.85], keeping cascade dynamics well away from the
    critical regime where convergence slows to a crawl.
    """
    equity, L = _random_interbank(rng, n)
    ab, lb = L.sum(axis=0), L.sum(axis=1)
    needed = np.maximum(0.0, equity + lb - ab)
    ae = needed + equity * rng.uniform(0.5, 15.0, size=n)
    le = ae + ab - lb - equity
    return network_from_vectors(ae, le, L, equity=equity)


def golden() -> list:
    """Every fixture with stored expectations, for the fixtures self-check."""
    return [*topology_family(), dc_vs_adr_fixture(), en_vs_adr_fixture(),
            *(wheel_fixture(n) for n in (2, 4, 8, 16))]
