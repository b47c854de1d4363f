"""Technology nodes and post-synthesis MAC parameters.

The paper's Results paragraph (Section 5.3) publishes the two numbers the
whole computation analysis consumes per node:

* 45 nm (NanGate open cell library, 100 MHz): tMAC = 2 ns, PMAC = 0.05 mW.
* 12 nm (Section 6.2 technology-scaling step): tMAC = 1 ns, PMAC = 0.026 mW.

The 130 nm entry anchors the Fig. 9 accelerator study (TSMC 130 nm at
100 MHz); the paper reports the resulting power trends rather than unit
constants, so its MAC parameters here are chosen on the published 45 nm
point scaled by classical constant-field rules and validated against the
Fig. 9 power-fraction trend (DESIGN.md substitution 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import mw, ns


@dataclass(frozen=True)
class TechnologyNode:
    """Post-synthesis MAC characteristics of a technology node.

    Attributes:
        name: node label ("45nm"...).
        t_mac_s: latency of one MAC accumulate step [s].
        p_mac_w: power of one busy MAC unit [W].
    """

    name: str
    t_mac_s: float
    p_mac_w: float

    def __post_init__(self) -> None:
        if self.t_mac_s <= 0 or self.p_mac_w <= 0:
            raise ValueError("MAC latency and power must be positive")

    @property
    def energy_per_mac_j(self) -> float:
        """Energy of one accumulate step [J] = PMAC * tMAC."""
        return self.p_mac_w * self.t_mac_s

    def steps_per_second(self) -> float:
        """Throughput of a single MAC unit [steps/s]."""
        return 1.0 / self.t_mac_s


#: Paper Section 5.3, Results: NanGate 45 nm at 100 MHz.
TECH_45NM = TechnologyNode(name="45nm", t_mac_s=ns(2.0), p_mac_w=mw(0.05))

#: Paper Section 6.2, technology-scaling optimization target.
TECH_12NM = TechnologyNode(name="12nm", t_mac_s=ns(1.0), p_mac_w=mw(0.026))

#: Fig. 9 accelerator synthesis node (TSMC 130 nm at 100 MHz); constants
#: back-projected from the 45 nm point (roughly 2x latency, 2x power).
TECH_130NM = TechnologyNode(name="130nm", t_mac_s=ns(4.0), p_mac_w=mw(0.10))
