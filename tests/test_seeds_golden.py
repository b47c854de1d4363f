"""Golden values for the per-driver seed derivation.

Cache keys (:mod:`repro.cache.keys`) fold the derived seed into every
whole-driver entry, so the sha256 derivation in
:func:`repro.seeds.derive_driver_seed` must stay stable across
platforms, Python versions, and refactors.  These constants were
computed once from the definition (``sha256(f"{base}:{name}")``, first
8 bytes big-endian, top bit cleared) and pin it forever: a change that
shifts any of them would silently invalidate every existing cache and
break cross-run reproducibility claims.
"""

from __future__ import annotations

import hashlib

from repro.seeds import derive_driver_seed

#: (base seed, driver name) -> expected derived seed.
GOLDEN = {
    (7, "table1"): 2255781951387248460,
    (7, "fig5"): 2713030485994543653,
    (7, "fig8"): 146177321066986236,
    (42, "fig5"): 278786148893265736,
    (0, "fig4"): 4458548768354279816,
    (123456789, "frontier"): 1572863151873299928,
}


class TestGoldenDerivedSeeds:
    def test_pinned_values(self):
        for (base, name), expected in GOLDEN.items():
            assert derive_driver_seed(base, name) == expected, (base,
                                                                name)

    def test_matches_spelled_out_construction(self):
        # Independent re-derivation from the documented formula.
        for (base, name), expected in GOLDEN.items():
            digest = hashlib.sha256(f"{base}:{name}".encode()).digest()
            value = int.from_bytes(digest[:8], "big") >> 1
            assert value == expected

    def test_in_numpy_seed_range(self):
        for expected in GOLDEN.values():
            assert 0 <= expected < 2**63
